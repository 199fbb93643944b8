"""Binary tensor formats, the synthetic event-scene generator, and dataset IO.

File formats (all headers little-endian u32 after a 4-byte ASCII magic;
`write_framed` writes every such file atomically and `open_framed` checks
its magic and header and that no byte follows the payload):

  SPKT  magic "SPKT", version=1, T, C, H, W, then ceil(T*C*H*W/8) payload
        bytes.  Bits are packed MSB-first in flattened row-major order,
        flat index ((t*C + c)*H + h)*W + w.
  DPTH  magic "DPTH", H, W, then H*W float32 LE row-major; NaN marks an
        invalid pixel.
  FEAT  magic "FEAT", D, H, W, then D*H*W float32 LE row-major.

A dataset directory holds one .spkt/.dpth/.feat triple per sample plus a
plain-text manifest listing their paths relative to it, written last.
"""
from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, FormatError
from .trace import is_binary

SPKT_MAGIC = b"SPKT"
SPKT_VERSION = 1
DPTH_MAGIC = b"DPTH"
FEAT_MAGIC = b"FEAT"


class SpikeTensor:
    """Bit-packed binary tensor over (T, C, H, W)."""

    __slots__ = ("t", "c", "h", "w", "bits")

    def __init__(self, t, c, h, w, bits: bytes):
        n = t * c * h * w
        need = (n + 7) // 8
        if len(bits) != need:
            raise DimensionError(f"SpikeTensor: payload of {len(bits)} bytes, expected {need}")
        self.t, self.c, self.h, self.w = t, c, h, w
        self.bits = bits

    @property
    def shape(self):
        return (self.t, self.c, self.h, self.w)

    @classmethod
    def from_dense(cls, arr) -> "SpikeTensor":
        arr = np.asarray(arr)
        if arr.ndim != 4:
            raise DimensionError(f"SpikeTensor.from_dense: need (T,C,H,W), got {arr.shape}")
        if not is_binary(arr):
            raise DataError("SpikeTensor.from_dense: values must be exactly 0 or 1")
        packed = np.packbits(arr.astype(np.uint8).reshape(-1), bitorder="big")
        return cls(*arr.shape, packed.tobytes())

    def to_dense(self) -> np.ndarray:
        """The spikes as a float32 array (T, C, H, W) of 0s and 1s."""
        n = self.t * self.c * self.h * self.w
        flat = np.unpackbits(np.frombuffer(self.bits, dtype=np.uint8), count=n, bitorder="big")
        return flat.reshape(self.t, self.c, self.h, self.w).astype(np.float32)


@dataclass
class DepthMap:
    """Normalized depth in [0, 1] with a per-pixel validity mask.

    `values` holds 0.0 at invalid pixels in memory; on disk invalid pixels
    are stored as NaN.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2 or self.values.shape != self.mask.shape:
            raise DimensionError(
                f"DepthMap: values {self.values.shape} and mask {self.mask.shape} must be equal 2-D"
            )

    @property
    def shape(self):
        return self.values.shape


@dataclass
class SampleTuple:
    spikes: SpikeTensor
    depth: DepthMap
    teacher_features: np.ndarray | None = None
    name: str = ""


# ---------------------------------------------------------------------------
# codecs


def _read_exact(f, n, what):
    # never ask read() for more than the file holds: it allocates the full
    # request first, so a corrupt length field would cost gigabytes
    left = os.fstat(f.fileno()).st_size - f.tell()
    buf = f.read(min(n, left))
    if len(buf) != n:
        raise FormatError(f"truncated {what}: wanted {n} bytes, got {len(buf)}")
    return buf


@contextmanager
def atomic_write(path):
    """Open a temporary binary file beside `path`; it replaces `path` only
    when the block exits cleanly.  On an exception it is removed and `path`
    keeps its old contents; an OSError about the temporary file is raised
    again naming `path` alone."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_lines(path, lines) -> None:
    """Write UTF-8 text lines, each ending in a newline, atomically."""
    with atomic_write(path) as fh:
        fh.write("".join(f"{line}\n" for line in lines).encode("utf-8"))


def write_framed(path, magic: bytes, header, chunks) -> None:
    """Write `magic`, the `header` words as little-endian u32 and then each
    byte chunk of the payload to `path` atomically."""
    with atomic_write(path) as fh:
        fh.write(magic + struct.pack(f"<{len(header)}I", *header))
        for chunk in chunks:
            fh.write(chunk)


@contextmanager
def open_framed(path, magic: bytes, n_header: int, what: str):
    """Open `path`, check its magic and read its `n_header` u32 header words;
    yields (header, file), the file positioned at the payload, which the
    caller reads with `_read_exact`.  A framed file ends with its payload:
    a byte left unread when the block exits raises FormatError."""
    with open(path, "rb") as fh:
        got = _read_exact(fh, 4, f"{what} magic")
        if got != magic:
            raise FormatError(f"bad {what} magic {got!r}, expected {magic!r}")
        yield struct.unpack(f"<{n_header}I", _read_exact(fh, 4 * n_header, f"{what} header")), fh
        extra = os.fstat(fh.fileno()).st_size - fh.tell()
        if extra:
            raise FormatError(f"{what} has {extra} bytes after its payload")


def utf8(blob: bytes, what: str, error) -> str:
    """`blob` decoded as UTF-8, the one decoder of every text input; bytes
    that are not UTF-8 raise `error`, the caller's package error class."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8 text: {exc.reason}") from exc


def write_spikes(path, spikes: SpikeTensor) -> None:
    write_framed(path, SPKT_MAGIC, (SPKT_VERSION, *spikes.shape), [spikes.bits])


def read_spikes(path) -> SpikeTensor:
    with open_framed(path, SPKT_MAGIC, 5, "SPKT") as ((version, t, c, h, w), f):
        if version != SPKT_VERSION:
            raise FormatError(f"unsupported SPKT version {version}")
        payload = _read_exact(f, (t * c * h * w + 7) // 8, "SPKT payload")
    return SpikeTensor(t, c, h, w, payload)


def write_depth(path, depth: DepthMap) -> None:
    """Write a DPTH map, invalid pixels as NaN; a non-finite value at a valid
    pixel raises DataError, since `read_depth` would read it back as invalid."""
    if not np.isfinite(depth.values[depth.mask]).all():
        raise DataError("write_depth: depth values at valid pixels must be finite")
    vals = depth.values.astype("<f4", copy=True)
    vals[~depth.mask] = np.float32("nan")
    write_framed(path, DPTH_MAGIC, vals.shape, [vals.tobytes()])


def read_depth(path) -> DepthMap:
    with open_framed(path, DPTH_MAGIC, 2, "DPTH") as ((h, w), f):
        payload = _read_exact(f, h * w * 4, "DPTH payload")
    vals = np.frombuffer(payload, dtype="<f4").reshape(h, w).astype(np.float32)
    mask = np.isfinite(vals)
    vals = np.where(mask, vals, np.float32(0.0))
    return DepthMap(values=vals, mask=mask)


def write_features(path, feats: np.ndarray) -> None:
    feats = np.asarray(feats, dtype="<f4")
    if feats.ndim != 3:
        raise DimensionError(f"write_features: need (D,H,W), got {feats.shape}")
    write_framed(path, FEAT_MAGIC, feats.shape, [feats.tobytes()])


def read_features(path) -> np.ndarray:
    with open_framed(path, FEAT_MAGIC, 3, "FEAT") as ((d, h, w), f):
        payload = _read_exact(f, d * h * w * 4, "FEAT payload")
    return np.frombuffer(payload, dtype="<f4").reshape(d, h, w).astype(np.float32)


def export_pgm(path, depth_values: np.ndarray) -> None:
    """Write normalized depth as a 16-bit binary PGM (maxval 65535, MSB first)."""
    vals = np.asarray(depth_values, dtype=np.float64)
    if vals.ndim != 2 or vals.size == 0:
        raise DimensionError(f"export_pgm: need a non-empty 2-D map, got {vals.shape}")
    if not (vals.min() >= 0.0 and vals.max() <= 1.0):  # NaN fails both comparisons
        raise DataError("export_pgm: depth values must lie in [0, 1]")
    h, w = vals.shape
    pix = np.rint(vals * 65535.0).astype(">u2")
    with atomic_write(path) as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(pix.tobytes())


# ---------------------------------------------------------------------------
# synthetic scenes


# scene constants of `gen_synthetic` (see its docstring)
N_RECTS = (2, 5)
DEPTH_RANGE = (0.45, 0.75)
SIZE_RANGE = (0.55, 0.85)
SPEED_RANGE = (1, 2)
BG_DEPTH = 0.85
TEACHER_NOISE = 0.05
TEXTURE_CELL = 4


def _block_texture(rng, h, w):
    """Blocky random texture in (0.15, 1.0]; coarse cells so 1-px motion only
    fires events at cell borders and object edges."""
    gh, gw = math.ceil(h / TEXTURE_CELL), math.ceil(w / TEXTURE_CELL)
    grid = 0.15 + 0.85 * rng.random((gh, gw))
    return np.repeat(np.repeat(grid, TEXTURE_CELL, axis=0), TEXTURE_CELL, axis=1)[:h, :w]


def _box_smooth3(x):
    """3x3 box filter with edge replication."""
    p = np.pad(x, ((1, 1), (1, 1)), mode="edge")
    out = np.zeros_like(x)
    for dy in range(3):
        for dx in range(3):
            out += p[dy : dy + x.shape[0], dx : dx + x.shape[1]]
    return out / 9.0


def gen_synthetic(
    seed: int,
    n_samples: int,
    t: int = 4,
    h: int = 64,
    w: int = 64,
    contrast_threshold: float = 0.15,
    teacher_dim: int = 16,
) -> list[SampleTuple]:
    """Procedural event scenes: textured rectangles at distinct depths
    translating over a static textured background.

    The scene is fixed by module constants: each sample holds N_RECTS =
    (2, 5) rectangles (inclusive bounds), each at a distinct depth from a
    16-step grid over DEPTH_RANGE = (0.45, 0.75) and with sides of
    SIZE_RANGE = (0.55, 0.85) of the frame, moving SPEED_RANGE = (1, 2)
    pixels per step (at least 1 on one axis) over a background at
    BG_DEPTH = 0.85.  Textures are blocks of TEXTURE_CELL = 4 pixels, and
    teacher features carry Gaussian noise of std TEACHER_NOISE = 0.05.

    A spike fires on a pixel/polarity when the log-intensity change between
    consecutive frames reaches `contrast_threshold` (channel 0 positive,
    channel 1 negative).  Ground truth is the nearest surface depth of the
    final frame, normalized to [0, 1]; rectangle edges land on the 8-pixel
    token grid in that frame so the coarsest feature map can represent them
    exactly.  Depths stay away from 0 and 1 because a sigmoid-bounded
    regressor can only approach the codomain endpoints asymptotically.
    Teacher features are a smoothed multi-channel linear encoding of the
    depth map (at H/8 x W/8) plus seeded noise; the encoding basis is fixed
    per dataset so one frozen "teacher" explains every sample.  Fully
    deterministic in `seed`.
    """
    if h < 8 or w < 8 or h % 8 or w % 8:
        raise DimensionError(f"gen_synthetic: H and W must be positive multiples of 8, got ({h},{w})")
    if t < 1 or n_samples < 0 or teacher_dim < 1 or seed < 0:
        raise DimensionError(
            f"gen_synthetic: need t >= 1, n_samples >= 0, teacher_dim >= 1 and seed >= 0, got "
            f"t={t}, n_samples={n_samples}, teacher_dim={teacher_dim}, seed={seed}")
    if not 0 < contrast_threshold < math.inf:  # NaN fails both comparisons
        raise DataError(
            f"gen_synthetic: contrast_threshold must be finite and positive, got {contrast_threshold}")

    rng = np.random.default_rng(seed)
    # teacher encoding basis, drawn once per dataset
    gains = rng.uniform(0.8, 1.6, size=teacher_dim) * rng.choice((-1.0, 1.0), size=teacher_dim)
    offsets = rng.uniform(-0.2, 0.2, size=teacher_dim)

    depth_grid = np.linspace(DEPTH_RANGE[0], DEPTH_RANGE[1], 16)
    samples = []
    for idx in range(n_samples):
        bg = _block_texture(rng, h, w)
        k = int(rng.integers(N_RECTS[0], N_RECTS[1] + 1))
        depths = rng.choice(depth_grid, size=k, replace=False)
        rects = []
        for d in depths:
            # sizes and final-frame corners on the 8-px grid (see docstring);
            # SIZE_RANGE inside (0.5, 1) keeps every side within [8, frame]
            rh = int(round(h * rng.uniform(*SIZE_RANGE) / 8)) * 8
            rw = int(round(w * rng.uniform(*SIZE_RANGE) / 8)) * 8
            yf = int(rng.integers(0, (h - rh) // 8 + 1)) * 8
            xf = int(rng.integers(0, (w - rw) // 8 + 1)) * 8
            lo, hi = SPEED_RANGE
            while True:
                vy = int(rng.integers(-hi, hi + 1))
                vx = int(rng.integers(-hi, hi + 1))
                if max(abs(vy), abs(vx)) >= lo:
                    break
            rects.append(
                dict(depth=float(d), tex=_block_texture(rng, rh, rw), yf=yf, xf=xf, vy=vy, vx=vx)
            )

        def render(step):
            inten = bg.copy()
            dep = np.full((h, w), BG_DEPTH, dtype=np.float64)
            # paint far to near so nearer surfaces occlude
            for r in sorted(rects, key=lambda r: -r["depth"]):
                y = r["yf"] - r["vy"] * (t - step)
                x = r["xf"] - r["vx"] * (t - step)
                rh, rw = r["tex"].shape
                ys, ye = max(y, 0), min(y + rh, h)
                xs, xe = max(x, 0), min(x + rw, w)
                if ys >= ye or xs >= xe:
                    continue
                inten[ys:ye, xs:xe] = r["tex"][ys - y : ye - y, xs - x : xe - x]
                dep[ys:ye, xs:xe] = r["depth"]
            return inten, dep

        spikes = np.zeros((t, 2, h, w), dtype=np.uint8)
        prev_log = np.log(render(0)[0])
        final_depth = None
        for step in range(1, t + 1):
            inten, dep = render(step)
            cur_log = np.log(inten)
            diff = cur_log - prev_log
            spikes[step - 1, 0] = diff >= contrast_threshold
            spikes[step - 1, 1] = diff <= -contrast_threshold
            prev_log = cur_log
            final_depth = dep

        depth_map = DepthMap(values=final_depth.astype(np.float32), mask=np.ones((h, w), bool))

        d8 = final_depth.reshape(h // 8, 8, w // 8, 8).mean(axis=(1, 3))
        feats = np.empty((teacher_dim, h // 8, w // 8), dtype=np.float32)
        for j in range(teacher_dim):
            feats[j] = _box_smooth3(gains[j] * 2.0 * (d8 - 0.5) + offsets[j])
        feats += rng.normal(0.0, TEACHER_NOISE, size=feats.shape).astype(np.float32)

        samples.append(
            SampleTuple(
                spikes=SpikeTensor.from_dense(spikes),
                depth=depth_map,
                teacher_features=feats,
                name=f"sample_{idx:03d}",
            )
        )
    return samples


# ---------------------------------------------------------------------------
# dataset directories


MANIFEST_NAME = "manifest.txt"


def write_dataset(out_dir, samples: list[SampleTuple]) -> list[str]:
    """Write one .spkt/.dpth/.feat triple per sample plus the manifest.
    Returns the relative paths written (manifest last).  A sample without
    teacher features is refused before anything is written.  Any old
    manifest is removed first and the new one written last, so a run that
    stops partway leaves no manifest to load mixed old and new files."""
    for s in samples:
        if s.teacher_features is None:
            raise DataError(f"write_dataset: sample {s.name} has no teacher features")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / MANIFEST_NAME).unlink(missing_ok=True)
    lines = [f"count={len(samples)}"]
    written = []
    for s in samples:
        spk, dpt, fea = f"{s.name}.spkt", f"{s.name}.dpth", f"{s.name}.feat"
        write_spikes(out / spk, s.spikes)
        write_depth(out / dpt, s.depth)
        write_features(out / fea, s.teacher_features)
        lines.append(f"sample={s.name} spk={spk} depth={dpt} feat={fea}")
        written += [spk, dpt, fea]
    write_lines(out / MANIFEST_NAME, lines)
    return written + [MANIFEST_NAME]


def _member(root: Path, rel: str) -> Path:
    """`root / rel` for a manifest path `rel`, which must name a file inside
    the dataset directory: relative, not climbing above it, no NUL byte."""
    norm = os.path.normpath(rel)
    climbs = norm == os.pardir or norm.startswith(os.pardir + os.sep)
    if os.path.isabs(rel) or climbs or "\0" in rel:
        raise DataError(f"manifest path {rel!r} names no file inside the dataset directory {root}")
    return root / rel


def load_dataset(data_dir, need_teacher: bool = False) -> list[SampleTuple]:
    root = Path(data_dir)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise DataError(f"no manifest at {manifest}")
    text = utf8(manifest.read_bytes(), f"manifest {manifest}", DataError)
    count, entries = None, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("count="):
            if count is not None:
                raise DataError(f"manifest {manifest} has more than one count= line")
            count = line[len("count="):]
            continue
        try:
            fields = dict(part.split("=", 1) for part in line.split())
        except ValueError:
            raise DataError(f"malformed manifest line: {line!r}") from None
        if "spk" not in fields or "depth" not in fields:
            raise DataError(f"malformed manifest line: {line!r}")
        entries.append(fields)
    if count is not None and count != str(len(entries)):
        raise DataError(f"manifest {manifest} says count={count} but lists {len(entries)} samples")
    samples = []
    for fields in entries:
        spikes = read_spikes(_member(root, fields["spk"]))
        depth = read_depth(_member(root, fields["depth"]))
        teacher = None
        feat_rel = fields.get("feat", "-")
        if feat_rel != "-" and _member(root, feat_rel).is_file():
            teacher = read_features(root / feat_rel)
        if need_teacher and teacher is None:
            raise DataError(f"missing teacher feature file for sample {fields.get('sample')}")
        if spikes.h != depth.shape[0] or spikes.w != depth.shape[1]:
            raise DataError(
                f"sample {fields.get('sample')}: spike dims {spikes.h}x{spikes.w} "
                f"!= depth dims {depth.shape[0]}x{depth.shape[1]}"
            )
        if teacher is not None and teacher.shape[1:] != (spikes.h // 8, spikes.w // 8):
            raise DataError(
                f"sample {fields.get('sample')}: teacher grid {teacher.shape[1:]} "
                f"!= (H/8, W/8) = {(spikes.h // 8, spikes.w // 8)}"
            )
        samples.append(
            SampleTuple(spikes=spikes, depth=depth, teacher_features=teacher, name=fields.get("sample", ""))
        )
    return samples
