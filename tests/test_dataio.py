"""File codecs (bit-exact) and the synthetic event-scene generator."""
import errno
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import depth_map, disk_full_after
from spikedepth import dataio
from spikedepth.dataio import (
    DepthMap,
    SampleTuple,
    SpikeTensor,
    gen_synthetic,
    load_dataset,
    read_depth,
    read_features,
    read_spikes,
    write_dataset,
    write_depth,
    write_features,
    write_spikes,
)
from spikedepth.errors import DataError, DimensionError, FormatError, SpikeDepthError


# ---------------------------------------------------------------------------
# spike tensor packing


def test_msb_first_packing_hand_oracle():
    arr = np.array([1, 0, 1, 0, 1, 0, 1, 0]).reshape(1, 1, 1, 8)
    st = SpikeTensor.from_dense(arr)
    assert st.bits == b"\xaa"


def test_all_zero_payload_size():
    st = SpikeTensor.from_dense(np.zeros((2, 1, 4, 4), dtype=np.uint8))
    assert st.bits == b"\x00\x00\x00\x00"


def test_packing_rejects_non_binary():
    with pytest.raises(DataError):
        SpikeTensor.from_dense(np.full((1, 1, 1, 8), 0.5))


def test_dense_round_trip(rng):
    for _ in range(20):
        dims = tuple(int(rng.integers(1, 6)) for _ in range(4))
        arr = (rng.random(dims) < 0.5).astype(np.float32)
        np.testing.assert_array_equal(SpikeTensor.from_dense(arr).to_dense(), arr)


def test_spkt_file_round_trip(tmp_path, rng):
    arr = (rng.random((3, 2, 8, 8)) < 0.4).astype(np.uint8)
    st = SpikeTensor.from_dense(arr)
    write_spikes(tmp_path / "x.spkt", st)
    back = read_spikes(tmp_path / "x.spkt")
    assert back.shape == st.shape and back.bits == st.bits


def test_spkt_header_layout(tmp_path):
    st = SpikeTensor.from_dense(np.ones((1, 1, 1, 8), dtype=np.uint8))
    write_spikes(tmp_path / "x.spkt", st)
    raw = (tmp_path / "x.spkt").read_bytes()
    assert raw[:4] == b"SPKT"
    assert np.frombuffer(raw[4:24], dtype="<u4").tolist() == [1, 1, 1, 1, 8]
    assert raw[24:] == b"\xff"


def test_spkt_bad_magic_version_truncation(tmp_path):
    p = tmp_path / "x.spkt"
    st = SpikeTensor.from_dense(np.ones((1, 1, 2, 8), dtype=np.uint8))
    write_spikes(p, st)
    raw = bytearray(p.read_bytes())

    (tmp_path / "bad1.spkt").write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        read_spikes(tmp_path / "bad1.spkt")

    bad2 = bytearray(raw)
    bad2[4] = 9  # version
    (tmp_path / "bad2.spkt").write_bytes(bytes(bad2))
    with pytest.raises(FormatError):
        read_spikes(tmp_path / "bad2.spkt")

    (tmp_path / "bad3.spkt").write_bytes(bytes(raw[:-1]))
    with pytest.raises(FormatError):
        read_spikes(tmp_path / "bad3.spkt")


# ---------------------------------------------------------------------------
# depth and feature codecs


def test_depth_nan_round_trips_as_mask(tmp_path):
    d = DepthMap(np.array([[0.0, 0.5], [1.0, 0.0]], dtype=np.float32),
                 np.array([[True, True], [True, False]]))
    write_depth(tmp_path / "d.dpth", d)
    back = read_depth(tmp_path / "d.dpth")
    np.testing.assert_array_equal(back.mask, d.mask)
    np.testing.assert_array_equal(back.values[back.mask], d.values[d.mask])
    raw = (tmp_path / "d.dpth").read_bytes()
    assert raw[:4] == b"DPTH"
    stored = np.frombuffer(raw[12:], dtype="<f4").reshape(2, 2)
    assert np.isnan(stored[1, 1]) and not np.isnan(stored[0, 0])


def test_depth_refuses_a_non_finite_valid_pixel(tmp_path):
    # read_depth would read the pixel back as invalid, flipping the mask
    for bad in (np.nan, np.inf, -np.inf):
        d = DepthMap(np.array([[bad, 0.5]], dtype=np.float32), np.array([[True, True]]))
        with pytest.raises(DataError):
            write_depth(tmp_path / "d.dpth", d)
        assert not (tmp_path / "d.dpth").exists()
    masked = DepthMap(np.array([[np.nan, 0.5]], dtype=np.float32), np.array([[False, True]]))
    write_depth(tmp_path / "d.dpth", masked)  # an invalid pixel may hold anything
    np.testing.assert_array_equal(read_depth(tmp_path / "d.dpth").mask, masked.mask)


def test_feat_payload_size_and_round_trip(tmp_path, rng):
    f = np.zeros((4, 3, 5), dtype=np.float32)
    write_features(tmp_path / "f.feat", f)
    assert len((tmp_path / "f.feat").read_bytes()) == 4 + 12 + 4 * 3 * 5 * 4
    g = rng.standard_normal((2, 4, 4)).astype(np.float32)
    write_features(tmp_path / "g.feat", g)
    assert read_features(tmp_path / "g.feat").tobytes() == g.tobytes()


def test_wrong_magic_across_codecs(tmp_path):
    write_features(tmp_path / "f.feat", np.zeros((1, 2, 2), dtype=np.float32))
    with pytest.raises(FormatError):
        read_depth(tmp_path / "f.feat")
    with pytest.raises(FormatError):
        read_spikes(tmp_path / "f.feat")


def test_export_pgm_layout(tmp_path):
    vals = np.array([[0.0, 0.5], [1.0, 0.25]], dtype=np.float32)
    dataio.export_pgm(tmp_path / "d.pgm", vals)
    raw = (tmp_path / "d.pgm").read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert raw.startswith(header)
    pix = np.frombuffer(raw[len(header):], dtype=">u2").reshape(2, 2)
    np.testing.assert_array_equal(pix, np.rint(vals * 65535).astype(np.uint16))


def test_export_pgm_refuses_nan(tmp_path):
    # NaN fails both range comparisons, so it would pass a check of min < 0 or max > 1
    for vals in ([[np.nan, 0.5]], [[0.5, np.nan]], [[np.nan, np.nan]]):
        with pytest.raises(DataError):
            dataio.export_pgm(tmp_path / "d.pgm", np.array(vals))
    assert not (tmp_path / "d.pgm").exists()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_export_pgm_refuses_zero_size_map(tmp_path, shape):
    # a range check over no values has no min or max to read
    with pytest.raises(DimensionError, match="non-empty 2-D map"):
        dataio.export_pgm(tmp_path / "d.pgm", np.zeros(shape))
    assert not (tmp_path / "d.pgm").exists()


# ---------------------------------------------------------------------------
# synthetic generator


def test_generator_dims_and_binarity():
    samples = gen_synthetic(seed=0, n_samples=2, t=3, h=32, w=40)
    assert len(samples) == 2
    for s in samples:
        assert s.spikes.shape == (3, 2, 32, 40)
        dense = s.spikes.to_dense()
        assert set(np.unique(dense)) <= {0.0, 1.0}
        assert s.depth.shape == (32, 40)
        assert s.teacher_features.shape == (16, 4, 5)
        v = s.depth.values[s.depth.mask]
        assert v.min() >= 0.0 and v.max() <= 1.0


def test_generator_determinism():
    a = gen_synthetic(seed=11, n_samples=3, t=2, h=24, w=24)
    b = gen_synthetic(seed=11, n_samples=3, t=2, h=24, w=24)
    for sa, sb in zip(a, b):
        assert sa.spikes.bits == sb.spikes.bits
        assert sa.depth.values.tobytes() == sb.depth.values.tobytes()
        assert sa.teacher_features.tobytes() == sb.teacher_features.tobytes()


def test_generator_polarity_channels_exclusive():
    for s in gen_synthetic(seed=5, n_samples=3, t=4, h=32, w=32):
        dense = s.spikes.to_dense()
        assert not np.logical_and(dense[:, 0], dense[:, 1]).any()


def test_depth_values_are_background_or_grid():
    grid = np.linspace(*dataio.DEPTH_RANGE, 16).astype(np.float32)
    allowed = np.append(grid, np.float32(dataio.BG_DEPTH))
    for s in gen_synthetic(seed=9, n_samples=4, t=2, h=32, w=32):
        values = np.unique(s.depth.values)
        assert np.isin(values, allowed).all(), values
        assert np.isin(values, grid).any()  # some rectangle is in the final frame


# sha256 of every file `write_dataset` writes for one small generated dataset,
# taken while the scene settings were still keyword arguments: turning them
# into module constants must keep the generator's bytes.
PINNED_DATASET_SHA256 = {
    "manifest.txt": "5d2b70d7daa096b661e1d76d3eb58fa73adfbcde68961f70004087136052aefb",
    "sample_000.dpth": "c696fed0128baa58113f5bda86a70e76bce1840a731270297a498f4ab779bbb0",
    "sample_000.feat": "99a9d67cb468f24e8f8e1641a267acb0495680971ddf0369053af177fc0f9c5b",
    "sample_000.spkt": "93757572d27ac63a89e5c86e0adc270caf58c07bbcdce502d5af993f3322dd3e",
    "sample_001.dpth": "4270c70408412514056979ad819303825fb0365f0880a73bb10147fc0daa3307",
    "sample_001.feat": "a3c6d711caa0015d1d22bd4a9297bd3bc8b328b96a82cb1cec37c261d6685427",
    "sample_001.spkt": "23baf7a16d9dc7681b5e7db33c86407558c6f67ffb33a130fcf715d105db07f8",
}


def test_generated_dataset_bytes_are_pinned(tmp_path):
    samples = gen_synthetic(seed=3, n_samples=2, t=4, h=32, w=32, teacher_dim=8)
    names = write_dataset(tmp_path, samples)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    assert got == PINNED_DATASET_SHA256


def test_generator_validates_dims():
    with pytest.raises(DimensionError):
        gen_synthetic(seed=0, n_samples=1, h=30, w=32)
    with pytest.raises(DimensionError):
        gen_synthetic(seed=0, n_samples=1, t=0)


# ---------------------------------------------------------------------------
# dataset directories


def test_write_then_load_dataset(tmp_path):
    samples = gen_synthetic(seed=1, n_samples=2, t=2, h=16, w=16, teacher_dim=4)
    files = write_dataset(tmp_path, samples)
    assert len(files) == 2 * 3 + 1 and files[-1] == "manifest.txt"
    back = load_dataset(tmp_path, need_teacher=True)
    assert len(back) == 2
    for s, b in zip(samples, back):
        assert b.name == s.name
        assert b.spikes.bits == s.spikes.bits
        np.testing.assert_array_equal(b.depth.values, s.depth.values)
        np.testing.assert_array_equal(b.teacher_features, s.teacher_features)


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nowhere")


def test_load_dataset_checks_teacher_grid(tmp_path):
    samples = gen_synthetic(seed=1, n_samples=1, t=2, h=16, w=16, teacher_dim=4)
    write_dataset(tmp_path, samples)
    # corrupt the teacher grid: wrong spatial dims for H/8 x W/8
    write_features(tmp_path / "sample_000.feat", np.zeros((4, 3, 3), dtype=np.float32))
    with pytest.raises(DataError):
        load_dataset(tmp_path, need_teacher=True)


def _depth_size_differs(root):
    write_dataset(root, gen_synthetic(seed=1, n_samples=1, t=2, h=16, w=16, teacher_dim=4))
    write_depth(root / "sample_000.dpth", depth_map(np.full((8, 16), 0.5)))
    load_dataset(root)


_BAD_VALUES = {  # input guard -> (package error, message, call on a scratch directory)
    "spike_payload_size": (DimensionError, "payload of 3 bytes, expected 2",
                           lambda root: SpikeTensor(1, 1, 2, 8, b"\x00" * 3)),
    "spikes_from_3d": (DimensionError, r"need \(T,C,H,W\)",
                       lambda root: SpikeTensor.from_dense(np.zeros((2, 4, 4)))),
    "depth_mask_shape": (DimensionError, "must be equal 2-D",
                         lambda root: DepthMap(np.zeros((2, 3)), np.ones((3, 2), bool))),
    "features_2d": (DimensionError, r"need \(D,H,W\)",
                    lambda root: write_features(root / "f.feat", np.zeros((4, 4)))),
    "dataset_depth_size": (DataError, "spike dims 16x16 != depth dims 8x16", _depth_size_differs),
}


@pytest.mark.parametrize("case", list(_BAD_VALUES))
def test_input_guards_raise_package_errors(tmp_path, case):
    error, message, call = _BAD_VALUES[case]
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_write_dataset_requires_teacher(tmp_path):
    def sample(name, teacher):
        return SampleTuple(
            spikes=SpikeTensor.from_dense(np.zeros((1, 2, 8, 8), dtype=np.uint8)),
            depth=depth_map(np.full((8, 8), 0.5)),
            teacher_features=teacher,
            name=name,
        )

    with pytest.raises(DataError):
        write_dataset(tmp_path, [sample("s0", None)])
    # a later sample without features is refused before any file is written
    with pytest.raises(DataError):
        write_dataset(tmp_path, [sample("s0", np.zeros((2, 1, 1), np.float32)), sample("s1", None)])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edit, error", [
    (lambda text: text.replace("count=2", "count=3"), "says count=3 but lists 2 samples"),
    (lambda text: text.replace("count=2", "count=1"), "says count=1 but lists 2 samples"),
    (lambda text: text.replace("count=2", "count=two"), "says count=two but lists 2 samples"),
    (lambda text: "count=2\n" + text, "more than one count= line"),
    (lambda text: text.replace("count=2\n", ""), None),
], ids=["count_too_high", "count_too_low", "count_not_a_number", "count_twice", "no_count"])
def test_manifest_count_must_match_sample_lines(tmp_path, edit, error):
    write_dataset(tmp_path, gen_synthetic(seed=1, n_samples=2, t=2, h=16, w=16, teacher_dim=4))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(edit(manifest.read_text()))
    if error is None:
        assert len(load_dataset(tmp_path, need_teacher=True)) == 2
    else:
        with pytest.raises(DataError, match=error):
            load_dataset(tmp_path, need_teacher=True)


def _assert_every_file_decodes(root):
    readers = {".spkt": read_spikes, ".dpth": read_depth, ".feat": read_features}
    for p in root.iterdir():
        assert p.suffix in readers or p.name == "manifest.txt", p.name  # no temporary file
        if p.suffix in readers:
            readers[p.suffix](p)


def test_full_disk_charges_array_bytes(tmp_path, monkeypatch):
    arr = np.arange(1000, dtype=np.float32).reshape(10, 100)
    with disk_full_after(monkeypatch, 20), open(tmp_path / "a.bin", "wb") as fh:
        with pytest.raises(OSError) as info:
            fh.write(arr)
    assert info.value.errno == errno.ENOSPC
    assert (tmp_path / "a.bin").read_bytes() == arr.tobytes()[:20]


def test_interrupted_first_write_dataset_leaves_no_partial_file(tmp_path, monkeypatch):
    samples = gen_synthetic(seed=1, n_samples=2, t=2, h=16, w=16, teacher_dim=4)
    with disk_full_after(monkeypatch, 40), pytest.raises(OSError, match="No space"):
        write_dataset(tmp_path, samples)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_rewrite_leaves_no_loadable_mix(tmp_path, monkeypatch):
    """A re-run over an existing dataset that stops partway (here after the
    first new .spkt) must not let the old manifest pair new spikes with old
    depth maps."""
    write_dataset(tmp_path, gen_synthetic(seed=1, n_samples=2, t=2, h=16, w=16, teacher_dim=4))
    new = gen_synthetic(seed=2, n_samples=2, t=2, h=16, w=16, teacher_dim=4)
    with disk_full_after(monkeypatch, 200), pytest.raises(OSError, match="No space"):
        write_dataset(tmp_path, new)
    assert read_spikes(tmp_path / "sample_000.spkt").bits == new[0].spikes.bits
    with pytest.raises(DataError, match="no manifest"):
        load_dataset(tmp_path)
    _assert_every_file_decodes(tmp_path)


@pytest.mark.parametrize("field, outside", [
    ("spk", "../outside.spkt"),
    ("depth", "../outside.dpth"),
    ("feat", "../outside.feat"),
    ("spk", "ABSOLUTE"),
    ("spk", "sub/../../outside.spkt"),
    ("spk", "sample_000\0.spkt"),
], ids=["spk_dotdot", "depth_dotdot", "feat_dotdot", "spk_absolute", "spk_inner_dotdot", "spk_nul"])
def test_manifest_paths_must_stay_inside_dataset(tmp_path, field, outside):
    data = tmp_path / "data"
    write_dataset(data, gen_synthetic(seed=1, n_samples=1, t=2, h=16, w=16, teacher_dim=4))
    (data / "sub").mkdir()
    # valid files outside the dataset directory: only the path rule can refuse them
    for ext in ("spkt", "dpth", "feat"):
        (tmp_path / f"outside.{ext}").write_bytes((data / f"sample_000.{ext}").read_bytes())
    if outside == "ABSOLUTE":
        outside = str(tmp_path / "outside.spkt")
    manifest = data / "manifest.txt"
    suffix = {"spk": "spkt", "depth": "dpth", "feat": "feat"}[field]
    manifest.write_text(manifest.read_text().replace(f"{field}=sample_000.{suffix}",
                                                     f"{field}={outside}"))
    with pytest.raises(DataError, match="names no file inside the dataset directory"):
        load_dataset(data, need_teacher=True)


# ---------------------------------------------------------------------------
# hostile bytes: decoders and the manifest parser raise only package errors
# (or OSError, e.g. for a manifest path naming a directory)


def _hostile(data, blob, header_words=0):
    """Draw a corruption of the valid file `blob`: a truncation, 1-4 byte
    flips, random bytes (mostly not UTF-8) or, for a binary format, 1-16
    bytes appended after the payload or a huge value in one of the
    `header_words` u32 words after the magic."""
    kinds = ["truncate", "flip", "random"] + (["append", "huge"] if header_words else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    if kind == "random":
        return data.draw(st.binary(max_size=64), label="bytes")
    if kind == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=16), label="appended")
    out = bytearray(blob)
    if kind == "flip":
        flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, min_size=1, max_size=4), label="flips"):
            out[pos] ^= mask
    else:
        word = data.draw(st.integers(0, header_words - 1), label="word")
        value = data.draw(st.integers(2**16, 2**32 - 1), label="value")
        out[4 + 4 * word:8 + 4 * word] = value.to_bytes(4, "little")
    return bytes(out)


@pytest.fixture(scope="module")
def valid_dataset(tmp_path_factory):
    """A one-sample dataset on disk and its files' bytes; each fuzz example
    overwrites one file."""
    root = tmp_path_factory.mktemp("hostile")
    names = write_dataset(root, gen_synthetic(seed=1, n_samples=1, t=2, h=16, w=16, teacher_dim=4))
    return root, {name: (root / name).read_bytes() for name in names}


_DECODERS = {  # suffix -> (reader, number of u32 header words after the magic)
    "spkt": (read_spikes, 5),
    "dpth": (read_depth, 2),
    "feat": (read_features, 3),
}


@pytest.mark.parametrize("suffix", sorted(_DECODERS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_hostile_tensor_files_raise_only_package_errors(valid_dataset, suffix, data):
    root, valid = valid_dataset
    reader, header_words = _DECODERS[suffix]
    good = valid[f"sample_000.{suffix}"]
    mutated = _hostile(data, good, header_words)
    bad = root / f"mutated.{suffix}"
    bad.write_bytes(mutated)
    if len(mutated) > len(good) and mutated.startswith(good):  # bytes after the payload
        with pytest.raises(FormatError, match="after its payload"):
            reader(bad)
        return
    try:
        reader(bad)
    except (SpikeDepthError, OSError):
        pass


_MANIFEST_LINE = st.one_of(
    st.text(max_size=40),
    st.builds("sample=s spk={} depth={} feat={}".format, *[st.text(max_size=12)] * 3),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_hostile_manifest_raises_only_package_errors(valid_dataset, data):
    root, valid = valid_dataset
    if data.draw(st.booleans(), label="lines"):
        mutated = "\n".join(data.draw(st.lists(_MANIFEST_LINE, max_size=4), label="text")).encode()
    else:
        mutated = _hostile(data, valid["manifest.txt"])
    (root / "manifest.txt").write_bytes(mutated)
    try:
        load_dataset(root, need_teacher=data.draw(st.booleans(), label="teacher"))
    except (SpikeDepthError, OSError):
        pass
