"""Binary model checkpoints.

Layout (all integers little-endian uint32):

    magic   b"SDTW"
    header  version 1, config length (the `write_framed` frame)
    config  UTF-8 flat key=value text
    count   number of tensors
    tensor  name length, name bytes, ndim, dims..., float32 payload

Tensors cover trainable parameters and batch-norm running statistics of
the depth model, plus distillation projection weights when present.  Every
payload value is finite: NaN or inf is refused on save and on read.  The
last tensor ends the file; a byte after it is refused on read.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .dataio import _read_exact, open_framed, utf8, write_framed
from .errors import FormatError, NumericError
from .losses import FeatureProjections
from .model import DepthModel

SDTW_MAGIC = b"SDTW"
SDTW_VERSION = 1


def _named_tensors(model, projections=None):
    params, buffers = model.named_tensors()
    for name, p in params:
        yield name, p.data
    yield from buffers
    if projections is not None:
        for name, p in projections.named_params():
            yield name, p.data


def save_checkpoint(path, model, projections=None, distill=None) -> None:
    """Write the model (and projections) to `path` atomically, making its
    directory if needed: a failed write leaves any old file at `path`
    untouched.  Raises NumericError, before any directory or file is made,
    if a tensor holds NaN or inf."""
    text = cfgmod.encode_model_config(model.cfg, distill)
    items = list(_named_tensors(model, projections))
    bad = [name for name, arr in items if not np.isfinite(arr).all()]
    if bad:
        raise NumericError(f"refusing to save non-finite tensors: {', '.join(bad)}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    blob = text.encode("utf-8")
    chunks = [blob, struct.pack("<I", len(items))]
    for name, arr in items:
        nb, arr = name.encode("utf-8"), np.asarray(arr)
        chunks += [struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape),
                   np.ascontiguousarray(arr, dtype="<f4")]
    write_framed(path, SDTW_MAGIC, (SDTW_VERSION, len(blob)), chunks)


def read_checkpoint(path):
    """→ (model config, distill config or None, {name: float32 array}).

    Raises FormatError on a bad magic or version, a short or over-long file
    (`open_framed` refuses any byte after the last tensor), text that is
    not UTF-8, a duplicate name or a non-finite value."""
    with open_framed(path, SDTW_MAGIC, 2, "checkpoint") as ((version, clen), fh):
        if version != SDTW_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        text = utf8(_read_exact(fh, clen, "config text"), "checkpoint config text", FormatError)
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", _read_exact(fh, 4, "tensor name length"))
            name = utf8(_read_exact(fh, nlen, "tensor name"), "checkpoint tensor name", FormatError)
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "tensor rank"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "tensor shape"))
            n = math.prod(shape)  # exact: a corrupt shape must not wrap around int64
            payload = _read_exact(fh, 4 * n, "tensor data")
            try:
                data = np.frombuffer(payload, dtype="<f4").reshape(shape)
            except ValueError as exc:  # numpy rejects e.g. >64 dims or huge zero-size shapes
                raise FormatError(f"checkpoint tensor {name!r}: unusable shape {shape}") from exc
            if name in tensors:
                raise FormatError(f"duplicate tensor {name!r} in checkpoint")
            if not np.isfinite(data).all():
                raise FormatError(f"checkpoint tensor {name!r} holds non-finite values")
            tensors[name] = data.astype(np.float32)
    model_cfg, distill = cfgmod.decode_model_config(text)
    return model_cfg, distill, tensors


def load_model(path):
    """Rebuild a model (and projections, if saved) from a checkpoint.

    The model is built with `rng=None` (zero weights, no random draws; see
    `layers.kaiming_uniform`), and every tensor is then overwritten from
    the file: a checkpoint that lacks any tensor is refused, so no zero
    weight survives a load.
    """
    model_cfg, distill, tensors = read_checkpoint(path)
    model = DepthModel(model_cfg, None)
    projections = None
    if distill is not None and any(k.startswith("kd.") for k in tensors):
        projections = FeatureProjections(distill, model_cfg.d, None)
    slots = dict(_named_tensors(model, projections))
    missing = sorted(set(slots) - set(tensors))
    extra = sorted(set(tensors) - set(slots))
    if missing or extra:
        raise FormatError(f"checkpoint tensor mismatch: missing={missing} extra={extra}")
    for name, arr in slots.items():
        loaded = tensors[name]
        if loaded.shape != arr.shape:
            raise FormatError(
                f"checkpoint tensor {name!r}: shape {loaded.shape} != expected {arr.shape}"
            )
        arr[...] = loaded
    return model, projections, distill
