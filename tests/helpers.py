"""Shared test utilities: finite-difference oracles and tiny model builders.

Everything here is deliberately independent of the library's own backward
implementations: gradients are re-derived by central differences, LIF
dynamics by a hand-written scalar simulator, and the conv and batchnorm
kernels by the plain formulas they were optimised from, so the tests act as
oracles rather than mirrors.
"""
from __future__ import annotations

import builtins
import errno
import io
from contextlib import contextmanager, nullcontext

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from spikedepth import autodiff as ad
from spikedepth.dataio import DepthMap, gen_synthetic
from spikedepth.layers import _modules
from spikedepth.losses import DistillConfig, FeatureProjections
from spikedepth.model import DepthModel, ModelConfig
from spikedepth.neuron import LifParams

REL_TOL = 1e-4
WORST_TOL = 1e-3
# stated before the fold was built: float32 predictions of the folded and
# the reference fusion head differ by at most this much (1.3e-6 was measured)
FOLDED_PRED_TOL = 1e-5


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function at a float64 array."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def grad_agreement(analytic, numeric, rel_tol=REL_TOL, abs_floor=1e-8):
    """(fraction of coordinates within rel_tol, worst relative error).

    Coordinates where both magnitudes sit below abs_floor count as agreeing
    (both are numerically zero); elsewhere the error is |a-n|/max(|a|,|n|).
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    if a.size == 0:
        return 1.0, 0.0
    scale = np.maximum(np.abs(a), np.abs(n))
    zero = scale < abs_floor
    rel = np.zeros_like(scale)
    rel[~zero] = np.abs(a[~zero] - n[~zero]) / scale[~zero]
    return float(np.mean((rel <= rel_tol) | zero)), float(rel.max())


def fd_check(fn, arrays, h=1e-5):
    """FD-check `fn(*tensors) -> scalar Tensor` against the tape.

    arrays: float64 ndarrays, one per differentiable input.  Returns a list
    of (analytic_grad, numeric_grad) pairs in input order.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    params = [ad.parameter(a.copy()) for a in arrays]
    with ad.tape() as t:
        loss = fn(*params)
    t.backward(loss)
    analytic = [p.grad.copy() for p in params]

    pairs = []
    for i, a in enumerate(arrays):
        def f(x, i=i):
            args = [ad.tensor(arrays[j] if j != i else x) for j in range(len(arrays))]
            return float(fn(*args).data)

        pairs.append((analytic[i], fd_gradient(f, a, h)))
    return pairs


def assert_fd_match(fn, arrays, h=1e-5, frac=0.95, rel_tol=REL_TOL, worst_tol=WORST_TOL):
    for k, (got, want) in enumerate(fd_check(fn, arrays, h)):
        ok, worst = grad_agreement(got, want, rel_tol)
        assert ok >= frac, f"input {k}: only {ok:.1%} of coords within {rel_tol}"
        assert worst <= worst_tol, f"input {k}: worst relative error {worst:.2e}"


def rowmajor_corr2d(x, w, pad):
    """Reference stride-1 correlation with the row-major im2col layout that
    `ad.conv2d` used before its channel-major core: cols [B*Ho*Wo, Ci*k*k],
    out = cols @ w2dᵀ.  x [B,Ci,H,W], w [Co,Ci,k,k] -> ([B,Co,Ho,Wo], cols)."""
    B, Ci, H, W = x.shape
    Co, _, k, _ = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (k, k), axis=(2, 3))
    Ho, Wo = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(B * Ho * Wo, Ci * k * k)
    out = cols @ w.reshape(Co, -1).T
    return np.ascontiguousarray(out.reshape(B, Ho, Wo, Co).transpose(0, 3, 1, 2)), cols


def rowmajor_conv2d(x, w, b, g, pad):
    """Reference forward and backward of the row-major conv2d for x
    [B,Ci,H,W] and upstream gradient g [B,Co,Ho,Wo] -> (out, gx, gw, gb); gb
    is None without b."""
    Co, _, k, _ = w.shape
    out, cols = rowmajor_corr2d(x, w, pad)
    if b is not None:
        out += b[None, :, None, None]
    gmat = g.transpose(0, 2, 3, 1).reshape(-1, Co)
    gw = (gmat.T @ cols).reshape(w.shape)
    gb = gmat.sum(0) if b is not None else None
    wf = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    gx, _ = rowmajor_corr2d(g, wf, k - 1 - pad)
    return out, gx, gw, gb


def batchnorm_reference(x, gamma, beta, g, running=None, eps=1e-5):
    """Reference batchnorm over 4-D x with the plain (allocating) formulas:
    batch statistics when `running` is None, else eval mode with the
    (mean, var) pair -> (out, gx, ggamma, gbeta)."""
    axes = (0, 2, 3)
    mu, var = (x.mean(axis=axes), x.var(axis=axes)) if running is None else running
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    gs = gamma[None, :, None, None] * inv_std[None, :, None, None]
    if running is None:
        gm = g.mean(axis=axes)[None, :, None, None]
        gxh = (g * xhat).mean(axis=axes)[None, :, None, None]
        gx = gs * (g - gm - xhat * gxh)
    else:
        gx = gs * g
    return out, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


def scalar_lif_reference(inputs, p: LifParams):
    """Independent step-by-step simulator of the Euler-discretised neuron.

    inputs: [T] floats for one neuron.  Returns (spikes[T], v_pre[T]) where
    v_pre is the membrane after integration, before any reset.
    """
    v = 0.0
    spikes, v_pre = [], []
    for cur in inputs:
        v = v + (cur - v) / p.tau
        v_pre.append(v)
        if v >= p.v_threshold:
            spikes.append(1.0)
            v = p.v_reset
        else:
            spikes.append(0.0)
    return np.array(spikes), np.array(v_pre)


def scalar_lif_backward_reference(inputs, upstream, p: LifParams):
    """Chain rule applied step by step over the recorded scalar trace.

    Forward relations per step (detached hard reset):
      v_pre[t]  = v_post[t-1] * (1 - 1/tau) + I[t] / tau
      spike[t]  = H(v_pre[t] - theta)         (surrogate derivative)
      v_post[t] = v_pre[t] if no spike else v_reset (constant, detached)
    """
    spikes, v_pre = scalar_lif_reference(inputs, p)
    T = len(inputs)
    alpha = p.surrogate_alpha
    decay = 1.0 - 1.0 / p.tau
    g_in = np.zeros(T)
    g_vpost = 0.0
    for t in range(T - 1, -1, -1):
        x = v_pre[t] - p.v_threshold
        sur = (alpha / 2.0) / (1.0 + (np.pi * alpha / 2.0 * x) ** 2)
        g_vpre = upstream[t] * sur + (g_vpost if spikes[t] == 0.0 else 0.0)
        g_in[t] = g_vpre / p.tau
        g_vpost = g_vpre * decay
    return g_in


def lif_backward_reference(v_pre, upstream, p: LifParams):
    """`neuron.lif_backward` as first written, with fresh arrays for every
    intermediate: the reverse recurrence through the recorded [T, ...]
    pre-reset membranes, whose bits the in-place kernel must keep."""
    decay = 1.0 - 1.0 / p.tau
    gx = np.empty_like(v_pre)
    g_vpost = np.zeros(v_pre.shape[1:], dtype=v_pre.dtype)
    for t in range(v_pre.shape[0] - 1, -1, -1):
        fired = v_pre[t] >= p.v_threshold
        z = (np.pi * p.surrogate_alpha / 2.0) * (v_pre[t] - p.v_threshold)
        g_vpre = upstream[t] * ((p.surrogate_alpha / 2.0) / (1.0 + z * z))
        g_vpre = g_vpre + g_vpost * (~fired)
        gx[t] = g_vpre / p.tau
        g_vpost = g_vpre * decay
    return gx


def maxpool_backward_reference(x, out, g, k):
    """`maxpool2d`'s backward as first written: each of the k*k strided
    views in row-major window order takes g where it equals the pooled max
    and no earlier view took it, through a mask and `np.where`."""
    gx = np.zeros_like(x)
    taken = np.zeros(out.shape, dtype=bool)
    for i in range(k):
        for j in range(k):
            hit = x[..., i::k, j::k] == out
            hit &= ~taken
            taken |= hit
            gx[..., i::k, j::k] = np.where(hit, g, 0)
    return gx


def two_matmul_attention(q, k, v, s):
    """The spiking attention product as the op graph `transpose -> matmul
    -> matmul -> scale`, (Q K^T) V * s, which keeps Q K^T on a gradient
    tape: the oracle whose output and gradient bits the fused
    `spike_attention` entry must give."""
    with ad.scope("qk"):
        attn = ad.matmul(q, ad.transpose(k, (0, 2, 1)))
    with ad.scope("av"):
        out = ad.matmul(attn, v)
    return ad.scale(out, s)


@contextmanager
def inspection_tape():
    """An inspection tape whose consumer appends each entry, in recording
    order, to the list it yields."""
    entries = []
    with ad.tape(consumer=entries.append):
        yield entries


@contextmanager
def gradient_tape():
    """A gradient tape, yielding its list of entries."""
    with ad.tape() as t:
        yield t.entries


# no tape, an inspection tape and a gradient tape, each yielding the entries
# it records (None with no tape): a forward that needs no gradient runs the
# first two on its fused paths, the third on the reference graph
TAPE_MODES = {"none": nullcontext, "inspect": inspection_tape, "grad": gradient_tape}


def tiny_model_cfg(**overrides) -> ModelConfig:
    """Small-but-complete config: full fusion head, 4 blocks, ~4.7k params."""
    kw = dict(t=2, c=2, h=16, w=16, d=8, l=4, mlp_ratio=2)
    kw.update(overrides)
    return ModelConfig(**kw)


def cast(module, dtype):
    """`module` with every parameter and buffer of its tree (BN running
    statistics included) cast to `dtype` in place: the model is float32 by
    construction, and float64 gradient checks run on such a cast of it."""
    for attr, value in list(vars(module).items()):
        if isinstance(value, ad.Tensor) and value.is_param:
            value.data = value.data.astype(dtype, copy=False)
        elif isinstance(value, np.ndarray):
            setattr(module, attr, value.astype(dtype, copy=False))
        for child in _modules(value):
            cast(child, dtype)
    return module


def tensor_dtypes(*modules) -> set:
    """The dtypes of every parameter and buffer of the modules' trees."""
    return {arr.dtype for m in modules
            for arr in [p.data for _, p in m.named_params()] + [b for _, b in m.named_buffers()]}


def tiny_model(seed=0, dtype=np.float32, **overrides) -> DepthModel:
    return cast(DepthModel(tiny_model_cfg(**overrides), np.random.default_rng(seed)), dtype)


def tiny_distill_cfg(**overrides) -> DistillConfig:
    kw = dict(teacher_dim=4, matched_blocks=(4,))
    kw.update(overrides)
    return DistillConfig(**kw)


def tiny_projections(cfg: DistillConfig, student_dim=8, seed=0, dtype=np.float32):
    return cast(FeatureProjections(cfg, student_dim, np.random.default_rng(seed)), dtype)


def tiny_dataset(seed=0, n=2, t=2, h=16, w=16, teacher_dim=4):
    return gen_synthetic(seed=seed, n_samples=n, t=t, h=h, w=w, teacher_dim=teacher_dim)


def random_spikes(rng, t=2, c=2, h=16, w=16, p=0.3, dtype=np.float32):
    return (rng.random((t, c, h, w)) < p).astype(dtype)


def poison_payload(blob: bytes, name: str, value=np.nan) -> bytes:
    """A copy of SDTW checkpoint bytes whose tensor `name` has `value` as its
    first payload element (written by hand: save_checkpoint refuses it)."""
    key = name.encode()
    start = blob.index(len(key).to_bytes(4, "little") + key) + 4 + len(key)
    ndim = int.from_bytes(blob[start:start + 4], "little")
    first = start + 4 + 4 * ndim
    return blob[:first] + np.float32(value).astype("<f4").tobytes() + blob[first + 4:]


def snapshot_buffers(module):
    # buffers are plain ndarrays (BN running statistics)
    return {name: buf.copy() for name, buf in module.named_buffers()}


def restore_buffers(module, snap):
    for name, buf in module.named_buffers():
        buf[...] = snap[name]


def depth_map(values, mask=None) -> DepthMap:
    values = np.asarray(values, dtype=np.float32)
    if mask is None:
        mask = np.ones_like(values, dtype=bool)
    return DepthMap(values, np.asarray(mask, dtype=bool))


class _FullDisk:
    """A file that takes `budget` more bytes (or characters), then fails.
    Bytes-like data, numpy arrays included, is charged by its byte count."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if not isinstance(data, str):
            data = memoryview(data).cast("B")
        if len(data) > self.budget:
            self.fh.write(data[:self.budget])
            self.budget = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@contextmanager
def disk_full_after(monkeypatch, budget):
    """Inside the block every file opened for writing fails with ENOSPC once
    `budget` bytes have gone into it, as on a full disk."""
    real_open = builtins.open

    def fake_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh, budget) if "w" in mode else fh

    with monkeypatch.context() as m:
        m.setattr(builtins, "open", fake_open)
        m.setattr(io, "open", fake_open)
        yield
