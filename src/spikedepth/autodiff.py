"""Reverse-mode autodiff over dense numpy tensors.

The op set is exactly what the spiking depth network needs: stride-1 conv and
batchnorm over [B,C,H,W] (fused into one `conv_bn` op for every eval forward,
under any tape or none; the model's attention product is one fused
`spike_attention` op except in an eval forward on a gradient tape, the one
forward that runs its two-matmul graph, and the fusion-head tail folds only
in an eval forward that needs no gradient), k x k max pooling
and bilinear upsampling for the layers, batched matmul for attention, and
elementwise arithmetic plus reductions for the losses.  Ops execute eagerly
on numpy arrays and, when a tape is active, record an entry holding the
backward closure (None when the output needs no gradient, as on an
inspection tape).  A tape's kind is
whether it has a consumer: a gradient tape has none and appends each entry to
its list; an inspection tape hands each entry to its consumer as it is
recorded and keeps none, so a streamed forward holds no more than an untaped
one.  Scopes live on one stack, taped or not: those opened since a tape
opened name its entries, and every open one names a failure.  `Tape.backward`
replays a gradient tape's entries in reverse (the recording order is already
topological) and accumulates gradients into every parameter: parameters are
the only gradient leaves, and every other tensor that needs a gradient is an
op output.  The replay empties the tape and releases each entry as it goes,
so a training step's memory falls through its backward as each layer's
activations are freed.

A gradient tape keeps its entries' tensors and no copy derived from them:
a backward rebuilds what it reads (conv2d its im2col cols, batchnorm its
xhat, conv_bn its conv output, maxpool2d its column maxima, `neuron.mlif`
its pre-reset membranes by rerunning the recurrence, the model's
`spike_attention` its N x N matrix Q K^T) from its entry's inputs and
per-channel vectors.

The model is float32 by construction; float64 gradient checks cast a built
model.  Ops keep the dtype of their inputs and never broadcast beyond the
documented cases: shape mismatches raise DimensionError, never promote.
"""
from __future__ import annotations

import functools
import math
import operator
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, NumericError, StaleTapeError


def _guard(op, arr):
    if not np.isfinite(arr).all():
        raise NumericError(f"{op}: non-finite values in result{failure_site()}")


class Tensor:
    """A dense array plus gradient bookkeeping.

    `grad` is populated by `Tape.backward` for every parameter (made by
    `parameter`); `is_param` also lets audits tell parameters from
    activations.
    """

    __slots__ = ("data", "requires_grad", "grad", "is_param")

    def __init__(self, data, requires_grad=False):
        self.data = data
        self.requires_grad = requires_grad
        self.grad = None
        self.is_param = False

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def tensor(data) -> Tensor:
    """Wrap `data` as a constant Tensor; non-float input becomes float32."""
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return Tensor(arr)


def parameter(data) -> Tensor:
    """Wrap `data` as a trainable weight: a gradient leaf."""
    t = tensor(data)
    t.requires_grad = t.is_param = True
    return t


class TapeEntry:
    __slots__ = ("op", "scope", "inputs", "output", "bwd")

    def __init__(self, op, scope, inputs, output, bwd):
        self.op = op
        self.scope = scope
        self.inputs = inputs
        self.output = output
        self.bwd = bwd


class Tape:
    """Ordered record of executed ops; reverse replay computes gradients.

    With no `consumer` it is a gradient tape: it appends each entry to
    `entries`, which `backward` replays.  With a consumer it is an
    inspection tape: no op output needs a gradient, every `bwd` is None, no
    op keeps state for a backward pass, and each entry goes to
    `consumer(entry)` in recording order, so `entries` stays empty and an
    entry, with every array only it references, is freed as the forward
    moves on.  The scopes open around it (e.g. "train step 3") name no
    entry of it, only its run in a failure message (see `failure_site`).
    """

    def __init__(self, consumer=None):
        self.consumer = consumer
        self.entries: list[TapeEntry] = []
        # `_op` records through this one call; `backward` empties `entries`
        # in place, so it stays the list this appends to
        self.record = self.entries.append if consumer is None else consumer
        self._depth = len(_SCOPES)

    @property
    def scope(self) -> str:
        """The scopes opened since the tape opened, joined with '.': the
        ones open around it are not its own."""
        return ".".join(_SCOPES[self._depth:])

    def backward(self, loss: Tensor) -> None:
        """Accumulate dLoss/dP into P.grad for every parameter P.

        The replay empties the tape and releases each entry as it goes: an
        entry's inputs, output and backward closure are freed once its
        gradients are out, so the activations shrink as the gradients grow.
        Calling backward again without a new forward finds the tape empty
        and raises StaleTapeError, as does an inspection tape.
        """
        if self.consumer is not None:
            raise StaleTapeError("an inspection tape records no gradients")
        if not self.entries:
            raise StaleTapeError("tape is empty or already consumed; run a new forward pass")
        if loss.data.size != 1:
            raise DimensionError(f"backward expects a scalar loss, got shape {loss.data.shape}")

        entries = self.entries.copy()
        self.entries.clear()
        grads = {id(loss): np.ones_like(loss.data)}
        while entries:
            entry = entries.pop()  # freed when the next pop rebinds `entry`
            g = grads.pop(id(entry.output), None)
            if g is not None and entry.bwd is not None:
                _accumulate(grads, entry.inputs, entry.bwd(g))


def _accumulate(grads, inputs, in_grads):
    """Add each input's gradient into its parameter's `grad`, or into
    `grads` under the input's id: a function of its own, so that no loop
    variable holds a replayed entry's gradients into the next replay.  An
    id stays unique while its tensor's producing entry is unreplayed: that
    entry holds the tensor, and a backward makes no tensors."""
    for t, gi in zip(inputs, in_grads):
        if t is None or gi is None or not t.requires_grad:
            continue
        if t.is_param:
            t.grad = gi if t.grad is None else t.grad + gi
        else:
            key = id(t)
            prev = grads.get(key)
            grads[key] = gi if prev is None else prev + gi


_STACK: list[Tape] = []
# the open scopes, outermost first, whether or not a tape is active
_SCOPES: list[str] = []


def active_tape():
    return _STACK[-1] if _STACK else None


def failure_site() -> str:
    """Where a failure happened, as a suffix for its message: the open scopes
    split where the active tape opened (at 0 with no tape), each part joined
    with '.', the parts with ", ", e.g. " (train step 1, block1.attn)"."""
    depth = _STACK[-1]._depth if _STACK else 0
    parts = [".".join(s) for s in (_SCOPES[:depth], _SCOPES[depth:]) if s]
    return f" ({', '.join(parts)})" if parts else ""


@contextmanager
def tape(consumer=None):
    t = Tape(consumer)
    _STACK.append(t)
    try:
        yield t
    finally:
        _STACK.pop()


@contextmanager
def scope(name: str):
    """Label ops recorded inside the block (nested scopes join with '.'),
    on the one scope stack: it names the entries of a tape opened outside
    it, and a failure inside it with or without a tape."""
    _SCOPES.append(name)
    try:
        yield
    finally:
        _SCOPES.pop()


def _needs(*tensors):
    """Whether an op's output needs a gradient, so that the op keeps a
    backward: only under a gradient tape."""
    tp = active_tape()
    if tp is None or tp.consumer is not None:
        return False
    return any(t is not None and t.requires_grad for t in tensors)


def _op(op, inputs, data, bwd) -> Tensor:
    """The output Tensor of `op` over `inputs` (None for an absent optional
    input), holding `data`; on an active tape, also its entry, which keeps
    `bwd` only when the output needs a gradient and goes to the tape's
    `record`: onto its list, or to its consumer."""
    out = Tensor(data, requires_grad=_needs(*inputs))
    t = active_tape()
    if t is not None:
        t.record(TapeEntry(op, t.scope, inputs, out, bwd if out.requires_grad else None))
    return out


# ---------------------------------------------------------------------------
# elementwise ops


def _same_shape(op, a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a, b)
    out = a.data + b.data
    _guard("add", out)

    def bwd(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return _op("add", (a, b), out, bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("sub", a, b)
    out = a.data - b.data
    _guard("sub", out)

    def bwd(g):
        return (g if a.requires_grad else None, -g if b.requires_grad else None)

    return _op("sub", (a, b), out, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("mul", a, b)
    ad, bd = a.data, b.data
    out = ad * bd
    _guard("mul", out)

    def bwd(g):
        return (g * bd if a.requires_grad else None, g * ad if b.requires_grad else None)

    return _op("mul", (a, b), out, bwd)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = x.data * s
    _guard("scale", out)

    def bwd(g):
        return (g * s,)

    return _op("scale", (x,), out, bwd)


def clamp(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes inside the interval (inclusive)."""
    xd = x.data

    def bwd(g):
        mask = (xd >= lo) & (xd <= hi)
        return (g * mask,)

    return _op("clamp", (x,), np.clip(xd, lo, hi), bwd)


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    out_data = np.empty_like(xd)
    pos = xd >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def bwd(g):
        return (g * out_data * (1.0 - out_data),)

    return _op("sigmoid", (x,), out_data, bwd)


def log(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0):
        raise NumericError("log: non-positive input")
    out = np.log(xd)
    _guard("log", out)

    def bwd(g):
        return (g / xd,)

    return _op("log", (x,), out, bwd)


# ---------------------------------------------------------------------------
# shape ops


def reshape(x: Tensor, shape) -> Tensor:
    orig = x.data.shape

    def bwd(g):
        return (g.reshape(orig),)

    return _op("reshape", (x,), x.data.reshape(shape), bwd)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    if len(axes) != x.data.ndim:
        raise DimensionError(f"transpose: axes {axes} do not match ndim {x.data.ndim}")
    inv = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inv),)

    return _op("transpose", (x,), np.ascontiguousarray(x.data.transpose(axes)), bwd)


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    """Sum over everything (axis=None -> scalar), or over one axis, which
    stays with size 1."""
    xd = x.data
    out = xd.sum(axis=axis, keepdims=axis is not None)
    _guard("reduce_sum", out)

    def bwd(g):
        return (np.broadcast_to(g, xd.shape).astype(xd.dtype, copy=True),)

    return _op("reduce_sum", (x,), out, bwd)


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [..., m, k] @ [..., k, n]; batch dims must match."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError("matmul: operands must be at least 2-D")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(f"matmul: inner dims differ {ad.shape} vs {bd.shape}")
    if ad.shape[:-2] != bd.shape[:-2]:
        raise DimensionError(f"matmul: batch dims differ {ad.shape} vs {bd.shape}")
    out = ad @ bd
    _guard("matmul", out)

    def bwd(g):
        ga = g @ bd.swapaxes(-1, -2) if a.requires_grad else None
        gb = ad.swapaxes(-1, -2) @ g if b.requires_grad else None
        return (ga, gb)

    return _op("matmul", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# convolution


# im2col bytes of one row panel: half of a 2 MiB L2, so a panel stays cached
# between its copy and its GEMM; 256 and 512 KiB were no faster at 256x320
PANEL_BYTES = 1024 * 1024
# OpenBLAS may hand a GEMM of at most this many MACs to a small-matrix kernel
# whose bits differ from the large kernel's, so no panel GEMM is that small
# unless a whole image is
_SMALL_GEMM_MACS = 100 ** 3


def _windows(x, k, pad):
    """The k x k window view [B,Ci,Ho,Wo,k,k] of x [B,Ci,H,W] zero-padded
    by `pad` on each side of its last two axes."""
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    return sliding_window_view(x, (k, k), axis=(2, 3))


def _corr2d(x, w, pad):
    """Raw stride-1 correlation core: x [B,Ci,H,W], w [Co,Ci,k,k] ->
    [B,Co,H+2*pad-k+1,W+2*pad-k+1].

    Channel-major im2col (Chellapilla et al., IWFHR 2006) in row panels (Cho
    & Brand, MEC, arXiv 1706.06873): for each image and block of output rows
    the panel's [Ci*k*k, rows*Wo] cols is one GEMM with w[Co, Ci*k*k],
    written straight into those rows of the output.  A 1x1 unpadded conv
    needs no window view: it is a batched matmul over x itself.
    """
    B, Ci, H, W = x.shape
    Co, _, k, _ = w.shape
    w2d = w.reshape(Co, -1)
    if k == 1 and not pad:
        return np.matmul(w2d, x.reshape(B, Ci, H * W)).reshape(B, Co, H, W)
    win = _windows(x, k, pad)
    Ho, Wo = win.shape[2], win.shape[3]
    K = Ci * k * k
    out = np.empty((B, Co, Ho, Wo), dtype=np.result_type(x, w))
    rows = max(PANEL_BYTES // (K * Wo * x.itemsize), _SMALL_GEMM_MACS // (Co * K * Wo) + 1)
    n_panels = max(1, Ho // rows)  # the remainder rows spread over the panels
    bounds = [Ho * i // n_panels for i in range(n_panels + 1)]
    buf = np.empty(K * (Ho // n_panels + 1) * Wo, dtype=x.dtype)
    for b in range(B):
        for r0, r1 in zip(bounds, bounds[1:]):
            panel = buf[:K * (r1 - r0) * Wo].reshape(K, -1)
            np.copyto(panel.reshape(Ci, k, k, r1 - r0, Wo), win[b, :, r0:r1].transpose(0, 3, 4, 1, 2))
            np.matmul(w2d, panel, out=out[b].reshape(Co, -1)[:, r0 * Wo:r1 * Wo])
    return out


def _check_conv(op, xd, wd, pad):
    """Raise DimensionError unless x [B,Cin,H,W] and a square kernel
    [Cout,Cin,k,k] make a stride-1 conv with 0 <= pad < k."""
    if xd.ndim != 4:
        raise DimensionError(f"{op}: input must be [B,Cin,H,W], got {xd.shape}")
    if wd.ndim != 4 or wd.shape[2] != wd.shape[3]:
        raise DimensionError(f"{op}: kernel must be [Cout,Cin,k,k] square, got {wd.shape}")
    if wd.shape[1] != xd.shape[1]:
        raise DimensionError(f"{op}: channel mismatch input {xd.shape[1]} vs kernel {wd.shape[1]}")
    k = wd.shape[2]
    if not 0 <= pad < k:
        raise DimensionError(f"{op}: pad {pad} outside [0, {k})")
    if xd.shape[2] + 2 * pad < k or xd.shape[3] + 2 * pad < k:
        raise DimensionError(f"{op}: kernel larger than padded input")


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, pad: int = 0) -> Tensor:
    """Stride-1 2-D correlation with optional bias.

    x: [B,Cin,H,W]; w: [Cout,Cin,k,k] (square kernel); b: [Cout];
    0 <= pad < k.  pad=(k-1)//2 preserves the spatial size for odd k.
    """
    xd, wd = x.data, w.data
    _check_conv("conv2d", xd, wd, pad)
    Co = wd.shape[0]
    out_data = _corr2d(xd, wd, pad)
    if b is not None:
        if b.data.shape != (Co,):
            raise DimensionError(f"conv2d: bias shape {b.data.shape} != ({Co},)")
        out_data += b.data[None, :, None, None]
    _guard("conv2d", out_data)

    def bwd(g):
        gb = None
        if b is not None and b.requires_grad:
            gb = g.transpose(0, 2, 3, 1).reshape(-1, Co).sum(0)
        return (*_conv_backward(g, x, w, pad), gb)

    return _op("conv2d", (x, w, b), out_data, bwd)


def _conv_backward(g, x, w, pad):
    """(gx, gw) of a stride-1 correlation of x by w with `pad` for the
    upstream gradient g of its output, each None unless its tensor needs a
    gradient; `conv2d` and `conv_bn` both run it."""
    xd, wd = x.data, w.data
    Co, Ci, k, _ = wd.shape
    gx = gw = None
    if w.requires_grad:
        # one GEMM over K = B*Ho*Wo with the whole cols, rebuilt from x
        cols = _windows(xd, k, pad).transpose(1, 4, 5, 0, 2, 3).reshape(Ci * k * k, -1)
        gw = (g.transpose(1, 0, 2, 3).reshape(Co, -1) @ cols.T).reshape(wd.shape)
    if x.requires_grad:
        # full correlation with the flipped, channel-swapped kernel; at
        # stride 1 with pad k-1-pad it is exactly [B,Ci,H,W]
        wf = wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        gx = _corr2d(g, np.ascontiguousarray(wf), k - 1 - pad)
    return gx, gw


# ---------------------------------------------------------------------------
# batch normalisation


BN_MOMENTUM = 0.1
BN_EPS = 1e-5

_C = (None, slice(None), None, None)  # a per-channel vector against [B,C,H,W]


def _check_affine(op, c, gamma, beta):
    if c == 0:
        raise DimensionError(f"{op}: zero-size channel axis")
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise DimensionError(f"{op}: affine params must have shape ({c},)")


def _standardise(x, mean, inv_std, out=None):
    """xhat = (x - mean) * inv_std over [B,C,H,W], into `out` when given."""
    xhat = np.subtract(x, mean[_C], out=out)
    xhat *= inv_std[_C]
    return xhat


def _normalise(x, mean, var, gamma, beta, in_place=False):
    """Batch norm's float op sequence over x [B,C,H,W] with per-channel
    mean, var, gamma and beta arrays: inv_std = 1 / sqrt(var + BN_EPS) in
    var's dtype, `_standardise`, then gamma * xhat + beta.

    xhat is written into x itself with `in_place` (when x - mean keeps x's
    dtype, so the bits are those of a fresh array), else into a new array;
    the output is written into xhat's buffer unless a gamma of another
    dtype needs a new one.  Returns (output, inv_std).
    """
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    in_place = in_place and np.result_type(x, mean) == x.dtype
    xhat = _standardise(x, mean, inv_std, out=x if in_place else None)
    out = np.multiply(gamma[_C], xhat, out=xhat if gamma.dtype == xhat.dtype else None)
    out += beta[_C]
    return out, inv_std


def _mean_of_sum(total, n):
    """`total / n` with the bits of the `np.mean` whose sum is `total`:
    numpy divides that sum by an intp count, into an array of the sum's
    dtype.  Under numpy 2 a float32 sum then divides in float64, which a
    Python-int divisor matches only while n is exact in float32 (n <= 2**24)."""
    return np.true_divide(total, np.intp(n), out=np.empty_like(total), casting="unsafe")


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean=None, running_var=None,
              training: bool = True) -> Tensor:
    """Per-channel normalisation of x [B,C,H,W] over the B, H and W axes.

    Training mode normalises with batch statistics and, when running buffers
    are passed, updates them in place with momentum `BN_MOMENTUM` (unbiased
    variance, matching the usual convention).  Eval mode requires running
    buffers.
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"batchnorm: input must be [B,C,H,W], got {xd.shape}")
    _check_affine("batchnorm", xd.shape[1], gamma, beta)

    axes = (0, 2, 3)
    n = xd.shape[0] * xd.shape[2] * xd.shape[3]
    if training:
        mu = xd.mean(axis=axes)
        var = xd.var(axis=axes)
        if running_mean is not None and running_var is not None:
            unbiased = var * (n / (n - 1)) if n > 1 else var
            running_mean *= 1.0 - BN_MOMENTUM
            running_mean += BN_MOMENTUM * mu
            running_var *= 1.0 - BN_MOMENTUM
            running_var += BN_MOMENTUM * unbiased
    else:
        if running_mean is None or running_var is None:
            raise DimensionError("batchnorm: eval mode needs running statistics")
        mu = running_mean
        var = running_var

    out_data, inv_std = _normalise(xd, mu, var, gamma.data, beta.data)
    _guard("batchnorm", out_data)

    def bwd(g):
        # the forward wrote its output over xhat: rebuild xhat from x
        xhat = _standardise(xd, mu, inv_std)
        gxhat = g * xhat
        # the training gx needs both sums even for a constant gamma or beta
        ggamma = gxhat.sum(axis=axes)
        gbeta = g.sum(axis=axes)
        gx = None
        if x.requires_grad:
            gs = gamma.data[_C] * inv_std[_C]
            if training:
                # gs * (g - mean(g) - xhat * mean(g * xhat)), built in place
                # in the buffers of g * xhat and then of xhat, with each mean
                # its sum above divided as np.mean divides
                xhat_m = np.multiply(xhat, _mean_of_sum(ggamma, n)[_C], out=gxhat)
                gx = np.subtract(g, _mean_of_sum(gbeta, n)[_C],
                                 out=xhat if xhat.dtype == g.dtype else None)
                gx -= xhat_m
                gx *= gs
            else:
                gx = gs * g
        return (gx, ggamma if gamma.requires_grad else None,
                gbeta if beta.requires_grad else None)

    return _op("batchnorm", (x, gamma, beta), out_data, bwd)


def conv_bn(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor, running_mean, running_var,
            pad: int = 0) -> Tensor:
    """Eval-mode `batchnorm(conv2d(x, w, pad=pad), gamma, beta, running_mean,
    running_var, training=False)` as one op with the same bits, forward and
    backward: the batch norm runs in place on the conv's fresh output,
    through batchnorm's own `_normalise`, so no conv output outlives the op.

    It keeps conv2d's shape checks, checks the result once for non-finite
    values and records one `conv_bn` entry over (x, w, gamma, beta), which
    `energy.price` prices as its conv.  Its backward runs the reference
    graph's ops in their order: batchnorm's eval backward (xhat, the sum of
    g * xhat, the sum of g, gamma * inv_std * g), which rebuilds the conv
    output from x only when gamma needs a gradient, then conv2d's
    (`_conv_backward`).
    """
    xd, wd = x.data, w.data
    _check_conv("conv_bn", xd, wd, pad)
    _check_affine("conv_bn", wd.shape[0], gamma, beta)
    y = _corr2d(xd, wd, pad)
    out_data, inv_std = _normalise(y, running_mean, running_var, gamma.data, beta.data, in_place=True)
    _guard("conv_bn", out_data)

    def bwd(g):
        ggamma = gbeta = gx = gw = None
        axes = (0, 2, 3)
        if gamma.requires_grad:
            # the forward wrote its output over the conv's: rebuild it from
            # x, then xhat from it
            ggamma = (g * _standardise(_corr2d(xd, wd, pad), running_mean, inv_std)).sum(axis=axes)
        if beta.requires_grad:
            gbeta = g.sum(axis=axes)
        if x.requires_grad or w.requires_grad:
            gx, gw = _conv_backward(gamma.data[_C] * inv_std[_C] * g, x, w, pad)
        return (gx, gw, ggamma, gbeta)

    return _op("conv_bn", (x, w, gamma, beta), out_data, bwd)


# ---------------------------------------------------------------------------
# pooling


def _size(op, name, n) -> int:
    """n as an int, or DimensionError unless it is an integer >= 1."""
    try:
        size = operator.index(n)
    except TypeError:
        size = 0
    if size < 1:
        raise DimensionError(f"{op}: {name} must be an integer >= 1, got {n!r}")
    return size


def _running_max(views) -> np.ndarray:
    """np.maximum over `views` left to right, into one fresh array."""
    out = np.maximum(views[0], views[1]) if len(views) > 1 else views[0].copy()
    for v in views[2:]:
        np.maximum(out, v, out=out)
    return out


def _route(g, views, best, outs):
    """Write g into the first of `views` (in order) whose element equals
    `best`'s, and +0.0 into the rest of `outs`, one out per view.  Each out
    takes g's bit pattern times 0 or 1 on their integer views, so a -0.0
    keeps its bits, and g is then left holding only what no view has taken
    yet; a NaN in `best` equals nothing and routes nothing."""
    ints = np.dtype(f"i{g.itemsize}")
    rest = g.view(ints)
    hit = np.empty(best.shape, dtype=bool)
    for i, (v, o) in enumerate(zip(views, outs)):
        taken = o.view(ints)
        np.multiply(rest, np.equal(v, best, out=hit), out=taken)
        if i < len(views) - 1:
            rest -= taken


def maxpool2d(x: Tensor, k: int = 2) -> Tensor:
    """Max pooling over non-overlapping k x k windows of the last two axes;
    a tie routes the gradient to the first index in row-major window order.

    The forward takes the running max over the k column views x[..., j::k]
    first, then over the k row views of that 1/k-width result, which are
    contiguous along W.  It selects the element that one running max over
    the window in row-major order selects: np.maximum returns its second
    operand on ties (+0 against -0) and on two NaNs, so it is associative
    in the element it picks, and row chains followed by a chain across
    rows keep the row-major operand order.  Rows first would not keep it.
    """
    k = _size("maxpool2d", "k", k)
    xd = x.data
    if xd.ndim < 2:
        raise DimensionError("maxpool2d: input must be at least 2-D")
    H, W = xd.shape[-2:]
    if H % k or W % k:
        raise DimensionError(f"maxpool2d: spatial dims ({H},{W}) not divisible by {k}")
    cols = _running_max([xd[..., j::k] for j in range(k)])
    out_data = _running_max([cols[..., i::k, :] for i in range(k)])

    def bwd(g):
        # the forward's two stages inverted: g goes down the row views of
        # the rebuilt column maxima, then each row's share across its
        # column views, so a tie still goes to the first element in
        # row-major window order
        cols = _running_max([xd[..., j::k] for j in range(k)])
        gcols, gx = np.empty_like(cols), np.empty_like(xd)
        _route(np.array(g, dtype=xd.dtype), [cols[..., i::k, :] for i in range(k)], out_data,
               [gcols[..., i::k, :] for i in range(k)])
        _route(gcols, [xd[..., j::k] for j in range(k)], cols, [gx[..., j::k] for j in range(k)])
        return (gx,)

    return _op("maxpool2d", (x,), out_data, bwd)


# ---------------------------------------------------------------------------
# bilinear upsampling


@functools.cache
def _bilinear_matrix(n_in: int, factor: int, dtype) -> np.ndarray:
    n_out = n_in * factor
    M = np.zeros((n_out, n_in), dtype=dtype)
    for o in range(n_out):
        src = (o + 0.5) / factor - 0.5  # align_corners=False source coordinate
        i0 = math.floor(src)
        frac = src - i0
        if i0 < 0:
            i0, frac = 0, 0.0
        i1 = min(i0 + 1, n_in - 1)
        M[o, i0] += 1.0 - frac
        M[o, i1] += frac
    return M


def _upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Bilinear upsampling of a plain array's last two axes: Mh @ x @ Mw.T."""
    mh, mw = (_bilinear_matrix(n, factor, x.dtype) for n in x.shape[-2:])
    return mh @ x @ mw.T


def upsample_bilinear(x: Tensor, factor: int) -> Tensor:
    """Bilinear upsampling of the last two axes by an integer factor
    (half-pixel / align_corners=False convention)."""
    factor = _size("upsample_bilinear", "factor", factor)
    xd = x.data
    if xd.ndim < 2:
        raise DimensionError("upsample_bilinear: input must be at least 2-D")
    out_data = _upsample(xd, factor)
    _guard("upsample_bilinear", out_data)

    def bwd(g):
        mh, mw = (_bilinear_matrix(n, factor, xd.dtype) for n in xd.shape[-2:])
        return (mh.T @ g @ mw,)

    return _op("upsample_bilinear", (x,), out_data, bwd)
