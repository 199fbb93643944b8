"""Leaky integrate-and-fire neurons with a surrogate spike gradient.

Forward dynamics are the explicit-Euler discretisation (unit time step) of
the leak equation: each step the membrane moves toward the input current
with time constant tau,

    v <- v + (I - v) / tau

fires a unit spike when v reaches the threshold and hard-resets to v_reset.
Backward differentiates the membrane recurrence exactly through time; the
Heaviside spike is replaced by an arctan-family surrogate and the reset path
is detached, so gradient flows only through the leak and the surrogate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError, NumericError


@dataclass(frozen=True)
class LifParams:
    tau: float = 2.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    surrogate_alpha: float = 2.0

    def __post_init__(self):
        if not self.tau >= 1.0:
            raise ConfigError(f"tau must be >= 1.0, got {self.tau}")
        if not self.v_threshold > self.v_reset:
            raise ConfigError(
                f"v_threshold ({self.v_threshold}) must exceed v_reset ({self.v_reset})"
            )
        if not self.surrogate_alpha > 0:
            raise ConfigError(f"surrogate_alpha must be positive, got {self.surrogate_alpha}")


@dataclass
class LifState:
    """Mutable membrane potential carried across timesteps of one sample;
    `v_pre` is the membrane of the last step just before its reset, and
    `fired` that step's spike mask.  A step writes into all three buffers
    in place, so a caller may point `v_pre` at a slot of its own, as
    `mlif`'s backward does to rebuild every step's."""

    v: np.ndarray
    v_pre: np.ndarray
    fired: np.ndarray


def fresh_state(shape, dtype=np.float32) -> LifState:
    return LifState(v=np.zeros(shape, dtype=dtype), v_pre=np.empty(shape, dtype=dtype),
                    fired=np.empty(shape, dtype=bool))


def surrogate_grad(v_minus_threshold, alpha: float, out=None):
    """Derivative surrogate for the spike Heaviside: (alpha / 2) / (1 + z * z)
    with z = (pi * alpha / 2) * (v - threshold), computed in place in `out`
    (which may be the input itself) when given, else in a new array.

    Peaks at alpha/2 when the membrane sits exactly at threshold and decays
    quadratically away from it.
    """
    d = np.asarray(v_minus_threshold)
    if out is None:
        out = np.empty(d.shape, np.result_type(d, alpha))
    z = np.multiply(np.pi * alpha / 2.0, d, out=out)
    np.multiply(z, z, out=z)
    np.add(1.0, z, out=z)
    return np.divide(alpha / 2.0, z, out=z)


def lif_step(state: LifState, input_current: np.ndarray, params: LifParams) -> np.ndarray:
    """Advance the membrane one step; returns the binary spike plane.

    Mutates `state.v` (hard reset where a spike fired) and writes into
    `state.v_pre` the membrane before that reset.  A non-finite input
    current raises NumericError, naming the failure site.  An input of a
    wider dtype than the state promotes its buffers first, exactly; a
    membrane dtype that is not a float of at most 8 bytes (float128,
    complex) raises DimensionError before the step.
    """
    x = np.asarray(input_current)
    if x.shape != state.v.shape:
        raise DimensionError(f"lif_step: input shape {x.shape} != state shape {state.v.shape}")
    dtype = np.result_type(x, state.v)
    reset = _checked_reset(x, dtype, params)
    if state.v.dtype != dtype:
        state.v, state.v_pre = state.v.astype(dtype), np.empty(x.shape, dtype=dtype)
    _advance(state, x, params, reset)
    return state.fired.astype(x.dtype if x.dtype.kind == "f" else np.float32)


def _checked_reset(x: np.ndarray, dtype, params: LifParams) -> np.integer:
    """v_reset's bits as a numpy integer of a `dtype` membrane's width, once
    `dtype` is a float of at most 8 bytes and the current x is finite."""
    if dtype.kind != "f" or dtype.itemsize > 8:
        raise DimensionError(f"lif_step: membrane dtype {dtype} is not a float of at most 8 bytes")
    if not np.isfinite(x).all():
        raise NumericError(f"lif_step: non-finite input current{ad.failure_site()}")
    return np.array(params.v_reset, dtype).view(f"i{dtype.itemsize}")[()]


def _advance(state: LifState, x: np.ndarray, params: LifParams, reset: np.integer) -> None:
    """`lif_step`'s update and reset by a current x and the `reset` bits that
    `_checked_reset` gave for it: writes `state.v_pre`, `.fired` and `.v`.

    The update has no temporary ((x - v) / tau + v is the same IEEE sum as
    v + (x - v) / tau).  The reset is a branch-free select, v = pre +
    (reset - pre) * fired, on the integer views of the membranes (same
    width, wrapping arithmetic): three unmasked passes in place of a masked
    copy.  It only moves bits, so it is exact for every membrane (±inf,
    NaN, -0.0) and every v_reset.
    """
    v_pre = state.v_pre
    np.subtract(x, state.v, out=v_pre)
    v_pre /= params.tau
    v_pre += state.v
    np.greater_equal(v_pre, params.v_threshold, out=state.fired)
    pre, v = v_pre.view(reset.dtype), state.v.view(reset.dtype)
    np.subtract(reset, pre, out=v)
    v *= state.fired
    v += pre


def lif_backward(v_pre: np.ndarray, upstream: np.ndarray, params: LifParams,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Reverse recurrence through T recorded pre-reset membrane values.

    `v_pre[t]` is the membrane after integration at step t (before reset),
    `upstream[t]` is dLoss/dSpike[t], of v_pre's shape and dtype (else
    DimensionError).  Returns dLoss/dInput of shape [T, ...], written into
    `out` when given, which may be v_pre itself.  The reset is detached: the
    post-reset membrane passes gradient only where no spike fired.

    The surrogate term upstream * surrogate_grad(v_pre - threshold) is taken
    over all T at once, in place in the result; the recurrence then adds,
    from the last step back, the post-reset gradient where no spike fired,
    and the division by tau is again one pass over all T.  Each element
    meets the fresh-array formulas' operations with their operands in
    order, so it gets their bits.
    """
    if upstream.shape != v_pre.shape or upstream.dtype != v_pre.dtype:
        raise DimensionError(f"lif_backward: upstream {upstream.shape} {upstream.dtype} does not "
                             f"match v_pre {v_pre.shape} {v_pre.dtype}")
    decay = 1.0 - 1.0 / params.tau
    silent = np.greater_equal(v_pre, params.v_threshold)
    np.logical_not(silent, out=silent)
    gx = np.subtract(v_pre, params.v_threshold, out=out)
    np.multiply(upstream, surrogate_grad(gx, params.surrogate_alpha, out=gx), out=gx)
    g_vpost = np.zeros(v_pre.shape[1:], dtype=v_pre.dtype)
    for t in range(v_pre.shape[0] - 1, -1, -1):
        g_vpre = gx[t, ...]
        g_vpost *= silent[t]
        g_vpre += g_vpost
        np.multiply(g_vpre, decay, out=g_vpost)
    gx /= params.tau
    return gx


def mlif(x: ad.Tensor, params: LifParams) -> ad.Tensor:
    """Multistep LIF over the leading time axis of x [T, ...]: `lif_step`'s
    checks once over all of x, then T of its updates on one fresh state.

    State starts at zero for every call (one call = one sample) and is
    carried across the T steps.  Output is binary with the input dtype.  The
    forward keeps nothing but its entry's input: the backward reruns the T
    updates from x into the slots of a [T, ...] `v_pre` buffer, so it reads
    the very pre-reset membranes the forward computed, and `lif_backward`
    writes the gradient over them.
    """
    xd = x.data
    if xd.ndim < 1 or xd.shape[0] < 1:
        raise DimensionError(f"mlif: need a non-empty time axis, got shape {xd.shape}")
    reset = _checked_reset(xd, xd.dtype, params)
    spikes = np.empty_like(xd)
    state = fresh_state(xd.shape[1:], xd.dtype)
    for t in range(xd.shape[0]):
        # [t, ...] is a view also of a [T] input, where [t] is a scalar
        _advance(state, xd[t, ...], params, reset)
        np.copyto(spikes[t, ...], state.fired)

    def bwd(g):
        v_pre = np.empty_like(xd)
        state = fresh_state(xd.shape[1:], xd.dtype)
        for t in range(xd.shape[0]):
            state.v_pre = v_pre[t, ...]
            _advance(state, xd[t, ...], params, reset)
        return (lif_backward(v_pre, g, params, out=v_pre),)

    return ad._op("mlif", (x,), spikes, bwd)
