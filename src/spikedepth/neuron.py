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
    `fired` that step's spike mask.  `lif_step` writes into all three
    buffers in place from step to step, so a caller may point `v_pre` at a
    slot of its own, as `mlif` does to keep every step's."""

    v: np.ndarray
    v_pre: np.ndarray
    fired: np.ndarray


def fresh_state(shape, dtype=np.float32) -> LifState:
    return LifState(v=np.zeros(shape, dtype=dtype), v_pre=np.empty(shape, dtype=dtype),
                    fired=np.empty(shape, dtype=bool))


def surrogate_grad(v_minus_threshold, alpha: float):
    """Derivative surrogate for the spike Heaviside.

    Peaks at alpha/2 when the membrane sits exactly at threshold and decays
    quadratically away from it.
    """
    z = (np.pi * alpha / 2.0) * np.asarray(v_minus_threshold)
    return (alpha / 2.0) / (1.0 + z * z)


def lif_step(state: LifState, input_current: np.ndarray, params: LifParams,
             out: np.ndarray | None = None) -> np.ndarray:
    """Advance the membrane one step; returns the binary spike plane, written
    into `out` when given.

    Mutates `state.v` (hard reset where a spike fired) and writes into
    `state.v_pre` the membrane before that reset.  A non-finite input
    current raises NumericError, naming the failure site.  An input of a
    wider dtype than the state promotes its buffers first, exactly; a
    membrane dtype that is not a float of at most 8 bytes (float128,
    complex) raises DimensionError before the step.

    The update has no temporary ((x - v) / tau + v is the same IEEE sum as
    v + (x - v) / tau).  The reset is a branch-free select, v = pre +
    (reset - pre) * fired, on the integer views of the membranes (same
    width, wrapping arithmetic): three unmasked passes in place of a masked
    copy.  It only moves bits, so it is exact for every membrane (±inf,
    NaN, -0.0) and every v_reset.
    """
    x = np.asarray(input_current)
    if x.shape != state.v.shape:
        raise DimensionError(f"lif_step: input shape {x.shape} != state shape {state.v.shape}")
    dtype = np.result_type(x, state.v)
    if dtype.kind != "f" or dtype.itemsize > 8:
        raise DimensionError(f"lif_step: membrane dtype {dtype} is not a float of at most 8 bytes")
    if not np.isfinite(x, out=state.fired).all():
        raise NumericError(f"lif_step: non-finite input current{ad.failure_site()}")
    if state.v.dtype != dtype:
        state.v, state.v_pre = state.v.astype(dtype), np.empty(x.shape, dtype=dtype)
    if out is None:
        out = np.empty(x.shape, dtype=x.dtype if x.dtype.kind == "f" else np.float32)
    v_pre = state.v_pre
    np.subtract(x, state.v, out=v_pre)
    v_pre /= params.tau
    v_pre += state.v
    np.greater_equal(v_pre, params.v_threshold, out=state.fired)
    ints = np.dtype(f"i{v_pre.itemsize}")
    pre, v = v_pre.view(ints), state.v.view(ints)
    np.subtract(np.array(params.v_reset, v_pre.dtype).view(ints), pre, out=v)
    v *= state.fired
    v += pre
    np.copyto(out, state.fired)
    return out


def lif_backward(v_pre: np.ndarray, upstream: np.ndarray, params: LifParams) -> np.ndarray:
    """Reverse recurrence through T recorded pre-reset membrane values.

    `v_pre[t]` is the membrane after integration at step t (before reset),
    `upstream[t]` is dLoss/dSpike[t].  Returns dLoss/dInput of shape [T, ...].
    The reset is detached: the post-reset membrane passes gradient only where
    no spike fired.
    """
    decay = 1.0 - 1.0 / params.tau
    gx = np.empty_like(v_pre)
    g_vpost = np.zeros(v_pre.shape[1:], dtype=v_pre.dtype)
    for t in range(v_pre.shape[0] - 1, -1, -1):
        fired = v_pre[t] >= params.v_threshold
        g_vpre = upstream[t] * surrogate_grad(v_pre[t] - params.v_threshold, params.surrogate_alpha)
        g_vpre = g_vpre + g_vpost * (~fired)
        gx[t] = g_vpre / params.tau
        g_vpost = g_vpre * decay
    return gx


def mlif(x: ad.Tensor, params: LifParams) -> ad.Tensor:
    """Multistep LIF over the leading time axis of x [T, ...]: T calls of
    `lif_step` on one fresh state, each writing its spikes into the output.

    State starts at zero for every call (one call = one sample) and is
    carried across the T steps.  Output is binary with the input dtype; a
    non-finite input current raises lif_step's NumericError.  Only for a
    backward pass does the state's `v_pre` point at a kept v_pre[t], so
    that each step writes its pre-reset membrane straight into its slot;
    otherwise every step reuses the state's own buffer.
    """
    xd = x.data
    if xd.ndim < 1 or xd.shape[0] < 1:
        raise DimensionError(f"mlif: need a non-empty time axis, got shape {xd.shape}")
    v_pre = np.empty_like(xd) if ad._needs(x) else None
    spikes = np.empty_like(xd)
    state = fresh_state(xd.shape[1:], xd.dtype)
    for t in range(xd.shape[0]):
        if v_pre is not None:
            state.v_pre = v_pre[t]
        lif_step(state, xd[t], params, out=spikes[t])

    def bwd(g):
        return (lif_backward(v_pre, g, params),)

    return ad._op("mlif", (x,), spikes, bwd)
