"""Op-trace inspection: spike purity of the backbone.

A recorded tape doubles as an execution trace.  `assert_spike_purity` walks
every backbone entry and enforces the spike-driven contract:

  * no softmax anywhere in the trace;
  * every convolution inside the backbone consumes a binary activation,
    also one fused with its eval batch norm (`conv_bn`);
  * every activation-by-activation product has at least one binary operand
    (so no float-by-float multiplications between spike tensors), and a
    fused attention product Q (K^T V), which every forward but an eval one
    on a gradient tape runs and which scans none of its operands, has three
    binary ones;
  * residual merges and neuron outputs are exactly binary, as are the
    declared layer-boundary tensors.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError


def is_binary(arr) -> bool:
    """True when every element of `arr` is exactly 0 or 1 (-0.0 counts as 0,
    NaN as neither)."""
    return bool(((arr == 0) | (arr == 1)).all())


# a product of two activations needs a binary operand; how each op reports it
_PRODUCT_ERRORS = {"matmul": "matmul at {!r} multiplies two non-binary activations",
                   "mul": "elementwise product at {!r} has no binary operand"}


def assert_spike_purity(entries, boundary_tensors=()) -> dict:
    """Raise ContractError on any purity violation; returns audit counters."""
    checked = {"convs": 0, "matmuls": 0, "muls": 0, "neurons": 0, "merges": 0, "boundaries": 0}
    for e in entries:
        if e.op == "softmax":
            raise ContractError(f"softmax found in trace at scope {e.scope!r}")
        if not e.scope.startswith(("embed", "block")):  # backbone only
            continue
        if e.op in ("conv2d", "conv_bn"):
            if not is_binary(e.inputs[0].data):
                raise ContractError(f"conv at {e.scope!r} consumes a non-binary activation")
            checked["convs"] += 1
        elif e.op in _PRODUCT_ERRORS and not any(t.is_param for t in e.inputs):
            if not any(is_binary(t.data) for t in e.inputs):
                raise ContractError(_PRODUCT_ERRORS[e.op].format(e.scope))
            checked[e.op + "s"] += 1
        elif e.op == "spike_attention":
            if not all(is_binary(t.data) for t in e.inputs):
                raise ContractError(f"fused attention at {e.scope!r} has a non-binary operand")
            checked["matmuls"] += 2  # it stands for Q K^T and (Q K^T) V
        elif e.op == "mlif":
            if not is_binary(e.output.data):
                raise ContractError(f"neuron output at {e.scope!r} is not binary")
            checked["neurons"] += 1
        elif e.op == "clamp" and ".merge" in e.scope:
            if not is_binary(e.output.data):
                raise ContractError(f"residual merge at {e.scope!r} is not binary")
            checked["merges"] += 1
        elif e.op == "add" and ".merge" in e.scope:
            # pre-clamp integer sum of two binary streams
            if not is_binary(e.inputs[0].data) or not is_binary(e.inputs[1].data):
                raise ContractError(f"residual merge at {e.scope!r} adds non-binary operands")
    for t in boundary_tensors:
        arr = t.data if hasattr(t, "data") else np.asarray(t)
        if not is_binary(arr):
            raise ContractError("inter-layer backbone tensor is not binary")
        checked["boundaries"] += 1
    return checked
