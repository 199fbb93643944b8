"""Op-trace inspection: spike purity of the backbone and ablation parity.

A recorded tape doubles as an execution trace.  `assert_spike_purity` walks
every backbone entry and enforces the spike-driven contract:

  * no softmax anywhere in the trace;
  * every convolution inside the backbone consumes a binary activation;
  * every activation-by-activation product has at least one binary operand
    (so no float-by-float multiplications between spike tensors);
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


def _backbone_scope(scope: str) -> bool:
    return scope.startswith("embed") or scope.startswith("block")


def assert_spike_purity(entries, boundary_tensors=()) -> dict:
    """Raise ContractError on any purity violation; returns audit counters."""
    checked = {"convs": 0, "matmuls": 0, "muls": 0, "neurons": 0, "merges": 0, "boundaries": 0}
    for e in entries:
        if e.op == "softmax":
            raise ContractError(f"softmax found in trace at scope {e.scope!r}")
        if not _backbone_scope(e.scope):
            continue
        if e.op == "conv2d":
            x = e.inputs[0]
            if not is_binary(x.data):
                raise ContractError(f"conv at {e.scope!r} consumes a non-binary activation")
            checked["convs"] += 1
        elif e.op == "matmul":
            a, b = e.inputs
            if not (a.is_param or b.is_param):
                if not (is_binary(a.data) or is_binary(b.data)):
                    raise ContractError(
                        f"matmul at {e.scope!r} multiplies two non-binary activations"
                    )
                checked["matmuls"] += 1
        elif e.op == "mul":
            a, b = e.inputs
            if not (a.is_param or b.is_param):
                if not (is_binary(a.data) or is_binary(b.data)):
                    raise ContractError(
                        f"elementwise product at {e.scope!r} has no binary operand"
                    )
                checked["muls"] += 1
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


def trace_scopes(entries) -> list[str]:
    return [e.scope for e in entries]


def has_scope_prefix(entries, prefix: str) -> bool:
    return any(e.scope.startswith(prefix) for e in entries)
