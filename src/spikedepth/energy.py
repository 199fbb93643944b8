"""Theoretical energy audit of a forward pass.

Accounting convention (45 nm CMOS estimates):

  * spike-driven layers cost accumulate ops only:
        energy = e_ac * equivalent_MACs * firing_rate * T
    where equivalent_MACs is the dense single-pass MAC count of the layer
    and the firing rate is measured on the actual spike operands, so the
    product equals the exact number of synaptic accumulates;
  * float layers (the first patch-embedding convolution, which sees analog
    event currents, the depth head, and membrane updates) cost full
    multiply-accumulates: energy = e_mac * the layer's dense MACs.  The
    fusion head is priced as the paper's reference layers, not as the
    folded form its eval forward runs (`head.FusionHead`), so a report
    does not depend on how the head was executed;
  * batch norm folds into the preceding convolution at inference and is not
    charged: an eval `conv_bn` entry (`layers.ConvBN`) is priced as its
    conv alone, so a report does not depend on whether the batch norm ran
    fused or as its own op; pooling, upsampling interpolation and residual
    adds are comparison/add-only and left out of the tally.

Per-layer rows always sum exactly to the reported total.  `price` applies
the per-entry rule to a recorded list of tape entries; `audit` applies it
to each entry of one forward as the entry is recorded, keeping none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError
from .head import FOLDED_LAYERS
from .trace import is_binary

E_MAC_PJ = 4.6
E_AC_PJ = 0.9

# scope prefixes whose weighted ops are charged at full MAC cost
FLOAT_SCOPES = ("embed.s1.conv", "head")


def spike_energy_pj(equiv_macs: float, firing_rate: float, timesteps: int, e_ac_pj: float = E_AC_PJ) -> float:
    """Accumulate-only energy of a spike-driven layer."""
    return e_ac_pj * equiv_macs * firing_rate * timesteps


def float_energy_pj(macs: float, e_mac_pj: float = E_MAC_PJ) -> float:
    """Multiply-accumulate energy of a conventional layer."""
    return e_mac_pj * macs


@dataclass
class EnergyRow:
    name: str
    kind: str  # "spike" | "float"
    equiv_macs: int  # dense single-pass MACs
    timesteps: int
    firing_rate: float
    synops: float  # charged ops: accumulates (spike) or MACs (float)
    energy_pj: float


@dataclass
class EnergyReport:
    rows: list
    e_mac_pj: float
    e_ac_pj: float
    param_count: int

    @property
    def total_pj(self) -> float:
        return float(sum(r.energy_pj for r in self.rows))

    @property
    def total_mj(self) -> float:
        return self.total_pj * 1e-9

    @property
    def spike_pj(self) -> float:
        return float(sum(r.energy_pj for r in self.rows if r.kind == "spike"))

    @property
    def float_pj(self) -> float:
        return float(sum(r.energy_pj for r in self.rows if r.kind == "float"))

    def float_twin_pj(self) -> float:
        """Energy of the spike-driven layers if each ran as one dense pass."""
        return float(sum(self.e_mac_pj * r.equiv_macs for r in self.rows if r.kind == "spike"))

    def to_lines(self):
        """One ``key=value`` pair per line; row energies sum to ``total_pj``.

        Floats use repr so parsing the lines back reproduces the exact
        values (summing the parsed per-layer energies in order equals the
        parsed total bit-for-bit).
        """
        out = [
            f"e_mac_pj={self.e_mac_pj!r}",
            f"e_ac_pj={self.e_ac_pj!r}",
            f"params={self.param_count}",
        ]
        for i, r in enumerate(self.rows):
            out.append(f"layer.{i}.name={r.name}")
            out.append(f"layer.{i}.kind={r.kind}")
            out.append(f"layer.{i}.equiv_macs={r.equiv_macs}")
            out.append(f"layer.{i}.firing_rate={r.firing_rate!r}")
            out.append(f"layer.{i}.energy_pj={r.energy_pj!r}")
        out.append(f"spike_pj={self.spike_pj!r}")
        out.append(f"float_pj={self.float_pj!r}")
        out.append(f"float_twin_pj={self.float_twin_pj()!r}")
        out.append(f"total_pj={self.total_pj!r}")
        out.append(f"total_mj={self.total_mj!r}")
        return out

    def csv_rows(self):
        yield "name,kind,equiv_macs,timesteps,firing_rate,synops,energy_pj"
        for r in self.rows:
            yield (
                f"{r.name},{r.kind},{r.equiv_macs},{r.timesteps},"
                f"{r.firing_rate:.9f},{r.synops:.3f},{r.energy_pj:.6f}"
            )


def param_count(module) -> int:
    """Exact number of trainable scalars."""
    return int(sum(p.data.size for _, p in module.named_params()))


def _window_active_sum(x, k, pad):
    """Total active inputs summed over all stride-1 k x k windows of the
    zero-padded x [B,C,H,W] (exact synop base).

    Each input element counts once per window covering it, and the windows
    covering element (i, j) are r[i] * c[j] for the per-row and per-column
    window counts r, c, so the sum is r @ x.sum(B, C) @ c in float64.
    """

    def cover(n):
        i = np.arange(n) + pad  # padded index of each input row/column
        last = n + 2 * pad - k  # index of the last window start
        return (np.minimum(i, last) - np.maximum(i - k + 1, 0) + 1).astype(np.float64)

    return float(cover(x.shape[2]) @ x.sum(axis=(0, 1), dtype=np.float64) @ cover(x.shape[3]))


def _conv_work(entry):
    xd = entry.inputs[0].data
    cout, cin, k, _ = entry.inputs[1].data.shape
    ho, wo = entry.output.data.shape[-2:]
    equiv, B = cout * cin * k * k * ho * wo, xd.shape[0]
    if entry.scope.startswith(FLOAT_SCOPES) or not is_binary(xd):
        return [(entry.scope, equiv, B, None)]
    # conv2d is stride 1, so its pad follows from the shapes
    pad = ((ho - 1) + k - xd.shape[2]) // 2
    return [(entry.scope, equiv, B, cout * _window_active_sum(xd, k, pad))]


def _matmul_work(entry):
    a, b = (t.data for t in entry.inputs)
    *batch, m, kk = a.shape
    n = b.shape[-1]
    equiv, T = m * kk * n, int(np.prod(batch))
    if entry.scope.startswith(FLOAT_SCOPES):
        return [(entry.scope, equiv, T, None)]
    a_bin, b_bin = is_binary(a), is_binary(b)
    # float64 sums count exactly up to 2**53; float32 ones drift past 2**24
    if a_bin and b_bin:
        synops = float(entry.output.data.sum(dtype=np.float64))  # co-activation count
    elif b_bin:
        synops = m * float(b.sum(dtype=np.float64))
    elif a_bin:
        synops = n * float(a.sum(dtype=np.float64))
    else:
        synops = None
    return [(entry.scope, equiv, T, synops)]


def _attention_work(entry):
    """The `qk` and `av` rows `_matmul_work` gives the products Q K^T and
    (Q K^T) V that a fused Q (K^T V) stands for, without forming Q K^T.

    Its operands are q [T,N,D], k [T,M,D], v [T,M,Dv], which the product
    checks; only spikes are priced, and a non-binary operand raises
    ContractError, as `trace.assert_spike_purity` does.  The
    co-activation count of Q K^T is sum_t sum_d (sum_n q)(sum_m k).  Q K^T is
    itself binary unless some row pair shares two channels: an off-diagonal
    (d1, d2) set in both Q^T Q and K^T K.  If binary, the count of (Q K^T) V
    is sum_m (K . sum_n q)_m (sum_d v)_m, else `_matmul_work` charges N per
    spike of v.  Every sum is a float64 integer, exact like the ones it
    replaces.
    """
    q, k, v = (t.data for t in entry.inputs)
    if not all(map(is_binary, (q, k, v))):
        raise ContractError(f"energy: fused attention at {entry.scope!r} has a non-binary operand")
    T, N, D = q.shape
    M, Dv = v.shape[1:]
    q_count = q.sum(axis=1, dtype=np.float64)  # [T, D] spikes per channel
    qk = float((q_count * k.sum(axis=1, dtype=np.float64)).sum())
    shared = (q.transpose(0, 2, 1) @ q > 0) & (k.transpose(0, 2, 1) @ k > 0)
    if shared[:, ~np.eye(D, dtype=bool)].any():
        av = N * float(v.sum(dtype=np.float64))
    else:
        key_count = np.einsum("tmd,td->tm", k, q_count)  # [T, M] column sums of Q K^T
        av = float((key_count * v.sum(axis=2, dtype=np.float64)).sum())
    scope = entry.scope + "." if entry.scope else ""
    return [(scope + "qk", N * D * M, T, qk), (scope + "av", N * M * Dv, T, av)]


def _fusion_tail_work(entry):
    """The float rows `_conv_work` gives the reference layers that a folded
    fusion-head tail stands for: `FOLDED_LAYERS`, whose weights are the
    entry's 4-D parameter inputs in that order, each run at the output's
    resolution divided by its factor there."""
    B, _, H, W = entry.output.data.shape
    weights = [t.data.shape for t in entry.inputs if t.is_param and t.data.ndim == 4]
    scope = entry.scope + "." if entry.scope else ""
    return [(scope + name, math.prod(w) * (H // f) * (W // f), B, None)
            for (name, f), w in zip(FOLDED_LAYERS.items(), weights)]


def _mlif_work(entry):
    xd = entry.inputs[0].data
    # leak decay + scaled input add per neuron-step
    return [(entry.scope, 2 * int(np.prod(xd.shape[1:])), xd.shape[0], None)]


# op -> its rows: [(name, dense single-pass MACs, timesteps, synops, or None
# for a float layer, which executes every MAC)]
_WORK = {"conv2d": _conv_work, "conv_bn": _conv_work, "matmul": _matmul_work,
         "spike_attention": _attention_work, "fusion_tail": _fusion_tail_work, "mlif": _mlif_work}


def _row(name, equiv, T, synops, e_mac_pj, e_ac_pj):
    if synops is None:
        macs = equiv * T
        return EnergyRow(name, "float", equiv, T, 1.0, macs, float_energy_pj(macs, e_mac_pj))
    rate = synops / (equiv * T) if equiv else 0.0
    return EnergyRow(name, "spike", equiv, T,
                     rate, synops, spike_energy_pj(equiv, rate, T, e_ac_pj))


def _check_costs(e_mac_pj, e_ac_pj):
    for name, pj in (("e_mac_pj", e_mac_pj), ("e_ac_pj", e_ac_pj)):
        if not 0 <= pj < math.inf:  # NaN fails both comparisons
            raise ConfigError(f"energy: {name} must be finite and non-negative, got {pj}")


def _priced(entry, e_mac_pj, e_ac_pj):
    """The rows of one tape entry: none for an op that does no weighted work."""
    work = _WORK.get(entry.op)
    return [_row(*w, e_mac_pj, e_ac_pj) for w in work(entry)] if work else []


def _report(rows, model, e_mac_pj, e_ac_pj):
    report = EnergyReport(rows=rows, e_mac_pj=e_mac_pj, e_ac_pj=e_ac_pj, param_count=param_count(model))
    if not math.isfinite(report.total_pj):  # inf, or a silent layer's inf * 0
        raise ConfigError(f"energy: costs e_mac_pj={e_mac_pj} and e_ac_pj={e_ac_pj} "
                          f"overflow the energy total ({report.total_pj})")
    return report


def price(entries, model, e_mac_pj: float = E_MAC_PJ, e_ac_pj: float = E_AC_PJ) -> EnergyReport:
    """Price every weighted layer among the tape entries of one forward pass
    of `model`; costs that are negative, non-finite, or overflow the total
    raise ConfigError, and a fused attention entry over non-spikes raises
    ContractError."""
    _check_costs(e_mac_pj, e_ac_pj)
    rows = [row for e in entries for row in _priced(e, e_mac_pj, e_ac_pj)]
    return _report(rows, model, e_mac_pj, e_ac_pj)


def predict_and_audit(model, spikes_dense, e_mac_pj: float = E_MAC_PJ, e_ac_pj: float = E_AC_PJ):
    """One eval-mode forward pass → (depth prediction [H, W], EnergyReport).

    The prediction is the array `model.predict` returns for the same input
    and the report equals `price` over the entries of that forward.
    The costs are checked before the forward runs; then each entry is
    priced as its op records it, under a tape that keeps none, so the pass
    holds no more memory than `predict`.  Every `ConvBN` is one `conv_bn`
    entry, every attention product one fused `spike_attention` entry and
    the fusion head's folded tail one `fusion_tail` entry.
    """
    _check_costs(e_mac_pj, e_ac_pj)
    rows = []
    with ad.tape(consumer=lambda e: rows.extend(_priced(e, e_mac_pj, e_ac_pj))):
        _, pred = model.forward(spikes_dense, training=False)
    return pred.data, _report(rows, model, e_mac_pj, e_ac_pj)


def audit(model, spikes_dense, e_mac_pj: float = E_MAC_PJ, e_ac_pj: float = E_AC_PJ) -> EnergyReport:
    """Run one eval-mode forward pass and price every weighted layer as it
    runs (see `predict_and_audit`)."""
    return predict_and_audit(model, spikes_dense, e_mac_pj, e_ac_pj)[1]
