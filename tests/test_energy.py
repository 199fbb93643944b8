"""Energy audit: pricing formulas, row decomposition, crossover identity."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from helpers import FOLDED_PRED_TOL, inspection_tape, random_spikes, tiny_model
from spikedepth import autodiff as ad
from spikedepth.energy import (
    E_AC_PJ,
    E_MAC_PJ,
    _window_active_sum,
    audit,
    float_energy_pj,
    param_count,
    predict_and_audit,
    price,
    spike_energy_pj,
)
from spikedepth.errors import ConfigError, DimensionError
from spikedepth.layers import Conv, Module
from spikedepth.model import HEAD_KINDS, DepthModel, ModelConfig
from spikedepth.neuron import LifParams, mlif
from spikedepth.trace import assert_spike_purity


def test_pricing_formulas_exact():
    # one million equivalent MACs at 50% activity for one step
    assert spike_energy_pj(1e6, 0.5, 1, 0.9) == 450_000.0
    assert float_energy_pj(1e6, 4.6) == 4_600_000.0
    # defaults are the 45 nm estimates
    assert spike_energy_pj(1.0, 1.0, 1) == E_AC_PJ == 0.9
    assert float_energy_pj(1.0) == E_MAC_PJ == 4.6


@pytest.mark.parametrize("k,pad", [(1, 0), (1, 1), (3, 0), (3, 1)])
@pytest.mark.parametrize("shape", [(2, 3, 7, 10), (1, 5, 12, 4)])
def test_window_active_sum_matches_brute_force(rng, k, pad, shape):
    x = (rng.random(shape) < 0.4).astype(np.float32)
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    want = sliding_window_view(padded, (k, k), axis=(2, 3)).sum(dtype=np.float64)
    assert _window_active_sum(x, k, pad) == want


def test_coactivation_count_is_exact():
    """A spike-by-spike product is charged its exact co-activation count,
    here past float32's exact integers (a float32 sum reads 37803164)."""
    rng = np.random.default_rng(1)
    q = rng.random((4, 1280, 64)) < 0.3
    kt = rng.random((4, 64, 1280)) < 0.3
    want = int(np.einsum("tnd,tdm->", q.astype(np.int64), kt.astype(np.int64)))
    with ad.tape() as tp, ad.scope("block1.attn.qk"):
        ad.matmul(ad.tensor(q), ad.tensor(kt))
    [row] = price(tp.entries, Module()).rows
    assert row.kind == "spike" and row.synops == want == 37803165


def test_pricing_rules_on_a_hand_built_tape():
    """Each pricing rule on ops recorded by hand, with small integer-valued
    operands and dyadic costs, so every count and energy is exact."""

    def t(a):
        return ad.tensor(np.array(a, np.float32))

    x4 = np.zeros((1, 1, 4, 4), np.float32)
    x4[0, 0, 1, 1] = 1.0  # one spike under all four 3x3 windows at pad 0
    x3 = np.zeros((2, 1, 3, 3), np.float32)
    x3[0, 0, 0, 0] = x3[0, 0, 1, 1] = 1.0  # under 4 and 9 windows at pad 1
    x3[1] = 1.0  # 7 * 7 windows
    w2 = ad.parameter(np.ones((2, 1, 3, 3), np.float32))
    w1 = ad.parameter(np.ones((1, 1, 3, 3), np.float32))
    q = t([[[1, 0, 1], [0, 1, 1]], [[0, 0, 0], [1, 1, 1]]])  # [T=2, m=2, k=3]
    kt = t([[[1, 0], [1, 1], [0, 1]], [[1, 0], [0, 0], [1, 1]]])  # [2, 3, 2]
    scores = t([[[2, 1], [0, 3]], [[1, 0], [0, 2]]])  # counts, [2, 2, 2]
    v = t([[[1, 0, 1], [0, 0, 1]], [[1, 1, 1], [0, 0, 0]]])  # 6 spikes, [2, 2, 3]
    with inspection_tape() as entries:
        with ad.scope("embed.s1.conv"):  # float scope, binary input
            ad.conv2d(ad.tensor(x3), w1, pad=1)
        with ad.scope("block1.mlp.fc1.conv"):
            ad.conv2d(ad.tensor(x4), w2, pad=0)
        with ad.scope("block1.mlp.fc2.conv"):
            ad.conv2d(ad.tensor(x3), w1, pad=1)
        with ad.scope("block1.attn.q.conv"):  # non-binary input
            ad.conv2d(ad.tensor(x3 * 0.5), w1, pad=1)
        with ad.scope("block1.attn.qk"):
            ad.matmul(q, kt)
        with ad.scope("block1.attn.av"):  # binary right operand
            ad.matmul(scores, v)
        with ad.scope("block2.attn.av"):  # binary left operand
            ad.matmul(t(np.transpose(v.data, (0, 2, 1))), scores)
        with ad.scope("block3.attn.av"):  # no binary operand
            ad.matmul(scores, scores)
        with ad.scope("head.attn"):  # float scope, binary operands
            ad.matmul(q, kt)
        with ad.scope("block1.merge1"):  # not priced
            ad.add(q, q)
        with ad.scope("block1.attn.q.lif"):
            mlif(t(np.zeros((2, 3, 4))), LifParams())
    rep = price(entries, Module(), e_mac_pj=4.0, e_ac_pj=0.5)
    got = [(r.name, r.kind, r.equiv_macs, r.timesteps, r.synops, r.energy_pj) for r in rep.rows]
    assert got == [
        ("embed.s1.conv", "float", 81, 2, 162, 648.0),
        ("block1.mlp.fc1.conv", "spike", 72, 1, 8.0, 4.0),  # 2 channels x 4 windows
        ("block1.mlp.fc2.conv", "spike", 81, 2, 62.0, 31.0),  # 4 + 9 + 49
        ("block1.attn.q.conv", "float", 81, 2, 162, 648.0),
        ("block1.attn.qk", "spike", 12, 2, 8.0, 4.0),  # co-activations 5 + 3
        ("block1.attn.av", "spike", 12, 2, 12.0, 6.0),  # m=2 rows x 6 spikes
        ("block2.attn.av", "spike", 12, 2, 12.0, 6.0),  # n=2 columns x 6 spikes
        ("block3.attn.av", "float", 8, 2, 16, 64.0),
        ("head.attn", "float", 12, 2, 24, 96.0),
        ("block1.attn.q.lif", "float", 24, 2, 48, 192.0),  # 2 ops x 12 neurons
    ]
    assert rep.total_pj == 1699.0 and rep.param_count == 0


def test_trace_forward_keeps_no_backward_state(rng):
    model = tiny_model(seed=0)
    spikes = random_spikes(rng, p=0.4)
    with inspection_tape() as entries:
        _, pred = model.forward(spikes, training=False)
    ops = {e.op for e in entries}
    assert {"conv_bn", "spike_attention", "mlif"} <= ops
    assert "batchnorm" not in ops  # every eval batch norm runs fused with its conv
    assert all(e.bwd is None for e in entries)
    cfg = model.cfg  # the fused attention forms no [T, N, N] matrix
    assert all(t.data.shape != (cfg.t, cfg.tokens, cfg.tokens)
               for e in entries for t in (*e.inputs, e.output) if t is not None)
    assert np.array_equal(pred.data, model.predict(spikes))


def test_param_count_conv_oracle(rng):
    conv = Conv("x", 2, 4, 3, rng)
    assert param_count(conv) == 4 * 2 * 3 * 3 + 4  # weights + bias


def test_zero_input_costs_no_spike_energy():
    model = tiny_model(seed=0)
    rep = audit(model, np.zeros((2, 2, 16, 16), np.float32))
    assert rep.spike_pj == 0.0
    assert rep.float_pj > 0.0  # analog front conv, membrane updates, head
    assert rep.total_pj == pytest.approx(rep.float_pj)


def test_denser_input_costs_more(rng):
    model = tiny_model(seed=0)
    sparse = audit(model, random_spikes(rng, p=0.1))
    dense = audit(model, random_spikes(rng, p=0.5))
    assert 0.0 < sparse.spike_pj < dense.spike_pj
    # float side is input-independent: same layers, same MAC counts
    assert sparse.float_pj == dense.float_pj


def test_rate_bounds_and_exact_synop_pricing(rng):
    model = tiny_model(seed=0)
    rep = audit(model, random_spikes(rng, p=0.4))
    for r in rep.rows:
        assert 0.0 <= r.firing_rate <= 1.0, r.name
        if r.kind == "spike":
            assert r.energy_pj == pytest.approx(0.9 * r.synops, rel=1e-12)
            assert r.synops == pytest.approx(
                r.firing_rate * r.equiv_macs * r.timesteps, rel=1e-12
            )
        else:
            assert r.firing_rate == 1.0
            assert r.energy_pj == pytest.approx(4.6 * r.synops, rel=1e-12)


def test_float_scope_assignment(rng):
    model = tiny_model(seed=0)
    rep = audit(model, random_spikes(rng, p=0.4))
    kinds = {r.name: r.kind for r in rep.rows}
    assert kinds["embed.s1.conv"] == "float"  # sees analog event currents
    assert kinds["embed.s2.conv"] == "spike"
    assert kinds["block1.attn.qk"] == "spike"
    assert kinds["block1.attn.av"] == "spike"
    assert kinds["block4.mlp.fc2.conv"] == "spike"
    for name, kind in kinds.items():
        if name.startswith("head") or ".lif" in name or name.endswith(("lif1", "lif2")):
            assert kind == "float", name


def test_row_coverage(rng):
    model = tiny_model(seed=0)
    rep = audit(model, random_spikes(rng, p=0.4))
    names = [r.name for r in rep.rows]
    assert len(names) == len(set(names)) == 70
    convs = [r for r in rep.rows if ".conv" in r.name or r.name == "head.proj"]
    matmuls = [r for r in rep.rows if r.name.endswith((".qk", ".av"))]
    assert len(convs) == 31 and len(matmuls) == 8
    assert "head.proj" in names and "head.l4.conv" in names


def test_crossover_identity(rng):
    # a spike layer beats its dense float twin exactly when rate*T*e_ac < e_mac
    model = tiny_model(seed=0)
    for e_mac, e_ac in [(4.6, 0.9), (1.0, 0.9), (0.5, 0.9), (4.6, 4.6)]:
        rep = audit(model, random_spikes(rng, p=0.5), e_mac_pj=e_mac, e_ac_pj=e_ac)
        for r in rep.rows:
            if r.kind != "spike":
                continue
            twin = e_mac * r.equiv_macs
            assert (r.energy_pj < twin) == (r.firing_rate * r.timesteps * e_ac < e_mac), r.name


def test_lines_parse_back_exactly(rng):
    model = tiny_model(seed=0)
    rep = audit(model, random_spikes(rng, p=0.4))
    kv = dict(line.split("=", 1) for line in rep.to_lines())
    total = float(kv["total_pj"])
    parts = [float(kv[f"layer.{i}.energy_pj"]) for i in range(len(rep.rows))]
    assert sum(parts) == total  # bit-for-bit, not approx
    assert float(kv["spike_pj"]) == pytest.approx(rep.spike_pj, rel=1e-15)
    assert float(kv["float_twin_pj"]) == rep.float_twin_pj()
    assert float(kv["total_mj"]) == total * 1e-9
    assert int(kv["params"]) == param_count(model)


def test_csv_rows(rng):
    model = tiny_model(seed=0)
    rep = audit(model, random_spikes(rng, p=0.4))
    rows = list(rep.csv_rows())
    assert rows[0] == "name,kind,equiv_macs,timesteps,firing_rate,synops,energy_pj"
    assert len(rows) == 1 + len(rep.rows)
    assert all(len(row.split(",")) == 7 for row in rows)


def test_audit_input_validation(rng):
    model = tiny_model(seed=0)
    with pytest.raises(DimensionError):
        audit(model, np.zeros((2, 16, 16), np.float32))
    for e_mac, e_ac in [(np.nan, E_AC_PJ), (np.inf, E_AC_PJ), (E_MAC_PJ, -5.0), (E_MAC_PJ, np.nan)]:
        with pytest.raises(ConfigError):
            audit(model, random_spikes(rng), e_mac_pj=e_mac, e_ac_pj=e_ac)
    # finite costs whose energies overflow: an infinite total, or a silent
    # layer's inf * 0 = NaN
    for e_mac, e_ac in [(1e308, E_AC_PJ), (E_MAC_PJ, 1e308)]:
        with pytest.raises(ConfigError, match="e_mac_pj.*e_ac_pj"):
            audit(model, random_spikes(rng), e_mac_pj=e_mac, e_ac_pj=e_ac)


def test_audit_refuses_costs_before_any_forward():
    class NoForward(Module):
        def forward(self, *args, **kwargs):
            raise AssertionError("a forward ran before the costs were checked")

    for e_mac, e_ac in [(np.nan, E_AC_PJ), (np.inf, E_AC_PJ), (E_MAC_PJ, -5.0), (E_MAC_PJ, np.nan)]:
        with pytest.raises(ConfigError, match="must be finite and non-negative"):
            audit(NoForward(), np.zeros((2, 2, 16, 16), np.float32), e_mac_pj=e_mac, e_ac_pj=e_ac)


def _randomise_bn(model, rng):
    for name, buf in model.named_buffers():
        buf[...] = (rng.random(buf.shape) + 0.1 if name.endswith("var")
                    else rng.standard_normal(buf.shape) * 0.2)


# a random model and input: size, head, LIF constants, BN statistics and
# the input's spike density
_RANDOM_MODELS = given(
    t=st.integers(1, 4), h=st.sampled_from([8, 16, 24, 32]), w=st.sampled_from([8, 16, 24, 32]),
    d=st.sampled_from([4, 8, 16]), head=st.sampled_from(HEAD_KINDS),
    tau=st.floats(1.0, 4.0), v_threshold=st.floats(0.25, 2.0), v_reset=st.floats(-1.0, 0.0),
    density=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]), seed=st.integers(0, 2 ** 16))


def _random_model(t, h, w, d, head, tau, v_threshold, v_reset, density, seed):
    """→ (model, input spikes) of one `_RANDOM_MODELS` draw."""
    rng = np.random.default_rng(seed)
    lif = LifParams(tau=tau, v_threshold=v_threshold, v_reset=v_reset)
    model = DepthModel(ModelConfig(t=t, h=h, w=w, d=d, head=head, lif=lif), rng)
    _randomise_bn(model, rng)
    return model, (rng.random((t, 2, h, w)) < density).astype(np.float32)


@settings(derandomize=True, max_examples=220, deadline=None)
@_RANDOM_MODELS
def test_streamed_audit_prices_as_the_listed_tape(**draw):
    """Pricing each entry as it is recorded gives the report `price` gives
    over the list of the same forward, and the streamed forward predicts
    `predict`'s bits."""
    model, x = _random_model(**draw)
    pred, streamed = predict_and_audit(model, x)
    with inspection_tape() as entries:
        model.forward(x, training=False)
    listed = price(entries, model)
    assert streamed.to_lines() == listed.to_lines()
    assert list(streamed.csv_rows()) == list(listed.csv_rows())
    assert pred.tobytes() == model.predict(x).tobytes()


@settings(derandomize=True, max_examples=220, deadline=None)
@_RANDOM_MODELS
def test_gradient_and_inspection_tapes_keep_one_contract(**draw):
    """An eval forward on a gradient tape runs the reference graph, and one
    on an inspection tape the fused ops (`conv_bn`, `spike_attention`,
    `fusion_tail`).  The two agree: bit-equal block features, predictions
    within FOLDED_PRED_TOL with the fusion head and equal with
    `linear_fcn`, one priced report, and the same spike-purity counters."""
    model, x = _random_model(**draw)
    with ad.tape() as grad_tape:
        ref_feats, ref_pred = model.forward(x, training=False)
    with inspection_tape() as inspection:
        feats, pred = model.forward(x, training=False)
    assert all(np.array_equal(f.data, r.data) for f, r in zip(feats, ref_feats, strict=True))
    tol = FOLDED_PRED_TOL if draw["head"] == "fusion" else 0.0
    assert np.abs(pred.data - ref_pred.data).max() <= tol
    assert price(grad_tape.entries, model).to_lines() == price(inspection, model).to_lines()
    assert (assert_spike_purity(grad_tape.entries, ref_feats)
            == assert_spike_purity(inspection, feats))


def _traced_peak(fn):
    """Peak bytes `fn()` allocates above what is live when it starts, as
    numpy reports its buffers to tracemalloc; one untraced call first fills
    every cache."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_audit_peak_memory_is_predicts():
    """The audited forward keeps no activations: at recipe size its peak is
    within 1.3x of `predict`'s (a kept tape made it 5.5x)."""
    rng = np.random.default_rng(4)
    model = DepthModel(ModelConfig(t=4, c=2, h=64, w=64, d=64, l=4), rng)
    _randomise_bn(model, np.random.default_rng(5))
    x = (rng.random((4, 2, 64, 64)) < 0.3).astype(np.float32)
    predicted = _traced_peak(lambda: model.predict(x))
    audited = _traced_peak(lambda: audit(model, x))
    assert audited <= 1.3 * predicted, (audited, predicted)
