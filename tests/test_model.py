"""Backbone structure: spiking attention algebra, residual merges, purity."""
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    TAPE_MODES,
    depth_map,
    inspection_tape,
    random_spikes,
    tensor_dtypes,
    tiny_distill_cfg,
    tiny_model,
    tiny_model_cfg,
    two_matmul_attention,
)
from spikedepth import autodiff as ad
from spikedepth import model as model_module
from spikedepth.energy import price
from spikedepth.errors import ConfigError, ContractError, DimensionError
from spikedepth.layers import Conv, ConvBN, Module, kaiming_uniform
from spikedepth.losses import DistillConfig, FeatureProjections, total_loss
from spikedepth.model import (
    HEAD_KINDS,
    DepthModel,
    ModelConfig,
    merge_spikes,
    spike_attention_product,
)
from spikedepth.neuron import LifParams, mlif
from spikedepth.trace import assert_spike_purity, is_binary


# ---------------------------------------------------------------------------
# spiking attention product


def test_attention_product_hand_fixture():
    q = ad.tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    k = ad.tensor(np.array([[[1.0, 1.0], [0.0, 0.0]]]))
    v = ad.tensor(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    out = spike_attention_product(q, k, v, s=1.0)
    np.testing.assert_array_equal(out.data, np.array([[[0.0, 1.0], [0.0, 1.0]]]))


def test_attention_scores_are_bounded_counts(rng):
    t, n, d = 2, 10, 8
    q = ad.tensor((rng.random((t, n, d)) < 0.5).astype(np.float64))
    k = ad.tensor((rng.random((t, n, d)) < 0.5).astype(np.float64))
    scores = ad.matmul(q, ad.transpose(k, (0, 2, 1))).data
    assert (scores >= 0).all() and (scores <= d).all()
    assert (scores == np.rint(scores)).all()


def test_attention_associativity_exact(rng):
    for _ in range(50):
        n, d = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        q, k, v = ((rng.random((1, n, d)) < 0.5).astype(np.float64) for _ in range(3))
        left = (q[0] @ k[0].T) @ v[0]
        right = q[0] @ (k[0].T @ v[0])
        np.testing.assert_array_equal(left, right)
        out = spike_attention_product(ad.tensor(q), ad.tensor(k), ad.tensor(v), 0.25)
        np.testing.assert_array_equal(out.data[0], left * 0.25)


def test_attention_annihilates_zero_query():
    z = np.zeros((1, 4, 4))
    v = (np.arange(16).reshape(1, 4, 4) % 2).astype(np.float64)
    out = spike_attention_product(ad.tensor(z), ad.tensor(v), ad.tensor(v), 1.0)
    assert not out.data.any()


def test_attention_rejects_non_tnd_operand():
    good = ad.tensor(np.ones((1, 2, 2)))
    for bad in (ad.tensor(np.ones((2, 2))), ad.tensor(np.ones((1, 1, 2, 2)))):
        for operands in ((bad, good, good), (good, bad, good), (good, good, bad)):
            with pytest.raises(DimensionError):
                spike_attention_product(*operands, 1.0)


@pytest.mark.parametrize("grad", [False, True])
def test_attention_rejects_mismatched_operands(grad):
    # one shape check for both products: q [T,N,D], k [T,M,D], v [T,M,Dv]
    q, k, v = (1, 3, 2), (1, 4, 2), (1, 4, 5)
    bad = [((2, 3, 2), k, v), (q, (2, 4, 2), v), (q, k, (2, 4, 5)),  # T
           ((1, 3, 3), k, v), (q, (1, 4, 3), v),  # D
           (q, k, (1, 3, 5)),  # M
           ((3, 2), k, v), (q, (1, 1, 4, 2), v), (q, k, (4, 5))]  # rank
    leaf = ad.parameter if grad else ad.tensor
    for shapes in bad:
        with ad.tape(), pytest.raises(DimensionError):
            spike_attention_product(*(leaf(np.ones(sh, np.float32)) for sh in shapes), 1.0)
    with ad.tape() as tp:
        spike_attention_product(*(leaf(np.ones(sh, np.float32)) for sh in (q, k, v)), 1.0)
    assert ("spike_attention" in _ops(tp.entries)) is not grad


def test_attention_scale_keeps_nonnegativity(rng):
    q, k, v = (ad.tensor((rng.random((1, 6, 6)) < 0.5).astype(float)) for _ in range(3))
    for s in (0.1, 0.25, 2.0):
        assert spike_attention_product(q, k, v, s).data.min() >= 0.0


def _attention_operands(t, n, m, d, dv, density, seed, dtype):
    rng = np.random.default_rng(seed)
    return [(rng.random(shape) < density).astype(dtype) for shape in ((t, n, d), (t, m, d), (t, m, dv))]


def _ops(entries):
    return [e.op for e in entries]


def _in_scope(scope):
    return ad.scope(scope) if scope else nullcontext()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(t=st.integers(1, 3), n=st.integers(1, 16), m=st.integers(1, 16), d=st.integers(1, 16),
       dv=st.integers(1, 16), density=st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6, 1.0]),
       seed=st.integers(0, 2 ** 16), dtype=st.sampled_from([np.float32, np.float64]),
       s=st.sampled_from([0.25, 1 / 3, 2.0]), scope=st.sampled_from(["", "block1.attn"]))
@example(t=2, n=16, m=16, d=16, dv=16, density=0.05, seed=0, dtype=np.float32, s=0.25,
         scope="block1.attn")  # every count of Q K^T is 0 or 1: the binary `av` rule
@example(t=1, n=4, m=4, d=4, dv=4, density=1.0, seed=0, dtype=np.float32, s=0.25,
         scope="block1.attn")  # counts of 4: the N-per-spike `av` rule
def test_fused_attention_matches_the_two_matmul_oracle(t, n, m, d, dv, density, seed, dtype, s, scope):
    """Q (K^T V) for spikes gives the bits of (Q K^T) V and the energy rows
    of its two products; only an eval forward on a gradient tape makes it
    stand aside, and over non-spikes it is still one entry, which purity and
    the audit refuse."""
    q, k, v = _attention_operands(t, n, m, d, dv, density, seed, dtype)
    with ad.tape() as grad_tape, _in_scope(scope):
        want = spike_attention_product(*(ad.parameter(a) for a in (q, k, v)), s)
    assert _ops(grad_tape.entries) == ["transpose", "matmul", "matmul", "scale"]

    got = spike_attention_product(ad.tensor(q), ad.tensor(k), ad.tensor(v), s)  # no tape
    assert got.data.dtype == want.data.dtype and got.data.tobytes() == want.data.tobytes()
    with inspection_tape() as entries, _in_scope(scope):
        spike_attention_product(ad.tensor(q), ad.tensor(k), ad.tensor(v), s)
    assert _ops(entries) == ["spike_attention", "scale"]
    assert price(entries, Module()).rows == price(grad_tape.entries, Module()).rows

    half = [q, k, v]
    half[seed % 3] = half[seed % 3] * 0.5 + 0.25  # not binary anywhere
    with inspection_tape() as entries, ad.scope("block1.attn"):
        spike_attention_product(*map(ad.tensor, half), s)
    assert _ops(entries) == ["spike_attention", "scale"]
    with pytest.raises(ContractError, match="block1.attn"):
        assert_spike_purity(entries)
    with pytest.raises(ContractError, match="block1.attn"):
        price(entries, Module())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(t=st.integers(1, 3), n=st.integers(1, 16), m=st.integers(1, 16), d=st.integers(1, 16),
       dv=st.integers(1, 16), density=st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6, 1.0]),
       seed=st.integers(0, 2 ** 16), dtype=st.sampled_from([np.float32, np.float64]),
       s=st.sampled_from([0.25, 1 / 3, 2.0]), needs=st.sets(st.sampled_from("qkv")))
@example(t=2, n=16, m=12, d=16, dv=9, density=0.0, seed=0, dtype=np.float32, s=0.25,
         needs={"q", "k", "v"})  # silent operands: every gradient is zero
@example(t=3, n=7, m=16, d=5, dv=16, density=1.0, seed=1, dtype=np.float64, s=1 / 3,
         needs={"q", "k", "v"})  # every operand fires: the largest counts
def test_fused_training_attention_has_the_two_matmul_graphs_bits(t, n, m, d, dv, density, seed,
                                                                 dtype, s, needs):
    """A training forward is one `spike_attention` entry on a gradient tape,
    and its output and the gradients of whichever of q, k and v need one
    are the bytes of the `transpose -> matmul -> matmul -> scale` oracle's."""
    q, k, v = _attention_operands(t, n, m, d, dv, density, seed, dtype)
    upstream = np.random.default_rng(seed).standard_normal((t, n, dv)).astype(dtype)

    def run(product):
        leaves = [ad.parameter(a) if name in needs else ad.tensor(a)
                  for name, a in zip("qkv", (q, k, v))]
        with ad.tape() as tp:
            out = product(*leaves)
            loss = ad.reduce_sum(ad.mul(out, ad.tensor(upstream)))
        ops = _ops(tp.entries)
        tp.backward(loss)
        return ops, out.data, [leaf.grad for leaf in leaves]

    got_ops, got, got_grads = run(lambda *qkv: spike_attention_product(*qkv, s, training=True))
    want_ops, want, want_grads = run(lambda *qkv: two_matmul_attention(*qkv, s))
    assert got_ops == ["spike_attention", "scale", "mul", "reduce_sum"]
    assert want_ops == ["transpose", "matmul", "matmul", "scale", "mul", "reduce_sum"]
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    for name, g, w in zip("qkv", got_grads, want_grads):
        assert (g is None) is (w is None) is (name not in needs), name
        assert g is None or (g.dtype == w.dtype and g.tobytes() == w.tobytes()), name


def test_training_step_gradients_match_the_two_matmul_graph(monkeypatch):
    """A tiny model's training step gives every parameter the same gradient
    bytes with the fused attention entry as with the two-matmul oracle in
    the model's place, and attention gradients reach q, k and v."""
    rng = np.random.default_rng(0)
    spikes = random_spikes(rng, p=0.4)
    gt = depth_map(rng.uniform(0.2, 1.0, (16, 16)))
    dcfg = DistillConfig(matched_blocks=(2, 4))

    def step():
        model = tiny_model(seed=1)
        with ad.tape() as tp:
            feats, pred = model.forward(spikes, training=True)
            loss, _, _ = total_loss(feats, pred, gt, None, None, dcfg)
        ops = _ops(tp.entries)
        tp.backward(loss)
        return ops, {name: p.grad for name, p in model.named_params()}

    fused_ops, fused = step()
    monkeypatch.setattr(model_module, "spike_attention_product",
                        lambda q, k, v, s, training: two_matmul_attention(q, k, v, s))
    oracle_ops, oracle = step()
    assert fused_ops.count("spike_attention") == 4 and "matmul" not in fused_ops
    assert oracle_ops.count("matmul") == 8 and "spike_attention" not in oracle_ops
    for part in ("q", "k", "v"):
        assert np.any(fused[f"block1.attn.{part}.conv.w"]), part
    assert fused.keys() == oracle.keys()
    for name, g in fused.items():
        assert g.tobytes() == oracle[name].tobytes(), name


def test_purity_counts_fused_attention_as_two_products(rng):
    model = tiny_model(seed=1)
    x = random_spikes(rng, p=0.4)
    counters = {}
    for mode in ("grad", "inspect"):
        with TAPE_MODES[mode]() as entries:
            feats, _ = model.forward(x, training=False)
        assert ("spike_attention" in _ops(entries)) is (mode == "inspect")
        counters[mode] = assert_spike_purity(entries, boundary_tensors=feats)
    assert counters["grad"] == counters["inspect"]


# ---------------------------------------------------------------------------
# residual merge


def test_merge_clamp_is_binary_or():
    a = ad.tensor(np.array([0.0, 0.0, 1.0, 1.0]))
    b = ad.tensor(np.array([0.0, 1.0, 0.0, 1.0]))
    np.testing.assert_array_equal(merge_spikes(a, b).data, [0.0, 1.0, 1.0, 1.0])


def test_merge_with_zero_path_is_identity(rng):
    x = ad.tensor((rng.random(32) < 0.5).astype(np.float64))
    zero = ad.tensor(np.zeros(32))
    np.testing.assert_array_equal(merge_spikes(x, zero).data, x.data)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(DimensionError):
        tiny_model_cfg(h=20)
    with pytest.raises(DimensionError):
        tiny_model_cfg(d=6)
    # multiples of 8 (or 4) that are not positive sizes
    for bad in (dict(d=0), dict(d=-4), dict(h=0), dict(w=0), dict(h=-8), dict(w=-16)):
        with pytest.raises(DimensionError):
            tiny_model_cfg(**bad)
    with pytest.raises(ConfigError):
        tiny_model_cfg(s=0.0)
    with pytest.raises(ConfigError):
        tiny_model_cfg(s=float("nan"))
    with pytest.raises(ConfigError):
        tiny_model_cfg(merge="xor")
    # the network is spike-driven only: a plain-add merge or summed rates are refused
    with pytest.raises(ConfigError, match="merge must be 'clamp'"):
        ModelConfig(merge="add")
    with pytest.raises(ConfigError, match="rate_mode must be 'mean'"):
        ModelConfig(rate_mode="sum")
    with pytest.raises(ConfigError):
        tiny_model_cfg(head="fusion", l=3)
    with pytest.raises(ConfigError, match="mlp_ratio must be >= 1"):
        tiny_model_cfg(mlp_ratio=0)
    cfg = tiny_model_cfg()
    assert cfg.embed_channels == (2, 4, 8)
    assert cfg.tokens == 4


@pytest.mark.parametrize("seeded", [True, False])
def test_weight_shape_numpy_refuses_is_a_dimension_error(seeded):
    """A model size whose weight shape numpy refuses before allocating (a
    dimension beyond its index range, or a byte count beyond it) is a
    DimensionError from building the layer, drawn or zero-filled."""
    rng = np.random.default_rng(0) if seeded else None
    for shape in ((24999999999999999999, 2, 3, 3), (2 ** 62, 2, 3, 3)):
        with pytest.raises(DimensionError, match=r"model size too large: weight shape"):
            kaiming_uniform(rng, shape, 18)


def test_linear_fcn_head_allows_other_depths():
    cfg = ModelConfig(t=2, c=2, h=16, w=16, d=8, l=2, mlp_ratio=2, head="linear_fcn")
    model = DepthModel(cfg, np.random.default_rng(0))
    pred = model.predict(random_spikes(np.random.default_rng(1)))
    assert pred.shape == (16, 16)


# ---------------------------------------------------------------------------
# forward structure


def test_backbone_shapes_and_feature_count(rng):
    """The model, with either head, and the KD projections are float32 by
    construction, and so are the block features and the prediction, also
    of a float64 stream."""
    projections = FeatureProjections(tiny_distill_cfg(), 8, np.random.default_rng(0))
    assert tensor_dtypes(projections) == {np.dtype(np.float32)}
    for head in HEAD_KINDS:
        model = DepthModel(tiny_model_cfg(head=head), np.random.default_rng(0))
        assert tensor_dtypes(model) == {np.dtype(np.float32)}, head
        with ad.tape():
            feats, pred = model.forward(random_spikes(rng, dtype=np.float64), training=False)
        assert len(feats) == 4
        for f in feats:
            assert f.data.shape == (2, 8, 2, 2)  # [T, D, H/8, W/8]
            assert f.data.dtype == np.float32 and set(np.unique(f.data)) <= {0.0, 1.0}
        assert pred.data.shape == (16, 16) and pred.data.dtype == np.float32


def test_backbone_rejects_wrong_input_shape():
    model = tiny_model()
    with pytest.raises(DimensionError):
        model.predict(np.zeros((2, 2, 8, 8), dtype=np.float32))


def test_backbone_rejects_non_binary_when_validating():
    model = tiny_model()
    x = np.full((2, 2, 16, 16), 0.5, dtype=np.float32)
    with pytest.raises(ContractError):
        model.forward(x, training=False, validate=True)


def test_zero_input_zero_features(rng):
    model = tiny_model()
    with ad.tape():
        feats, pred = model.forward(np.zeros((2, 2, 16, 16), np.float32), training=False)
    for f in feats:
        assert not f.data.any()
    assert pred.data.shape == (16, 16)


def test_forward_deterministic(rng):
    model = tiny_model(seed=3)
    x = random_spikes(rng)
    a = model.predict(x)
    b = model.predict(x)
    assert a.tobytes() == b.tobytes()


def test_no_softmax_and_purity_small_scale(rng):
    model = tiny_model(seed=1)
    x = random_spikes(rng, p=0.4)
    with ad.tape() as t:
        feats, pred = model.forward(x, training=False, validate=True)
        counters = assert_spike_purity(t.entries, boundary_tensors=feats)
    assert "softmax" not in {e.op for e in t.entries}
    assert counters["convs"] > 0 and counters["neurons"] > 0
    assert counters["matmuls"] >= 2 * model.cfg.l  # QK^T and (QK^T)V per block
    assert counters["boundaries"] == model.cfg.l
    # what the sensor-size bench checks of this forward: one integer QK^T
    # matmul per block, and a prediction strictly inside (0, 1)
    qk = [e for e in t.entries if e.op == "matmul" and e.scope.endswith("attn.qk")]
    assert len(qk) == model.cfg.l
    for e in qk:
        np.testing.assert_array_equal(e.output.data, np.rint(e.output.data))
    assert pred.data.min() > 0.0 and pred.data.max() < 1.0


def test_trace_scope_naming(rng):
    model = tiny_model()
    with ad.tape() as t:
        model.forward(random_spikes(rng), training=False)
    scopes = [e.scope for e in t.entries]
    for prefix in ("embed", "block1.attn", "block4.merge2", "head"):
        assert any(s.startswith(prefix) for s in scopes), prefix
    assert any(".qk" in s for s in scopes) and any(".av" in s for s in scopes)


def test_purity_catches_planted_violation(rng):
    # the instrumentation pass itself must be capable of failing
    model = tiny_model()
    with ad.tape() as t:
        model.forward(random_spikes(rng), training=False)
    bad = ad.tensor(np.full((2, 2), 0.5))
    with pytest.raises(ContractError):
        assert_spike_purity(t.entries, boundary_tensors=[bad])


def _half(shape):
    return ad.tensor(np.full(shape, 0.5, np.float32))


def _plant_neuron():
    out = mlif(_half((2, 3)), LifParams())
    out.data[...] = 0.5


def _plant_attention():
    q, k, v = (ad.tensor(np.ones((1, 2, 2), np.float32)) for _ in range(3))
    spike_attention_product(q, k, v, 1.0)  # fused on an inspection tape
    v.data[...] = 0.5  # only the last operand


# one planted violation per purity rule: (scope, op recorded there)
PLANTED = {
    "conv": ("block1.mlp.fc1.conv",
             lambda: ad.conv2d(_half((1, 1, 3, 3)), ad.parameter(np.ones((1, 1, 1, 1))))),
    "matmul": ("block1.attn.av", lambda: ad.matmul(_half((2, 2)), _half((2, 2)))),
    "mul": ("block1.attn.gate", lambda: ad.mul(_half((2, 2)), _half((2, 2)))),
    "spike_attention": ("block1.attn", _plant_attention),
    "neuron": ("block1.attn.q.lif", _plant_neuron),
    "clamp_merge": ("block1.merge1", lambda: ad.clamp(ad.tensor(np.full((2, 2), 2.0)), 0.0, 2.0)),
    "add_merge": ("block1.merge2", lambda: ad.add(_half((2, 2)), ad.tensor(np.ones((2, 2))))),
    # no op makes a softmax: an entry recorded by hand, outside the backbone
    "softmax": ("head.attn", lambda: ad._op("softmax", (_half((2, 2)),), _half((2, 2)).data, None)),
}


@pytest.mark.parametrize("rule", [*PLANTED, "boundary"])
def test_purity_catches_one_planted_violation_per_rule(rule):
    if rule == "boundary":
        with pytest.raises(ContractError):
            assert_spike_purity([], boundary_tensors=[_half((2, 2))])
        return
    scope, record = PLANTED[rule]
    with inspection_tape() as entries, ad.scope(scope):
        record()
    with pytest.raises(ContractError, match=scope):
        assert_spike_purity(entries)


def test_purity_passes_a_product_with_a_parameter_operand():
    with inspection_tape() as entries, ad.scope("block1.attn.gate"):
        ad.mul(ad.parameter(np.full((2, 2), 0.5)), _half((2, 2)))
        ad.matmul(_half((2, 2)), ad.parameter(np.full((2, 2), 0.5)))
    counters = assert_spike_purity(entries)
    assert counters["muls"] == counters["matmuls"] == 0


def test_purity_catches_non_binary_attention_operand(rng):
    # the tape, not spike_attention_product, checks the spikes that reach QK^T
    model = tiny_model()
    with ad.tape() as t:
        model.forward(random_spikes(rng), training=False)
    q_lif = next(e for e in t.entries if e.op == "mlif" and e.scope == "block1.attn.q.lif")
    q_lif.output.data[...] = 0.5
    with pytest.raises(ContractError, match="block1.attn.q.lif"):
        assert_spike_purity(t.entries)


def test_is_binary_over_dtypes():
    # same answers as the np.isin oracle: -0.0 is 0, NaN is neither 0 nor 1
    arrays = [np.array([0.0, 1.0, -0.0], dt) for dt in (np.float32, np.float64)]
    arrays += [np.array([0.0, 1.0, -0.0, bad], dt)
               for dt in (np.float32, np.float64) for bad in (0.5, 2.0, np.nan)]
    arrays += [np.array([False, True]), np.array([0, 1], np.int64), np.array([0, 1, 2], np.int32),
               np.zeros((0, 3))]
    got = [is_binary(a) for a in arrays]
    assert got == [bool(np.isin(a, (0, 1)).all()) for a in arrays]
    assert got == [True, True] + [False] * 6 + [True, True, False, True]


def test_param_names_unique_and_prefixed(rng):
    model = tiny_model()
    names = [n for n, _ in model.named_params()]
    assert len(names) == len(set(names))
    assert any(n.startswith("embed.s1.conv") for n in names)
    assert any(n.startswith("block1.attn.q.conv") for n in names)
    assert any(n.startswith("block4.mlp.fc2") for n in names)
    assert any(n.startswith("head.") for n in names)
    # construction order: embed stages, blocks 1..L (attention then MLP), head
    assert names[:4] == ["embed.s1.conv.w", "embed.s1.conv.gamma", "embed.s1.conv.beta",
                         "embed.s2.conv.w"]
    assert names[9:12] == ["block1.attn.q.conv.w", "block1.attn.q.conv.gamma",
                           "block1.attn.q.conv.beta"]
    assert names[-3:] == ["head.l4.conv.gamma", "head.l4.conv.beta", "head.proj.w"]
    buffers = [n for n, _ in model.named_buffers()]
    assert buffers[:2] == ["embed.s1.conv.running_mean", "embed.s1.conv.running_var"]
    assert set(buffers).isdisjoint(names)
    # every parameter name is its layer's tape scope plus the attribute name
    with ad.tape() as t:
        model.forward(random_spikes(rng), training=True)
    conv_scopes = {e.scope for e in t.entries if e.op == "conv2d"}
    assert conv_scopes == {n.rsplit(".", 1)[0] for n in names if n.endswith(".w")}


def test_module_walker_naming():
    rng = np.random.default_rng(0)

    class Leafless(Module):
        name = "leafless"

    class Tree(Module):
        name = "tree"

        def __init__(self):
            self.first = Conv("first", 1, 1, 1, rng, bias=False)
            self.pairs = [(ConvBN("p1.a", 1, 1, 1, rng), Leafless()), ()]
            self.by_key = {"z": Conv("z", 1, 1, 1, rng), "a": Conv("a", 1, 1, 1, rng)}
            self.table = np.zeros(2)
            self.activation = ad.tensor(np.ones(2))  # not a parameter: skipped
            self.scale = 3.0

    tree = Tree()
    assert tree.first.b is None
    assert [n for n, _ in tree.named_params()] == [
        "tree.first.w",
        "tree.p1.a.w", "tree.p1.a.gamma", "tree.p1.a.beta",
        "tree.a.w", "tree.a.b", "tree.z.w", "tree.z.b",
    ]
    assert [n for n, _ in tree.named_buffers()] == [
        "tree.p1.a.running_mean", "tree.p1.a.running_var", "tree.table",
    ]
    assert dict(tree.named_params())["tree.a.w"] is tree.by_key["a"].w
    assert dict(tree.named_buffers())["tree.table"] is tree.table


def test_named_tensors_is_one_walk(monkeypatch):
    from spikedepth.checkpoint import _named_tensors

    model = tiny_model()
    params, buffers = model.named_tensors()
    for got, want in ((params, model.named_params()), (buffers, model.named_buffers())):
        assert [n for n, _ in got] == [n for n, _ in want]
        assert all(a is b for (_, a), (_, b) in zip(got, want))
    walks = []
    walk = Module._named

    def spy(self, prefix=""):
        walks.append(self is model)
        return walk(self, prefix)

    monkeypatch.setattr(Module, "_named", spy)
    names = [n for n, _ in _named_tensors(model)]
    assert walks.count(True) == 1
    assert names == [n for n, _ in params] + [n for n, _ in buffers]
