"""Fusion depth head: rate encoding, level fusion, sigmoid codomain, and the
folded eval tail against the reference graph."""
import numpy as np
import pytest

from helpers import (
    FOLDED_PRED_TOL,
    TAPE_MODES,
    cast,
    inspection_tape,
    random_spikes,
    tiny_model,
    tiny_model_cfg,
)
from spikedepth import autodiff as ad
from spikedepth.checkpoint import load_model, save_checkpoint
from spikedepth.config import TrainConfig
from spikedepth.dataio import gen_synthetic
from spikedepth.energy import price
from spikedepth.errors import DimensionError
from spikedepth.head import FOLDED_LAYERS, FusionHead, LinearFcnHead, rate_encode
from spikedepth.losses import DistillConfig
from spikedepth.model import DepthModel, ModelConfig
from spikedepth.train import train


def _spike_stack(rng, t=2, d=8, h=2, w=2, p=0.5):
    return ad.tensor((rng.random((t, d, h, w)) < p).astype(np.float32))


def _zero_stack(t=2, d=8, h=2, w=2):
    return ad.tensor(np.zeros((t, d, h, w), dtype=np.float32))


def _head(seed=0):
    return FusionHead(tiny_model_cfg(), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# rate encoding


def test_rate_all_ones_is_one():
    x = ad.tensor(np.ones((4, 3, 2, 2)))
    np.testing.assert_array_equal(rate_encode(x).data, np.ones((1, 3, 2, 2)))


def test_rate_one_in_four_is_quarter():
    x = np.zeros((4, 1, 1, 1))
    x[2] = 1.0
    assert rate_encode(ad.tensor(x)).data.item() == 0.25


def test_rate_zero_spikes_zero_rate():
    assert not rate_encode(_zero_stack()).data.any()


def test_rate_rejects_empty_time_axis():
    with pytest.raises(DimensionError):
        rate_encode(ad.tensor(np.zeros((0, 2, 2))))


# ---------------------------------------------------------------------------
# fusion head


def test_fusion_output_shape_and_open_interval(rng):
    head = _head()
    feats = [_spike_stack(rng) for _ in range(4)]
    out = head.forward(feats, training=False).data
    assert out.shape == (16, 16)
    assert (out > 0.0).all() and (out < 1.0).all()


def test_fusion_zero_features_give_half():
    # zero rates propagate through the bias-free affine stack to sigmoid(0)
    head = _head()
    feats = [_zero_stack() for _ in range(4)]
    for training in (False, True):
        out = head.forward(feats, training).data
        np.testing.assert_allclose(out, 0.5, atol=1e-7)


def test_fusion_fully_zeroed_weights_give_half(rng):
    head = _head(seed=2)
    for _, p in head.named_params():
        p.data[...] = 0.0
    for _, b in head.named_buffers():
        b[...] = 0.0
    feats = [_spike_stack(rng) for _ in range(4)]
    np.testing.assert_allclose(head.forward(feats, training=False).data, 0.5, atol=1e-7)


def test_fusion_final_level_contributes(rng):
    # zeroing F1..F3 but keeping F4 still moves the output: skip path is live
    head = _head(seed=1)
    zeros = [_zero_stack() for _ in range(4)]
    base = head.forward(zeros, training=False).data
    feats = [_zero_stack(), _zero_stack(), _zero_stack(), _spike_stack(rng, p=0.7)]
    out = head.forward(feats, training=False).data
    assert np.abs(out - base).max() > 0.0


def test_fusion_every_level_contributes(rng):
    head = _head(seed=4)
    zeros = [_zero_stack() for _ in range(4)]
    base = head.forward(zeros, training=False).data
    for i in range(4):
        feats = [_zero_stack() for _ in range(4)]
        feats[i] = _spike_stack(rng, p=0.7)
        out = head.forward(feats, training=False).data
        assert np.abs(out - base).max() > 0.0, f"level {i + 1} is dead"


def test_fusion_resolution_doubles_per_level(rng):
    head = _head()
    feats = [_spike_stack(rng) for _ in range(4)]
    with ad.tape() as t:
        head.forward(feats, training=False)
    add_shapes = {e.output.data.shape for e in t.entries
                  if e.op == "add" and e.scope.startswith("head")}
    # fusion levels Y2, Y3, Y4 at H/4, H/2, H for H=16
    assert {(1, 8, 4, 4), (1, 8, 8, 8), (1, 8, 16, 16)} <= add_shapes


def test_fusion_needs_exactly_four_levels(rng):
    head = _head()
    with pytest.raises(DimensionError):
        head.forward([_spike_stack(rng)] * 3, training=False)


def test_linear_fcn_needs_a_feature_stack():
    head = LinearFcnHead(tiny_model_cfg(), np.random.default_rng(0))
    with pytest.raises(DimensionError, match="at least one feature stack"):
        head.forward([], training=False)


def test_fusion_projection_has_no_bias():
    names = [n for n, _ in _head().named_params()]
    assert "head.proj.w" in names and "head.proj.b" not in names
    assert "head.l2.conv.w" in names and "head.l4.conv.gamma" in names


# ---------------------------------------------------------------------------
# folded eval tail

def _randomise_bn(head, rng):
    """Random gamma, beta, running mean and running variance in every batch
    norm of `head`, so that no affine of the fold is the identity."""
    for conv in (head.conv2, head.conv3, head.conv4):
        d = conv.gamma.data.shape[0]
        conv.gamma.data[...] = rng.uniform(-2.0, 2.0, d)
        conv.beta.data[...] = rng.standard_normal(d)
        conv.running_mean[...] = rng.standard_normal(d)
        conv.running_var[...] = rng.uniform(0.05, 3.0, d)


def _logits(head, feats, mode):
    """The head's pre-sigmoid map and its tape entries, on a gradient tape
    (the reference graph) or an inspection tape (the folded tail)."""
    with TAPE_MODES[mode]() as entries:
        head.forward(feats, training=False)
    (sig,) = [e for e in entries if e.op == "sigmoid"]
    return sig.inputs[0].data[0, 0], entries


def test_folded_tail_equals_reference_in_float64(rng):
    """With random BN affines and active features on a non-square map, the
    folded tail equals the reference head's logits to 1e-12, borders
    included; it records one `fusion_tail` entry in place of the reference
    layers, and the untaped forward predicts the inspection tape's bits."""
    head = cast(FusionHead(tiny_model_cfg(), np.random.default_rng(3)), np.float64)
    _randomise_bn(head, rng)
    feats = [ad.tensor((rng.random((2, 8, 3, 5)) < 0.5).astype(np.float64)) for _ in range(4)]
    ref, ref_entries = _logits(head, feats, "grad")
    folded, entries = _logits(head, feats, "inspect")
    assert folded.shape == (24, 40) and np.abs(ref).max() > 1.0
    diff = np.abs(folded - ref)
    assert diff.max() <= 1e-12
    assert max(diff[[0, -1]].max(), diff[:, [0, -1]].max()) <= 1e-12  # the padded borders
    assert [e.op for e in entries].count("fusion_tail") == 1
    ref_convs = {e.scope: e.op for e in ref_entries if e.op in ("conv2d", "conv_bn")}
    assert {name: ref_convs.get(f"head.{name}") for name in FOLDED_LAYERS} == {
        "l3.conv": "conv_bn", "l4.conv": "conv_bn", "proj": "conv2d"}
    assert {e.scope for e in entries if e.op == "conv_bn"} == {"head.l2.conv"}
    with inspection_tape():
        inspected = head.forward(feats, training=False).data
    assert np.array_equal(head.forward(feats, training=False).data, inspected)


def test_folded_tail_builds_its_kernels_from_the_live_parameters(rng):
    """A parameter changed between two calls changes the next prediction
    exactly as it changes the reference graph's: nothing is cached."""
    head = cast(FusionHead(tiny_model_cfg(), np.random.default_rng(5)), np.float64)
    _randomise_bn(head, rng)
    feats = [ad.tensor((rng.random((2, 8, 2, 2)) < 0.5).astype(np.float64)) for _ in range(4)]
    before = head.forward(feats, training=False).data
    for arr, factor in ((head.conv3.running_var, 2.0), (head.conv4.w.data, -1.0),
                        (head.proj.w.data, 3.0)):
        arr *= factor
        after = head.forward(feats, training=False).data
        assert np.abs(after - before).max() > 1e-6
        with ad.tape():
            ref = head.forward(feats, training=False).data
        assert np.abs(after - ref).max() <= 1e-12
        before = after


@pytest.fixture(scope="module")
def trained_models(tmp_path_factory):
    """A recipe model after a short KD training, reloaded from its
    checkpoint, and the same weights in a 256x320 model, each with one
    input of its size; a short training is enough for its blocks to fire."""
    recipe = dict(t=4, c=2, h=64, w=64, d=64, l=4)
    data = gen_synthetic(seed=7, n_samples=4, t=4, h=64, w=64, teacher_dim=16)
    out = tmp_path_factory.mktemp("folded")
    result = train(data, ModelConfig(**recipe), DistillConfig(teacher_dim=16, si_log_domain=True),
                   TrainConfig(seed=7, steps=40, lr=1e-3), out)
    model, _, _ = load_model(result.checkpoint_path)
    sensor = DepthModel(ModelConfig(**dict(recipe, h=256, w=320)), np.random.default_rng(0))
    weights = dict(model.named_params())
    for name, p in sensor.named_params():
        p.data[...] = weights[name].data
    buffers = dict(model.named_buffers())
    for name, b in sensor.named_buffers():
        b[...] = buffers[name]
    (big,) = gen_synthetic(seed=8, n_samples=1, t=4, h=256, w=320, teacher_dim=16)
    return {"recipe": (model, data[0].spikes.to_dense()),
            "sensor": (sensor, big.spikes.to_dense())}


@pytest.mark.parametrize("size", ["recipe", "sensor"])
def test_folded_predict_matches_reference_graph(trained_models, size):
    """`predict` against `forward` on a gradient tape at training=False,
    which runs the reference head: bit-equal block features of blocks that
    fire, predictions within FOLDED_PRED_TOL, and one priced report."""
    model, spikes = trained_models[size]
    with ad.tape() as tp:
        ref_feats, ref_pred = model.forward(spikes, training=False)
    ref_lines = price(tp.entries, model).to_lines()
    del tp  # holds the backward state of the whole forward
    feats, pred = model.forward(spikes, training=False)
    assert all(np.array_equal(f.data, r.data) for f, r in zip(feats, ref_feats))
    assert all(f.data.any() for f in feats)  # every block fires
    assert np.abs(pred.data - ref_pred.data).max() <= FOLDED_PRED_TOL
    assert np.array_equal(model.predict(spikes), pred.data)
    with inspection_tape() as entries:
        _, traced_pred = model.forward(spikes, training=False)
    assert np.array_equal(traced_pred.data, pred.data)
    assert price(entries, model).to_lines() == ref_lines


# ---------------------------------------------------------------------------
# linear FCN baseline


def test_linear_fcn_shape_and_codomain(rng):
    head = LinearFcnHead(tiny_model_cfg(), np.random.default_rng(0))
    feats = [_spike_stack(rng) for _ in range(4)]
    out = head.forward(feats, training=False).data
    assert out.shape == (16, 16)
    assert (out > 0.0).all() and (out < 1.0).all()


def test_linear_fcn_ignores_earlier_levels(rng):
    head = LinearFcnHead(tiny_model_cfg(), np.random.default_rng(0))
    last = _spike_stack(rng)
    a = head.forward([_spike_stack(rng) for _ in range(3)] + [last], training=False).data
    b = head.forward([_zero_stack() for _ in range(3)] + [last], training=False).data
    np.testing.assert_array_equal(a, b)


def test_model_prediction_lies_in_unit_interval(rng):
    model = tiny_model(seed=5)
    pred = model.predict(random_spikes(rng, p=0.5))
    assert (pred > 0.0).all() and (pred < 1.0).all()
