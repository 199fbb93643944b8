"""Fusion depth head: rate encoding, level fusion, sigmoid codomain."""
import numpy as np
import pytest

from helpers import random_spikes, tiny_model, tiny_model_cfg
from spikedepth import autodiff as ad
from spikedepth.errors import DimensionError
from spikedepth.head import FusionHead, LinearFcnHead, rate_encode


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


def test_fusion_projection_has_no_bias():
    names = [n for n, _ in _head().named_params()]
    assert "head.proj.w" in names and "head.proj.b" not in names
    assert "head.l2.conv.w" in names and "head.l4.conv.gamma" in names


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
