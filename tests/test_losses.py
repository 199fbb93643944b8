"""Distillation losses: perceptual matching and scale-invariant depth error."""
import numpy as np
import pytest

from helpers import (
    assert_fd_match,
    depth_map,
    random_spikes,
    tensor_dtypes,
    tiny_distill_cfg,
    tiny_model,
    tiny_projections,
)
from spikedepth import autodiff as ad
from spikedepth.errors import ConfigError, DataError, DimensionError, EmptyMaskError
from spikedepth.losses import DistillConfig, perceptual_loss, si_l2_loss, total_loss


# ---------------------------------------------------------------------------
# config


def test_distill_config_validation():
    with pytest.raises(ConfigError):
        DistillConfig(lambda_p=-0.1)
    with pytest.raises(ConfigError):
        DistillConfig(lambda_2=float("nan"))
    with pytest.raises(ConfigError):
        DistillConfig(matched_blocks=())
    with pytest.raises(ConfigError, match="distinct"):
        DistillConfig(matched_blocks=(4, 4))
    with pytest.raises(ConfigError):
        DistillConfig(matched_blocks=(5,)).check_blocks(4)
    with pytest.raises(ConfigError):
        DistillConfig(teacher_dim=0)
    DistillConfig(matched_blocks=(2, 4)).check_blocks(4)


# ---------------------------------------------------------------------------
# perceptual loss


def test_perceptual_identity_is_zero(rng):
    x = rng.standard_normal((3, 4, 4))
    assert perceptual_loss(ad.tensor(x), ad.tensor(x.copy())).data == 0.0


def test_perceptual_unit_offset_is_one(rng):
    x = rng.standard_normal((2, 3, 5))
    assert perceptual_loss(ad.tensor(x + 1.0), ad.tensor(x)).data == pytest.approx(1.0)


def test_perceptual_quadratic_homogeneity(rng):
    x, y = rng.standard_normal((2, 4, 4)), rng.standard_normal((2, 4, 4))
    base = perceptual_loss(ad.tensor(x), ad.tensor(y)).data
    scaled = perceptual_loss(ad.tensor(2 * x), ad.tensor(2 * y)).data
    assert scaled == pytest.approx(4.0 * base, rel=1e-12)


def test_perceptual_nonnegative_and_shape_checked(rng):
    for _ in range(20):
        x, y = rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3))
        assert perceptual_loss(ad.tensor(x), ad.tensor(y)).data >= 0.0
    with pytest.raises(DimensionError):
        perceptual_loss(ad.tensor(np.zeros((2, 3, 3))), ad.tensor(np.zeros((3, 3, 3))))


# ---------------------------------------------------------------------------
# scale-invariant L2


def test_si_perfect_prediction_is_zero(rng):
    gt = depth_map(rng.random((6, 6)))
    assert si_l2_loss(ad.tensor(gt.values.astype(np.float64)), gt).data == pytest.approx(0.0)


def test_si_constant_residual_is_zero(rng):
    gt = depth_map(rng.random((5, 5)))
    pred = ad.tensor(gt.values.astype(np.float64) + 0.37)
    assert si_l2_loss(pred, gt).data == pytest.approx(0.0, abs=1e-12)


def test_si_hand_fixture_residual_variance():
    # residuals [0, 2]: mean(r^2) - mean(r)^2 = 2 - 1 = 1
    gt = depth_map(np.array([[0.0, 2.0]]))
    pred = ad.tensor(np.zeros((1, 2)))
    assert si_l2_loss(pred, gt).data == pytest.approx(1.0)


def test_si_offset_invariance_quick(rng):
    for _ in range(20):
        gt = depth_map(rng.random((4, 4)))
        pred = rng.random((4, 4))
        c = rng.uniform(-3, 3)
        a = si_l2_loss(ad.tensor(pred), gt).data
        b = si_l2_loss(ad.tensor(pred + c), gt).data
        assert abs(a - b) <= 1e-9


def test_si_masked_pixels_do_not_count(rng):
    vals = rng.random((4, 4))
    pred = rng.random((4, 4))
    mask = np.ones((4, 4), bool)
    mask[0] = False
    a = si_l2_loss(ad.tensor(pred), depth_map(vals, mask)).data
    # recompute on the cropped region only
    b = si_l2_loss(ad.tensor(pred[1:]), depth_map(vals[1:])).data
    assert a == pytest.approx(b, rel=1e-12)


def test_si_empty_mask_raises():
    gt = depth_map(np.zeros((2, 2)), np.zeros((2, 2), bool))
    with pytest.raises(EmptyMaskError):
        si_l2_loss(ad.tensor(np.zeros((2, 2))), gt)


def test_si_shape_mismatch_raises():
    gt = depth_map(np.zeros((2, 2)))
    with pytest.raises(DimensionError, match=r"pred \(2, 3\) vs gt \(2, 2\)"):
        si_l2_loss(ad.tensor(np.zeros((2, 3))), gt)


def test_si_nonnegative(rng):
    for _ in range(30):
        gt = depth_map(rng.random((3, 5)))
        assert si_l2_loss(ad.tensor(rng.random((3, 5))), gt).data >= -1e-15


def test_si_log_domain_scale_invariance(rng):
    # multiplying predictions by k shifts log-residuals by a constant
    gt = depth_map(rng.random((5, 5)) * 0.8 + 0.1)
    pred = rng.random((5, 5)) * 0.8 + 0.1
    a = si_l2_loss(ad.tensor(pred), gt, log_domain=True).data
    b = si_l2_loss(ad.tensor(pred * 3.7), gt, log_domain=True).data
    assert a == pytest.approx(b, abs=1e-9)


def test_si_gradient_matches_fd(rng):
    gt = depth_map(rng.random((4, 4)))
    pred0 = rng.random((4, 4))
    assert_fd_match(lambda p: si_l2_loss(p, gt), [pred0])
    assert_fd_match(lambda p: si_l2_loss(p, gt, log_domain=True), [pred0 + 0.1])


# ---------------------------------------------------------------------------
# total loss


def _forward_losses(kd=True, lambda_p=1.0, lambda_2=1.0, si_log_domain=False, seed=0):
    rng = np.random.default_rng(seed)
    model = tiny_model(seed=seed)
    cfg = tiny_distill_cfg(lambda_p=lambda_p, lambda_2=lambda_2,
                           si_log_domain=si_log_domain)
    projections = tiny_projections(cfg, seed=seed)
    spikes = random_spikes(rng, p=0.4)
    gt = depth_map(rng.random((16, 16)) * 0.8 + 0.1)
    teacher = rng.standard_normal((4, 2, 2)).astype(np.float32)
    with ad.tape() as t:
        feats, pred = model.forward(spikes, training=True)
        total, lp, l2 = total_loss(feats, pred, gt, teacher if kd else None,
                                   projections if kd else None, cfg)
    return t, total, lp, l2


def test_total_is_weighted_sum():
    _, total, lp, l2 = _forward_losses(lambda_p=0.7, lambda_2=2.0)
    assert total.data == pytest.approx(0.7 * lp + 2.0 * l2, rel=1e-6)
    assert lp > 0.0 and l2 > 0.0


def test_total_lambda_p_zero_is_pure_depth_loss():
    _, total, lp, l2 = _forward_losses(lambda_p=0.0)
    assert lp == 0.0
    assert total.data == pytest.approx(l2, rel=1e-7)


def test_total_kd_off_records_no_teacher_ops():
    tape, total, lp, l2 = _forward_losses(kd=False)
    scopes = {e.scope for e in tape.entries}
    assert not any(s.startswith("loss.perceptual") for s in scopes)
    assert lp == 0.0 and total.data == pytest.approx(l2, rel=1e-7)


def test_total_kd_needs_teacher_and_projections(rng):
    model = tiny_model()
    cfg = tiny_distill_cfg()
    projections = tiny_projections(cfg)
    spikes = random_spikes(rng)
    gt = depth_map(rng.random((16, 16)))
    with ad.tape():
        feats, pred = model.forward(spikes, training=True)
        with pytest.raises(DataError):
            total_loss(feats, pred, gt, None, projections, cfg)
        # without projections KD is off, so no teacher is needed
        _, lp, _ = total_loss(feats, pred, gt, None, None, cfg)
    assert lp == 0.0


def test_total_teacher_receives_no_gradient(rng):
    """Also in float64: a model and projections cast to it, as criterion 03
    builds them, hold only float64 tensors, and every op of the KD step, the
    prediction and every gradient are float64; none runs in float32."""
    for dtype in (np.float32, np.float64):
        model = tiny_model(dtype=dtype)
        cfg = tiny_distill_cfg()
        projections = tiny_projections(cfg, dtype=dtype)
        assert tensor_dtypes(model, projections) == {np.dtype(dtype)}
        teacher = ad.tensor(np.zeros((4, 2, 2), np.float32))  # requires_grad False
        gt = depth_map(rng.random((16, 16)))
        with ad.tape() as t:
            feats, pred = model.forward(random_spikes(rng), training=True)
            total, _, _ = total_loss(feats, pred, gt, teacher.data, projections, cfg)
        assert {e.output.data.dtype for e in t.entries} == {np.dtype(dtype)}
        t.backward(total)
        assert teacher.grad is None
        # projections and head do receive gradients
        assert all(p.grad is not None for _, p in projections.named_params())
        head_grads = [p.grad for n, p in model.named_params() if n.startswith("head.")]
        assert all(g is not None for g in head_grads)
        grads = [p.grad for _, p in list(model.named_params()) + list(projections.named_params())]
        assert {g.dtype for g in grads if g is not None} == {np.dtype(dtype)}


def test_total_both_components_zero(rng):
    # prediction equals gt and projected features equal the teacher copy
    model = tiny_model()
    cfg = tiny_distill_cfg()
    projections = tiny_projections(cfg)
    spikes = random_spikes(rng)
    with ad.tape():
        feats, pred = model.forward(spikes, training=False)
        gt = depth_map(pred.data.copy())
        from spikedepth.head import rate_encode

        projected = projections.convs[4].forward(rate_encode(feats[3]))
        total, lp, l2 = total_loss(feats, pred, gt, projected.data[0].copy(),
                                   projections, cfg)
    assert total.data == pytest.approx(0.0, abs=1e-10)
    assert lp == pytest.approx(0.0, abs=1e-12) and l2 == pytest.approx(0.0, abs=1e-12)


def test_total_multi_block_matching(rng):
    model = tiny_model()
    cfg = tiny_distill_cfg(matched_blocks=(2, 4)).check_blocks(4)
    projections = tiny_projections(cfg)
    gt = depth_map(rng.random((16, 16)))
    teacher = rng.standard_normal((4, 2, 2)).astype(np.float32)
    with ad.tape() as t:
        feats, pred = model.forward(random_spikes(rng), training=True)
        total, lp, l2 = total_loss(feats, pred, gt, teacher, projections, cfg)
    t.backward(total)
    assert lp > 0.0
    for i in (2, 4):
        for _, p in projections.convs[i].named_params():
            assert p.grad is not None
