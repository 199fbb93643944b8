"""Depth metric definitions against hand-computed fixtures and invariances."""
import numpy as np
import pytest

from helpers import depth_map
from spikedepth.errors import ConfigError, DimensionError, EmptyMaskError
from spikedepth.metrics import METRIC_KEYS, MetricsReport, average_reports, evaluate

# gt [0.25, 0.5, 1.0] vs constant prediction 0.5; every value below is
# worked out by hand from the definitions (log residuals are [-ln2, 0, ln2]).
FIXTURE_GT = np.array([[0.25, 0.5, 1.0]])
FIXTURE_PRED = np.full((1, 3), 0.5)
FIXTURE_EXPECTED = {
    "abs_rel": 0.5,
    "sq_rel": 1.0 / 6.0,
    "mae": 0.25,
    "rmse_log": 0.5659523030068885,
    "si_log": 0.3203020092788009,
    "delta1": 1.0 / 3.0,
    "delta2": 1.0 / 3.0,
    "delta3": 1.0 / 3.0,
}


def test_fixture_values_exact():
    rep = evaluate(depth_map(FIXTURE_PRED), depth_map(FIXTURE_GT))
    for key, want in FIXTURE_EXPECTED.items():
        assert getattr(rep, key) == pytest.approx(want, abs=1e-9), key
    assert rep.n_valid == 3


def test_fixture_masked_first_pixel():
    mask = np.array([[False, True, True]])
    rep = evaluate(depth_map(FIXTURE_PRED), depth_map(FIXTURE_GT, mask))
    assert rep.abs_rel == pytest.approx(0.25, abs=1e-9)
    assert rep.n_valid == 2


def test_joint_mask_uses_both_maps():
    pm = np.array([[True, False, True]])
    gm = np.array([[True, True, False]])
    rep = evaluate(depth_map(FIXTURE_PRED, pm), depth_map(FIXTURE_GT, gm))
    assert rep.n_valid == 1
    assert rep.abs_rel == pytest.approx(1.0)  # only the 0.25-gt pixel survives


def test_perfect_prediction(rng):
    vals = rng.random((8, 8)) * 0.9 + 0.05
    rep = evaluate(depth_map(vals.copy()), depth_map(vals))
    for key in ("abs_rel", "sq_rel", "mae", "rmse_log", "si_log"):
        assert getattr(rep, key) == 0.0, key
    for key in ("delta1", "delta2", "delta3"):
        assert getattr(rep, key) == 1.0, key


def test_delta_monotone_and_mask_consistent(rng):
    for _ in range(50):
        gt_vals = rng.random((6, 6)) * 0.9 + 0.05
        pred_vals = rng.random((6, 6)) * 0.9 + 0.05
        mask = rng.random((6, 6)) < 0.8
        if not mask.any():
            continue
        rep = evaluate(depth_map(pred_vals), depth_map(gt_vals, mask))
        assert rep.delta1 <= rep.delta2 <= rep.delta3
        # metrics over the mask equal metrics over the compacted pixel list
        flat = evaluate(
            depth_map(pred_vals[mask].reshape(1, -1)),
            depth_map(gt_vals[mask].reshape(1, -1)),
        )
        for key in METRIC_KEYS:
            assert getattr(rep, key) == pytest.approx(getattr(flat, key), abs=1e-12)


def test_scale_invariant_keys(rng):
    gt_vals = rng.random((5, 5)) * 0.9 + 0.05
    pred_vals = rng.random((5, 5)) * 0.9 + 0.05
    a = evaluate(depth_map(pred_vals), depth_map(gt_vals))
    b = evaluate(depth_map(pred_vals * 4.0), depth_map(gt_vals * 4.0))
    for key in ("abs_rel", "rmse_log", "si_log", "delta1", "delta2", "delta3"):
        assert getattr(a, key) == pytest.approx(getattr(b, key), rel=1e-9), key
    assert b.mae == pytest.approx(4.0 * a.mae, rel=1e-9)
    assert b.sq_rel == pytest.approx(4.0 * a.sq_rel, rel=1e-9)


def test_eps_floor_keeps_metrics_finite():
    gt = depth_map(np.array([[0.0, 0.5]]))
    pred = depth_map(np.array([[0.0, 0.5]]))
    rep = evaluate(pred, gt)
    assert all(np.isfinite(getattr(rep, k)) for k in METRIC_KEYS)
    # a larger eps floor changes the relative error of the zero-gt pixel
    loose = evaluate(pred, gt, eps=0.1)
    assert loose.abs_rel <= rep.abs_rel


def test_eps_must_be_finite_and_positive():
    pred = depth_map(np.array([[0.25, 0.5]]))
    # depths lie in [0, 1], so an eps of 1 or more would floor every value
    for eps in (np.nan, np.inf, 0.0, -1e-6, 1.0, 1e300):
        with pytest.raises(ConfigError):
            evaluate(pred, pred, eps=eps)


def test_shape_and_mask_errors():
    with pytest.raises(DimensionError):
        evaluate(depth_map(np.zeros((2, 2))), depth_map(np.zeros((2, 3))))
    empty = np.zeros((2, 2), bool)
    with pytest.raises(EmptyMaskError):
        evaluate(depth_map(np.zeros((2, 2)), empty), depth_map(np.zeros((2, 2))))


def test_average_reports():
    r1 = evaluate(depth_map(FIXTURE_PRED), depth_map(FIXTURE_GT))
    r2 = evaluate(depth_map(FIXTURE_GT.copy()), depth_map(FIXTURE_GT))
    avg = average_reports([r1, r2])
    assert avg.abs_rel == pytest.approx(0.5 * (r1.abs_rel + r2.abs_rel))
    assert avg.delta1 == pytest.approx(0.5 * (r1.delta1 + 1.0))
    assert avg.n_valid == 6
    with pytest.raises(EmptyMaskError):
        average_reports([])


def test_report_text_formats():
    rep = evaluate(depth_map(FIXTURE_PRED), depth_map(FIXTURE_GT))
    lines = rep.to_lines()
    assert len(lines) == 9
    assert lines[0] == "abs_rel=0.500000000"
    assert lines[-1] == "n_valid=3"
    assert all("=" in ln for ln in lines)
    header = MetricsReport.csv_header()
    assert header.split(",") == ["sample"] + list(METRIC_KEYS) + ["n_valid"]
    row = rep.to_csv_row("frame0")
    assert row.startswith("frame0,0.500000000,")
    assert len(row.split(",")) == 10
