"""Training loop: optimizer math, determinism, artifacts, evaluation entry."""
import dataclasses

import numpy as np
import pytest

from helpers import disk_full_after, tiny_dataset, tiny_distill_cfg, tiny_model_cfg
from spikedepth import autodiff as ad
from spikedepth.checkpoint import load_model
from spikedepth.config import build_train_config
from spikedepth.dataio import DepthMap, SampleTuple, load_dataset, write_dataset
from spikedepth.energy import audit
from spikedepth.errors import ConfigError, DataError, EmptyMaskError, NumericError
from spikedepth.metrics import evaluate
from spikedepth.model import DepthModel
from spikedepth.train import (
    Adam,
    TrainConfig,
    _write_csv,
    evaluate_checkpoint,
    evaluate_model,
    train,
)

# ---------------------------------------------------------------------------
# optimizer


def _reference_adam(x0s, grad_seqs, lr, beta1, beta2, eps, clip):
    """Independent Adam loop (bias-corrected, eps outside the sqrt)."""
    xs = [x.astype(np.float64).copy() for x in x0s]
    ms = [np.zeros_like(x) for x in xs]
    vs = [np.zeros_like(x) for x in xs]
    for t, grads in enumerate(grad_seqs, start=1):
        gnorm = np.sqrt(sum(float((g**2).sum()) for g in grads))
        if clip > 0 and gnorm > clip:
            grads = [g * (clip / gnorm) for g in grads]
        for x, m, v, g in zip(xs, ms, vs, grads):
            m[...] = beta1 * m + (1 - beta1) * g
            v[...] = beta2 * v + (1 - beta2) * g * g
            mhat = m / (1 - beta1**t)
            vhat = v / (1 - beta2**t)
            x -= lr * mhat / (np.sqrt(vhat) + eps)
    return xs


@pytest.mark.parametrize("clip", [0.0, 0.5])
def test_adam_matches_reference(rng, clip):
    x0s = [rng.standard_normal((3, 2)), rng.standard_normal(4)]
    grad_seqs = [[rng.standard_normal(x.shape) for x in x0s] for _ in range(7)]

    params = [ad.parameter(x.copy()) for x in x0s]
    opt = Adam(params, TrainConfig(lr=0.05, beta1=0.9, beta2=0.999, adam_eps=1e-8, grad_clip=clip))
    for grads in grad_seqs:
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()

    want = _reference_adam(x0s, grad_seqs, 0.05, 0.9, 0.999, 1e-8, clip)
    for p, w in zip(params, want):
        np.testing.assert_allclose(p.data, w, rtol=1e-12, atol=1e-12)


def test_adam_step_reports_unclipped_norm(rng):
    p = ad.parameter(np.zeros(3))
    opt = Adam([p], TrainConfig(lr=0.1, grad_clip=1.0))
    p.grad = np.array([3.0, 4.0, 0.0])  # norm 5
    assert opt.step() == pytest.approx(5.0)
    # post-clip update equals the update from the scaled gradient
    q = ad.parameter(np.zeros(3))
    opt2 = Adam([q], TrainConfig(lr=0.1, grad_clip=0.0))
    q.grad = np.array([3.0, 4.0, 0.0]) / 5.0
    opt2.step()
    np.testing.assert_allclose(p.data, q.data, rtol=1e-12)


def test_adam_missing_grad_is_zero(rng):
    p = ad.parameter(np.ones(2))
    opt = Adam([p], TrainConfig(lr=0.1))
    opt.zero_grad()
    opt.step()
    np.testing.assert_array_equal(p.data, np.ones(2))


# ---------------------------------------------------------------------------
# config


def test_train_config_validation():
    for bad in (
        dict(epochs=0, steps=0),
        dict(batch_size=0),
        dict(lr=0.0),
        dict(beta1=1.0),
        dict(adam_eps=0.0),
        dict(epochs=-1),
        dict(lr=float("nan")),
        dict(adam_eps=float("nan")),
        dict(beta2=float("nan")),
        dict(grad_clip=-1.0),
        dict(grad_clip=float("nan")),
        dict(checkpoint_every=-2),
    ):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    TrainConfig()


def test_build_train_config_types():
    cfg = build_train_config(
        {"seed": "3", "steps": "10", "lr": "0.01", "kd": "off", "grad_clip": "0.5"}
    )
    assert (cfg.seed, cfg.steps, cfg.lr, cfg.kd, cfg.grad_clip) == (3, 10, 0.01, False, 0.5)
    with pytest.raises(ConfigError, match="on/off"):
        build_train_config({"kd": "true"})


# ---------------------------------------------------------------------------
# training loop

_FAST = dict(seed=1, steps=3, lr=1e-3)


def test_same_seed_runs_are_byte_identical(tmp_path):
    data = tiny_dataset(n=2)
    for sub in ("a", "b"):
        train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST), tmp_path / sub)
    assert (tmp_path / "a/loss_curve.csv").read_bytes() == (tmp_path / "b/loss_curve.csv").read_bytes()
    assert (tmp_path / "a/model.sdtw").read_bytes() == (tmp_path / "b/model.sdtw").read_bytes()


def test_duplicate_sample_names_train_on_their_own_spikes(tmp_path):
    # two manifest lines share one sample= name; each still trains on its own files
    write_dataset(tmp_path / "data", tiny_dataset(n=2))
    manifest = tmp_path / "data/manifest.txt"
    distinct = load_dataset(tmp_path / "data")
    manifest.write_text(manifest.read_text().replace("sample=sample_001", "sample=sample_000"))
    same = load_dataset(tmp_path / "data")
    assert [s.name for s in same] == ["sample_000", "sample_000"]
    assert same[0].spikes.bits != same[1].spikes.bits
    for sub, data in (("distinct", distinct), ("same", same)):
        train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST), tmp_path / sub)
    for name in ("loss_curve.csv", "model.sdtw"):
        assert (tmp_path / "same" / name).read_bytes() == (tmp_path / "distinct" / name).read_bytes()


def test_loss_csv_format_and_steps(tmp_path):
    data = tiny_dataset(n=2)
    res = train(data, tiny_model_cfg(), tiny_distill_cfg(),
                TrainConfig(seed=1, steps=5, lr=1e-3), tmp_path)
    lines = (tmp_path / "loss_curve.csv").read_text().splitlines()
    assert lines[0] == "step,total,l_p,l_2"
    assert len(lines) == 6  # header + one row per step, cycling epochs
    assert res.steps == 5
    for i, row in enumerate(res.rows, start=1):
        assert row[0] == i
        assert row[1] == pytest.approx(row[2] + row[3], rel=1e-5)  # unit weights, f32


def test_failed_csv_write_leaves_old_file(tmp_path, monkeypatch):
    path = tmp_path / "loss_curve.csv"
    _write_csv(path, [(1, 0.5, 0.25, 0.25)])
    old = path.read_bytes()
    rows = [(s, 1.0 / s, 0.5 / s, 0.5 / s) for s in range(1, 50)]
    with disk_full_after(monkeypatch, 100), pytest.raises(OSError, match="No space"):
        _write_csv(path, rows)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["loss_curve.csv"]  # no temp file left


def test_kd_off_total_is_depth_loss_only(tmp_path):
    data = tiny_dataset(n=2)
    res = train(data, tiny_model_cfg(), tiny_distill_cfg(),
                TrainConfig(**_FAST, kd=False), tmp_path)
    assert res.projections is None
    for _, total, lp, l2 in res.rows:
        assert lp == 0.0
        assert total == pytest.approx(l2, rel=1e-12)


def test_kd_on_requires_teacher_features(tmp_path):
    data = [dataclasses.replace(s, teacher_features=None) for s in tiny_dataset(n=2)]
    with pytest.raises(DataError, match="teacher"):
        train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST), tmp_path)
    # same data trains fine with KD off
    train(data, tiny_model_cfg(), tiny_distill_cfg(),
          TrainConfig(**_FAST, kd=False), tmp_path)


@pytest.mark.parametrize("wrong", ["channels", "missing"])
def test_train_refuses_teacher_features_that_do_not_fit(tmp_path, wrong):
    """Under KD, the last sample's teacher features with a wrong channel count
    (or none) are refused by name before `train` makes its out dir; with KD
    off the same data trains."""
    data = tiny_dataset(n=3)
    last = data[-1]
    feats = last.teacher_features[:3] if wrong == "channels" else None
    data[-1] = dataclasses.replace(last, teacher_features=feats)
    error = ConfigError if wrong == "channels" else DataError
    with pytest.raises(error, match=f"teacher features.*'{last.name}'"):
        train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST),
              tmp_path / "run")
    assert not (tmp_path / "run").exists()
    train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST, kd=False),
          tmp_path / "run")


def test_empty_dataset_rejected(tmp_path):
    with pytest.raises(DataError, match="empty"):
        train([], tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST), tmp_path)


def test_divergence_raises(tmp_path):
    data = tiny_dataset(n=1)
    bad_depth = DepthMap(np.full((16, 16), np.inf, np.float32), np.ones((16, 16), bool))
    data = [dataclasses.replace(data[0], depth=bad_depth)]
    with pytest.raises(NumericError):  # caught by the per-op finite guard
        train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST), tmp_path)


def test_overflow_names_its_training_step_and_scope(tmp_path):
    """A value that overflows inside the network is refused by the op that
    made it, and the message names the training step and the layer."""
    want = r"^scale: non-finite values in result \(train step 1, block1\.attn\)$"
    with pytest.raises(NumericError, match=want), np.errstate(all="ignore"):
        train(tiny_dataset(n=1), tiny_model_cfg(s=1e308), tiny_distill_cfg(),
              TrainConfig(**_FAST), tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_periodic_checkpoints(tmp_path):
    data = tiny_dataset(n=2)
    train(data, tiny_model_cfg(), tiny_distill_cfg(),
          TrainConfig(seed=1, steps=4, lr=1e-3, checkpoint_every=2), tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["loss_curve.csv", "model.sdtw", "model_000002.sdtw", "model_000004.sdtw"]


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_model_empty_raises():
    from helpers import tiny_model

    with pytest.raises(EmptyMaskError):
        evaluate_model(tiny_model(), [])


def test_evaluate_model_shape_mismatch(monkeypatch):
    from helpers import tiny_model

    model = tiny_model()
    data = [tiny_dataset(n=1)[0], tiny_dataset(n=2, h=24, w=24)[1]]

    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran before the shape check")

    monkeypatch.setattr(DepthModel, "forward", no_forward)
    with pytest.raises(ConfigError, match=f"mismatch.*'{data[1].name}'"):
        evaluate_model(model, data)


def test_evaluate_checkpoint_round_trip(tmp_path):
    data = tiny_dataset(n=2)
    res = train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST),
                tmp_path / "run")
    write_dataset(tmp_path / "data", data)
    r1 = evaluate_checkpoint(res.checkpoint_path, tmp_path / "data")
    r2 = evaluate_checkpoint(res.checkpoint_path, tmp_path / "data")
    assert len(r1.per_sample) == 2
    assert r1.metrics.n_valid == 2 * 16 * 16
    assert r1.metrics == r2.metrics  # dataclass equality, bit-exact
    assert r1.energy.total_pj == r2.energy.total_pj
    assert r1.energy.rows  # audit actually priced layers


def test_evaluate_checkpoint_runs_one_forward_per_sample(tmp_path, monkeypatch):
    data = tiny_dataset(n=3)
    res = train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST),
                tmp_path / "run")
    write_dataset(tmp_path / "data", data)
    forward = DepthModel.forward
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(ad.active_tape() is not None)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(DepthModel, "forward", counted)
    got = evaluate_checkpoint(res.checkpoint_path, tmp_path / "data")
    assert calls == [True, False, False]  # sample 0 traced, the others plain
    monkeypatch.undo()

    model, _, _ = load_model(res.checkpoint_path)
    samples = load_dataset(tmp_path / "data")
    assert got.energy.to_lines() == audit(model, samples[0].spikes.to_dense()).to_lines()
    assert [name for name, _ in got.per_sample] == [s.name for s in samples]
    for (_, rep), s in zip(got.per_sample, samples):
        pred = model.predict(s.spikes.to_dense())
        assert rep == evaluate(DepthMap(pred, np.ones_like(pred, dtype=bool)), s.depth)


@pytest.mark.parametrize("wrong", ["every", "last"])
@pytest.mark.parametrize("entry", ["train", "eval"])
def test_evaluate_checkpoint_shape_mismatch(tmp_path, monkeypatch, entry, wrong):
    """A sample whose spikes do not fit the model is refused by name before
    any forward; `train` refuses it before it makes its out dir."""
    good, bad = tiny_dataset(n=2), tiny_dataset(n=2, h=24, w=24)
    data = bad if wrong == "every" else [good[0], bad[1]]
    first_bad = data[0] if wrong == "every" else data[1]
    refused = pytest.raises(ConfigError, match=f"mismatch.*'{first_bad.name}'")
    if entry == "train":
        with refused:
            train(data, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST),
                  tmp_path / "run")
        assert not (tmp_path / "run").exists()
        return
    res = train(good, tiny_model_cfg(), tiny_distill_cfg(), TrainConfig(**_FAST),
                tmp_path / "run")
    write_dataset(tmp_path / "data", data)

    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran before the shape check")

    monkeypatch.setattr(DepthModel, "forward", no_forward)
    with refused:
        evaluate_checkpoint(res.checkpoint_path, tmp_path / "data")
