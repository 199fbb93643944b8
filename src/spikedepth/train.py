"""Surrogate-gradient training with optional feature distillation.

The loop is deterministic in its seed: parameter init, sample order and
every arithmetic step are driven by one `numpy` generator, so two runs
with identical inputs produce byte-identical loss curves and checkpoints.
"""
from __future__ import annotations

import errno
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .checkpoint import save_checkpoint
from .config import TrainConfig
from .dataio import DepthMap, SampleTuple, load_dataset, write_lines
from .errors import ConfigError, DataError, EmptyMaskError
from .losses import DistillConfig, FeatureProjections, total_loss
from .metrics import DEFAULT_EPS, average_reports, evaluate
from .model import DepthModel, ModelConfig

LOSS_CSV_NAME = "loss_curve.csv"
CHECKPOINT_NAME = "model.sdtw"


class Adam:
    """Adam with optional global-norm gradient clipping, as set by its config's
    `lr`, `beta1`, `beta2`, `adam_eps` and `grad_clip` (0 = no clipping)."""

    def __init__(self, params, cfg: TrainConfig):
        self.params = list(params)
        self.cfg = cfg
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def _grads(self, scale):
        return [
            (p.grad * scale if p.grad is not None else np.zeros_like(p.data))
            for p in self.params
        ]

    def step(self, grad_scale: float = 1.0) -> float:
        """Apply one update from the accumulated grads; returns the global
        gradient norm before clipping."""
        c = self.cfg
        grads = self._grads(grad_scale)
        gnorm = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        if c.grad_clip > 0 and gnorm > c.grad_clip:
            factor = c.grad_clip / gnorm
            grads = [g * factor for g in grads]
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * (g * g)
            p.data -= c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.adam_eps)
        return gnorm


@dataclass
class TrainResult:
    model: DepthModel
    projections: FeatureProjections | None
    rows: list  # (step, total, l_p, l_2) per optimizer step
    csv_path: str
    checkpoint_path: str

    @property
    def steps(self) -> int:
        return len(self.rows)

    @property
    def first_l2(self) -> float:
        return self.rows[0][3]

    @property
    def final_l2(self) -> float:
        return self.rows[-1][3]

    @property
    def final_total(self) -> float:
        return self.rows[-1][1]


def _write_csv(path, rows):
    lines = ["step,total,l_p,l_2"]
    lines += [f"{s},{t!r},{lp!r},{l2!r}" for s, t, lp, l2 in rows]
    write_lines(path, lines)


def _check_dataset(dataset, cfg: ModelConfig, distill: DistillConfig | None, who: str) -> None:
    """The one check of a dataset against the configs, before anything is
    built: refuses an empty dataset (EmptyMaskError), and names the first
    sample whose spikes are not (t, c, h, w) (ConfigError) or, with
    `distill` given (KD on), that has no teacher features (DataError) or
    features not (teacher_dim, h/8, w/8) (ConfigError)."""
    if not dataset:
        raise EmptyMaskError(f"{who}: empty dataset")
    spikes = (cfg.t, cfg.c, cfg.h, cfg.w)
    teacher = None if distill is None else (distill.teacher_dim, cfg.h // 8, cfg.w // 8)
    for s in dataset:
        if s.spikes.shape != spikes:
            raise ConfigError(
                f"{who}: model/data mismatch: model expects spikes (t,c,h,w)={spikes}, "
                f"sample {s.name!r} has {s.spikes.shape}"
            )
        if teacher is not None and s.teacher_features is None:
            raise DataError(f"{who}: KD needs teacher features, sample {s.name!r} has none")
        if teacher is not None and s.teacher_features.shape != teacher:
            raise ConfigError(f"{who}: model/data mismatch: KD expects teacher features "
                              f"(teacher_dim,h/8,w/8)={teacher}, sample {s.name!r} "
                              f"has {s.teacher_features.shape}")


def train(
    dataset: list[SampleTuple],
    model_cfg: ModelConfig,
    distill_cfg: DistillConfig,
    train_cfg: TrainConfig,
    out_dir,
) -> TrainResult:
    """Optimize a fresh model on `dataset`; writes the per-step loss CSV and
    checkpoint(s) under `out_dir`, which the first checkpoint write makes, and
    returns the trained model.  A run that fails before that write leaves
    no `out_dir` behind."""
    distill_cfg.check_blocks(model_cfg.l)
    kd_cfg = distill_cfg if train_cfg.kd else None
    _check_dataset(dataset, model_cfg, kd_cfg, "train")
    out = Path(out_dir)
    if out.exists() and not out.is_dir():  # refused now, not after the last step
        raise FileExistsError(errno.EEXIST, "exists and is not a directory", str(out))

    rng = np.random.default_rng(train_cfg.seed)
    model = DepthModel(model_cfg, rng)
    projections = FeatureProjections(distill_cfg, model_cfg.d, rng) if train_cfg.kd else None

    named = list(model.named_params())
    if projections is not None:
        named += projections.named_params()
    opt = Adam([p for _, p in named], train_cfg)

    n, bs = len(dataset), train_cfg.batch_size
    per_epoch = math.ceil(n / bs)
    max_steps = train_cfg.steps or train_cfg.epochs * per_epoch

    dense = [s.spikes.to_dense() for s in dataset]  # by dataset position: names may repeat

    rows = []
    for step in range(1, max_steps + 1):
        start = (step - 1) % per_epoch * bs
        if start == 0:  # a fresh sample order at each epoch's first step
            order = rng.permutation(n)
        batch = order[start:start + bs]
        opt.zero_grad()
        tot_acc = lp_acc = l2_acc = 0.0
        for i in batch:
            sample = dataset[i]
            with ad.scope(f"train step {step}"), ad.tape() as tp:
                feats, pred = model.forward(dense[i], training=True)
                total, lp, l2 = total_loss(feats, pred, sample.depth, sample.teacher_features,
                                           projections, distill_cfg)
                tp.backward(total)
            tot_acc += float(total.data)
            lp_acc += lp
            l2_acc += l2
        k = len(batch)
        opt.step(grad_scale=1.0 / k)
        rows.append((step, tot_acc / k, lp_acc / k, l2_acc / k))
        if train_cfg.checkpoint_every > 0 and step % train_cfg.checkpoint_every == 0:
            save_checkpoint(out / f"model_{step:06d}.sdtw", model, projections, kd_cfg)

    # save_checkpoint refuses non-finite tensors before it makes `out` or
    # writes anything, so a refused run leaves neither checkpoint nor loss CSV
    ckpt_path = out / CHECKPOINT_NAME
    save_checkpoint(ckpt_path, model, projections, kd_cfg)
    csv_path = out / LOSS_CSV_NAME
    _write_csv(csv_path, rows)
    return TrainResult(model=model, projections=projections, rows=rows,
                       csv_path=str(csv_path), checkpoint_path=str(ckpt_path))


def _score(dataset, preds, eps):
    """Metrics of predictions given in dataset order (`preds` may be lazy, so
    that only one prediction is alive at a time)
    → (aggregate MetricsReport, per-sample [(name, MetricsReport), ...])."""
    per_sample = [
        (s.name, evaluate(DepthMap(pred, np.ones_like(pred, dtype=bool)), s.depth, eps))
        for s, pred in zip(dataset, preds)
    ]
    return average_reports([r for _, r in per_sample]), per_sample


def evaluate_model(model: DepthModel, dataset, eps: float = DEFAULT_EPS):
    """→ (aggregate MetricsReport, per-sample [(name, MetricsReport), ...])."""
    _check_dataset(dataset, model.cfg, None, "evaluate_model")
    return _score(dataset, (model.predict(s.spikes.to_dense()) for s in dataset), eps)


@dataclass
class EvalResult:
    """Aggregate metrics plus a single-sample energy audit."""

    metrics: object  # MetricsReport averaged over the dataset
    per_sample: list  # [(name, MetricsReport), ...] in dataset order
    energy: object  # EnergyReport for the first sample's forward pass


def evaluate_checkpoint(ckpt_path, data_dir, eps: float = DEFAULT_EPS) -> EvalResult:
    """Metrics over every sample, one forward pass each; energy audited on
    the first sample only.

    The first sample's forward is `energy.predict_and_audit`: its
    prediction feeds the metrics and its tape entries are priced as they
    are recorded, so the audit costs no second pass and keeps no
    activations. The other samples run through `model.predict`. The report
    equals `energy.audit(model, first sample)` and every per-sample report
    equals one computed from `model.predict`.
    """
    from .checkpoint import load_model
    from .energy import predict_and_audit

    model, _, _ = load_model(ckpt_path)
    dataset = load_dataset(data_dir)
    _check_dataset(dataset, model.cfg, None, "evaluate_checkpoint")
    pred0, report = predict_and_audit(model, dataset[0].spikes.to_dense())
    preds = itertools.chain([pred0], (model.predict(s.spikes.to_dense()) for s in dataset[1:]))
    metrics, per_sample = _score(dataset, preds, eps)
    return EvalResult(metrics=metrics, per_sample=per_sample, energy=report)
