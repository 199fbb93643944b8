"""Training losses: feature-matching distillation and scale-invariant depth.

The perceptual term compares rate-encoded student block features, passed
through a learned 1x1 projection into the teacher's channel width, against
frozen teacher feature maps.  The depth term is the population variance of
the prediction residual over valid pixels, which is invariant to a constant
offset of either map.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .dataio import DepthMap
from .errors import ConfigError, DataError, DimensionError, EmptyMaskError
from .head import rate_encode
from .layers import Conv, Module

EPS_LOG = 1e-6


@dataclass(frozen=True)
class DistillConfig:
    """Loss weights and teacher matching: checked when built, frozen after."""

    lambda_p: float = 1.0
    lambda_2: float = 1.0
    matched_blocks: tuple = (4,)
    teacher_dim: int = 16
    si_log_domain: bool = False

    def __post_init__(self):
        if not (self.lambda_p >= 0 and self.lambda_2 >= 0):
            raise ConfigError("loss weights must be non-negative")
        if self.teacher_dim < 1:
            raise ConfigError(f"teacher_dim must be >= 1, got {self.teacher_dim}")
        if not self.matched_blocks:
            raise ConfigError("matched_blocks must name at least one block")
        if len(set(self.matched_blocks)) != len(self.matched_blocks):
            raise ConfigError(f"matched_blocks must be distinct, got {self.matched_blocks}")

    def check_blocks(self, l: int) -> DistillConfig:
        """This config, once every matched block is known to lie in 1..`l`."""
        bad = [i for i in self.matched_blocks if i < 1 or i > l]
        if bad:
            raise ConfigError(f"matched_blocks {bad} outside 1..{l}")
        return self


class FeatureProjections(Module):
    """One learned 1x1 projection (student D -> teacher d) per matched block."""

    name = "kd"

    def __init__(self, cfg: DistillConfig, student_dim: int, rng):
        self.cfg = cfg
        self.convs = {
            i: Conv(f"proj{i}", student_dim, cfg.teacher_dim, 1, rng)
            for i in cfg.matched_blocks
        }

    def forward(self, block: int, x: ad.Tensor) -> ad.Tensor:
        """Project the rate map `x` of matched block `block`."""
        with ad.scope(self.name):
            return self.convs[block].forward(x)


def perceptual_loss(x: ad.Tensor, target: ad.Tensor) -> ad.Tensor:
    """Mean squared difference normalised by the full element count C*H*W."""
    if x.data.shape != target.data.shape:
        raise DimensionError(
            f"perceptual_loss: shape mismatch {x.data.shape} vs {target.data.shape}"
        )
    diff = ad.sub(x, target)
    return ad.scale(ad.reduce_sum(ad.mul(diff, diff)), 1.0 / x.data.size)


def si_l2_loss(pred: ad.Tensor, gt: DepthMap, log_domain: bool = False) -> ad.Tensor:
    """Scale-invariant L2: population variance of (gt - pred) over valid pixels.

    Adding a constant to either map leaves the value unchanged.  With
    log_domain=True residuals are taken between logs (both sides floored at
    a small epsilon first).
    """
    if pred.data.shape != gt.shape:
        raise DimensionError(f"si_l2_loss: pred {pred.data.shape} vs gt {gt.shape}")
    n = int(gt.mask.sum())
    if n == 0:
        raise EmptyMaskError("si_l2_loss: no valid pixels")
    mask = ad.tensor(gt.mask.astype(pred.data.dtype))
    if log_domain:
        gt_vals = np.log(np.maximum(gt.values, EPS_LOG)).astype(pred.data.dtype)
        gt_t = ad.tensor(np.where(gt.mask, gt_vals, 0.0))
        pred_used = ad.log(ad.clamp(pred, EPS_LOG, float("inf")))
    else:
        gt_t = ad.tensor(np.where(gt.mask, gt.values, 0.0).astype(pred.data.dtype))
        pred_used = pred
    r = ad.mul(ad.sub(gt_t, pred_used), mask)
    s1 = ad.reduce_sum(r)
    s2 = ad.reduce_sum(ad.mul(r, r))
    mean_sq = ad.scale(s2, 1.0 / n)
    sq_mean = ad.scale(ad.mul(s1, s1), 1.0 / (n * n))
    return ad.sub(mean_sq, sq_mean)


def total_loss(
    features,
    pred: ad.Tensor,
    gt: DepthMap,
    teacher: np.ndarray | None,
    projections: FeatureProjections | None,
    cfg: DistillConfig,
):
    """lambda_p * sum of matched perceptual terms + lambda_2 * SI-L2.

    KD is on exactly when `projections` is given.  `teacher` is then one
    sample's feature map [d,h,w], compared with every projected rate map
    [1,d,h,w].  Returns (total tensor, perceptual value, si value).  With
    KD off no teacher ops are recorded at all and the perceptual component
    is 0.
    """
    with ad.scope("loss.si"):
        l2 = si_l2_loss(pred, gt, log_domain=cfg.si_log_domain)
    total = ad.scale(l2, cfg.lambda_2)
    lp_value = 0.0
    if projections is not None and cfg.lambda_p > 0:
        if teacher is None:
            raise DataError("total_loss: teacher features required when KD is on")
        teacher_t = ad.tensor(np.asarray(teacher, dtype=pred.data.dtype)[None])
        with ad.scope("loss.perceptual"):
            lp_sum = None
            for i in cfg.matched_blocks:
                feat = features[i - 1]
                projected = projections.forward(i, rate_encode(feat))
                term = perceptual_loss(projected, teacher_t)
                lp_sum = term if lp_sum is None else ad.add(lp_sum, term)
        lp_value = float(lp_sum.data)
        total = ad.add(total, ad.scale(lp_sum, cfg.lambda_p))
    return total, lp_value, float(l2.data)
