"""Depth evaluation metrics over the joint valid mask.

All metrics operate on normalized depths.  Denominators and log arguments
are floored at `eps` so division and log never blow up; numerator
differences use the raw values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DepthMap
from .errors import ConfigError, DimensionError, EmptyMaskError

DEFAULT_EPS = 1e-6

METRIC_KEYS = ("abs_rel", "sq_rel", "mae", "rmse_log", "si_log", "delta1", "delta2", "delta3")


@dataclass
class MetricsReport:
    abs_rel: float
    sq_rel: float
    mae: float
    rmse_log: float
    si_log: float
    delta1: float
    delta2: float
    delta3: float
    n_valid: int

    def to_lines(self):
        out = [f"{k}={getattr(self, k):.9f}" for k in METRIC_KEYS]
        out.append(f"n_valid={self.n_valid}")
        return out

    @staticmethod
    def csv_header():
        return ",".join(("sample",) + METRIC_KEYS + ("n_valid",))

    def to_csv_row(self, sample=""):
        vals = [f"{getattr(self, k):.9f}" for k in METRIC_KEYS]
        return ",".join([sample] + vals + [str(self.n_valid)])


def evaluate(pred: DepthMap, gt: DepthMap, eps: float = DEFAULT_EPS) -> MetricsReport:
    """Compute the eight depth metrics over pixels valid in both maps."""
    # depths and predictions lie in [0, 1]: an eps >= 1 would floor them all
    if not 0 < eps < 1:  # NaN fails both comparisons
        raise ConfigError(f"evaluate: eps must lie in (0, 1), got {eps}")
    if pred.shape != gt.shape:
        raise DimensionError(f"evaluate: pred {pred.shape} vs gt {gt.shape}")
    mask = pred.mask & gt.mask
    n = int(mask.sum())
    if n == 0:
        raise EmptyMaskError("evaluate: no jointly valid pixels")

    p = pred.values[mask].astype(np.float64)
    g = gt.values[mask].astype(np.float64)
    pf = np.maximum(p, eps)
    gf = np.maximum(g, eps)
    diff = g - p

    log_r = np.log(gf) - np.log(pf)
    ratio = np.maximum(pf / gf, gf / pf)

    return MetricsReport(
        abs_rel=float(np.mean(np.abs(diff) / gf)),
        sq_rel=float(np.mean(diff * diff / gf)),
        mae=float(np.mean(np.abs(diff))),
        rmse_log=float(np.sqrt(np.mean(log_r * log_r))),
        si_log=float(np.mean(log_r * log_r) - np.mean(log_r) ** 2),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25**2)),
        delta3=float(np.mean(ratio < 1.25**3)),
        n_valid=n,
    )


def average_reports(reports) -> MetricsReport:
    """Plain per-sample average (fixed order); n_valid totals."""
    reports = list(reports)
    if not reports:
        raise EmptyMaskError("average_reports: no reports to average")
    vals = {k: float(np.mean([getattr(r, k) for r in reports])) for k in METRIC_KEYS}
    return MetricsReport(n_valid=int(sum(r.n_valid for r in reports)), **vals)
