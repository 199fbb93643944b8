"""Depth heads: multi-level fusion decoder and the minimal linear-FCN baseline.

Both heads consume the per-block spike feature stacks F_i [T, D, H/8, W/8],
rate-encode them over time, and emit a sigmoid-bounded depth map at full
resolution.  The fusion head progressively doubles resolution while adding
skip paths from every block; the linear-FCN baseline projects the final
block's rate map and upsamples in one jump.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .errors import DimensionError
from .layers import Conv, ConvBN, Module


def rate_encode(x: ad.Tensor) -> ad.Tensor:
    """Collapse the leading time axis of a spike stack [T,D,h,w] to firing
    rates, the mean over T, as one map [1,D,h,w]."""
    if x.data.ndim < 1 or x.data.shape[0] < 1:
        raise DimensionError(f"rate_encode: need a non-empty time axis, got {x.data.shape}")
    with ad.scope("rate"):
        return ad.scale(ad.reduce_sum(x, axis=0), 1.0 / x.data.shape[0])


class FusionHead(Module):
    """Coarse-to-fine fusion of four rate-encoded feature levels.

    With rate maps R1..R4 at H/8 x W/8 (all D channels):

        Y2 = ConvBN(Up2(R1)) + Up2(R2)          at H/4
        Y3 = ConvBN(Up2(Y2)) + Up4(R3)          at H/2
        Y4 = ConvBN(Up2(Y3)) + Up8(R4)          at H
        Y  = sigmoid(proj1x1(Y4))               single channel

    Upsampling is bilinear (align_corners=False); the carried branch uses
    3x3 ConvBN at every level and the final projection is a plain 1x1 conv.
    """

    name = "head"

    def __init__(self, cfg, rng, dtype=np.float32):
        d = cfg.d
        self.conv2 = ConvBN("l2.conv", d, d, 3, rng, dtype)
        self.conv3 = ConvBN("l3.conv", d, d, 3, rng, dtype)
        self.conv4 = ConvBN("l4.conv", d, d, 3, rng, dtype)
        self.proj = Conv("proj", d, 1, 1, rng, dtype, bias=False)

    def forward(self, features, training):
        if len(features) != 4:
            raise DimensionError(f"fusion head needs exactly 4 feature stacks, got {len(features)}")
        with ad.scope(self.name):
            r1, r2, r3, r4 = (rate_encode(f) for f in features)
            y2 = ad.add(self.conv2.forward(ad.upsample_bilinear(r1, 2), training),
                        ad.upsample_bilinear(r2, 2))
            y3 = ad.add(self.conv3.forward(ad.upsample_bilinear(y2, 2), training),
                        ad.upsample_bilinear(r3, 4))
            y4 = ad.add(self.conv4.forward(ad.upsample_bilinear(y3, 2), training),
                        ad.upsample_bilinear(r4, 8))
            out = ad.sigmoid(self.proj.forward(y4))
            return ad.reshape(out, out.data.shape[-2:])


class LinearFcnHead(Module):
    """Ablation baseline: 1x1 ConvBN on the final block's rate map, one x8
    bilinear upsample, sigmoid."""

    name = "head"

    def __init__(self, cfg, rng, dtype=np.float32):
        self.proj = ConvBN("fcn.conv", cfg.d, 1, 1, rng, dtype)

    def forward(self, features, training):
        if not features:
            raise DimensionError("linear_fcn head needs at least one feature stack")
        with ad.scope(self.name):
            r = rate_encode(features[-1])
            y = self.proj.forward(r, training)
            out = ad.sigmoid(ad.upsample_bilinear(y, 8))
            return ad.reshape(out, out.data.shape[-2:])
