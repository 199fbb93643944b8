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


# the reference layers, by scope under the head, that the folded eval tail of
# `FusionHead` stands for, each with how many times smaller than the depth
# map its output is; `energy.price` charges that tail as these layers
FOLDED_LAYERS = {"l3.conv": 2, "l4.conv": 1, "proj": 1}


def _bn_affine(conv: ConvBN):
    """Eval batch norm of `conv` as g * z + c in float64: g = gamma /
    sqrt(var + eps) and c = beta - g * mean, both [D]."""
    g = conv.gamma.data / np.sqrt(conv.running_var.astype(np.float64) + ad.BN_EPS)
    return g, conv.beta.data - g * conv.running_mean


def _tap_sum(z: np.ndarray) -> np.ndarray:
    """sum_tau shift_tau(pad1(z))[tau] for z [9, h, w], tau = 3 * ky + kx:
    a 3x3 correlation, pad 1, whose channel tau is already weighted by
    the kernel's tap tau."""
    zp = np.pad(z, ((0, 0), (1, 1), (1, 1)))
    h, w = z.shape[-2:]
    out = zp[0, :h, :w].copy()
    for tau in range(1, 9):
        ky, kx = divmod(tau, 3)
        out += zp[tau, ky:ky + h, kx:kx + w]
    return out


class FusionHead(Module):
    """Coarse-to-fine fusion of four rate-encoded feature levels.

    With rate maps R1..R4 at H/8 x W/8 (all D channels):

        Y2 = ConvBN(Up2(R1)) + Up2(R2)          at H/4
        Y3 = ConvBN(Up2(Y2)) + Up4(R3)          at H/2
        Y4 = ConvBN(Up2(Y3)) + Up8(R4)          at H
        Y  = sigmoid(proj1x1(Y4))               single channel

    Upsampling is bilinear (align_corners=False); the carried branch uses
    3x3 ConvBN at every level and the final projection is a plain 1x1 conv.

    A forward that needs no gradient (eval mode with no tape, or an
    inspection tape) runs the same function folded past Y2.  Eval batch
    norm is affine, g * z + c with g = gamma / sqrt(var + eps) and
    c = beta - g * mean, and bilinear upsampling acts per channel, so it
    commutes with channel mixing.  With P the [1, D] projection,
    K = P diag(g4) W4 one [D, 3, 3] kernel and A[tau, c] = K[c, tau] its
    [9, D] tap matrix:

        Z = conv(Up2(Y2); sum_c A[tau, c] g3_c W3[c], pad 1) + A c3 + Up4(A R3)
        Y = sigmoid(sum_tau shift_tau(pad1(Up2(Z)))[tau] + P c4 + Up8(P R4))

    exactly in real arithmetic, padded borders included.  Z has 9 channels
    at H/2, so no 64-channel map at full resolution is built and the head
    runs ~0.3 instead of ~4 GMAC at 256x320.  The kernels are folded from
    the live parameters on every call, in float64, and the tail is recorded
    as one `fusion_tail` entry, which `energy.price` charges as the
    reference layers `FOLDED_LAYERS` it stands for.  Training and gradient
    tapes run the reference graph above, whose eval ConvBNs are each one
    `conv_bn` op, as everywhere.
    """

    name = "head"

    def __init__(self, cfg, rng):
        d = cfg.d
        l3, l4, proj = FOLDED_LAYERS
        self.conv2 = ConvBN("l2.conv", d, d, 3, rng)
        self.conv3 = ConvBN(l3, d, d, 3, rng)
        self.conv4 = ConvBN(l4, d, d, 3, rng)
        self.proj = Conv(proj, d, 1, 1, rng, bias=False)

    def forward(self, features, training):
        if len(features) != 4:
            raise DimensionError(f"fusion head needs exactly 4 feature stacks, got {len(features)}")
        with ad.scope(self.name):
            r1, r2, r3, r4 = (rate_encode(f) for f in features)
            y2 = ad.add(self.conv2.forward(ad.upsample_bilinear(r1, 2), training),
                        ad.upsample_bilinear(r2, 2))
            # the tail's inputs: activations, the weights of FOLDED_LAYERS in that
            # order (which `energy` prices), then their BN affines
            tail = (y2, r3, r4, self.conv3.w, self.conv4.w, self.proj.w,
                    self.conv3.gamma, self.conv3.beta, self.conv4.gamma, self.conv4.beta)
            if training or ad._needs(*tail):
                logit = self._reference_tail(y2, r3, r4, training)
            else:
                logit = ad._op("fusion_tail", tail, self._folded_tail(y2.data, r3.data, r4.data), None)
            out = ad.sigmoid(logit)
            return ad.reshape(out, out.data.shape[-2:])

    def _reference_tail(self, y2, r3, r4, training):
        y3 = ad.add(self.conv3.forward(ad.upsample_bilinear(y2, 2), training),
                    ad.upsample_bilinear(r3, 4))
        y4 = ad.add(self.conv4.forward(ad.upsample_bilinear(y3, 2), training),
                    ad.upsample_bilinear(r4, 8))
        return self.proj.forward(y4)

    def _folded_tail(self, y2, r3, r4):
        """proj(Y4) of the eval reference tail, from Y2 [1,D,H/4,W/4] and the
        rate maps R3, R4 [1,D,H/8,W/8], as [1,1,H,W] (class docstring)."""
        dt, d = y2.dtype, y2.shape[1]
        g3, c3 = _bn_affine(self.conv3)
        g4, c4 = _bn_affine(self.conv4)
        p = self.proj.w.data.reshape(d).astype(np.float64)
        a = ((p * g4) @ self.conv4.w.data.reshape(d, 9 * d)).reshape(d, 9).T  # [9, D]
        w3 = ((a * g3) @ self.conv3.w.data.reshape(d, 9 * d)).reshape(9, d, 3, 3)
        z = ad._corr2d(ad._upsample(y2, 2), w3.astype(dt), 1)[0]  # [9, H/2, W/2]
        z += (a @ c3).astype(dt)[:, None, None]
        z += ad._upsample(np.tensordot(a.astype(dt), r3[0], 1), 4)
        logit = _tap_sum(ad._upsample(z, 2))
        logit += float(p @ c4)
        logit += ad._upsample(np.tensordot(p.astype(dt), r4[0], 1), 8)
        ad._guard("fusion_tail", logit)
        return logit[None, None]


class LinearFcnHead(Module):
    """Ablation baseline: 1x1 ConvBN on the final block's rate map, one x8
    bilinear upsample, sigmoid."""

    name = "head"

    def __init__(self, cfg, rng):
        self.proj = ConvBN("fcn.conv", cfg.d, 1, 1, rng)

    def forward(self, features, training):
        if not features:
            raise DimensionError("linear_fcn head needs at least one feature stack")
        with ad.scope(self.name):
            r = rate_encode(features[-1])
            y = self.proj.forward(r, training)
            out = ad.sigmoid(ad.upsample_bilinear(y, 8))
            return ad.reshape(out, out.data.shape[-2:])
