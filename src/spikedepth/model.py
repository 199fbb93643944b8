"""Spike-driven transformer backbone and the assembled depth model.

The backbone keeps a binary spike stream end to end: the event stream enters
a three-stage convolutional patch embedding (ConvBN 3x3 -> MaxPool 2 ->
MLIF per stage, channels C -> D/4 -> D/2 -> D, spatial H -> H/8), then L
transformer blocks operate on the T x D x H/8 x W/8 token grid.  Every
weighted layer consumes spikes, attention is a plain binary matrix product
chain with no softmax, and residual merges OR spikes together, so the only
real-valued tensors inside are pre-neuron membrane currents.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, DimensionError
from .head import FusionHead, LinearFcnHead
from .layers import ConvBN, Mlif, Module
from .neuron import LifParams
from .trace import is_binary

HEAD_KINDS = ("fusion", "linear_fcn")


@dataclass(frozen=True)
class ModelConfig:
    """Backbone and head sizes: checked when built, frozen after."""

    t: int = 4
    c: int = 2
    h: int = 64
    w: int = 64
    d: int = 128
    l: int = 4
    s: float = 0.25
    mlp_ratio: int = 4
    lif: LifParams = field(default_factory=LifParams)
    # checkpoint-format fields with one valid value each, which no model
    # code reads: residual merges are always binary OR, rates always the mean
    merge: str = "clamp"
    rate_mode: str = "mean"
    head: str = "fusion"

    def __post_init__(self):
        if self.h < 8 or self.w < 8 or self.h % 8 or self.w % 8:
            raise DimensionError(f"h and w must be positive multiples of 8, got ({self.h},{self.w})")
        if self.d < 4 or self.d % 4:
            raise DimensionError(f"d must be a positive multiple of 4, got {self.d}")
        if self.t < 1 or self.c < 1 or self.l < 1:
            raise DimensionError("t, c and l must all be >= 1")
        if not self.s > 0:
            raise ConfigError(f"attention scale s must be positive, got {self.s}")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if self.merge != "clamp":
            raise ConfigError(f"merge must be 'clamp' (binary OR), got {self.merge!r}")
        if self.rate_mode != "mean":
            raise ConfigError(f"rate_mode must be 'mean', got {self.rate_mode!r}")
        if self.head not in HEAD_KINDS:
            raise ConfigError(f"head must be one of {HEAD_KINDS}, got {self.head!r}")
        if self.head == "fusion" and self.l != 4:
            raise ConfigError(f"fusion head requires l=4 feature levels, got l={self.l}")

    @property
    def embed_channels(self):
        return (self.d // 4, self.d // 2, self.d)

    @property
    def tokens(self):
        return (self.h // 8) * (self.w // 8)


def spike_attention_product(q: ad.Tensor, k: ad.Tensor, v: ad.Tensor, s: float,
                            training: bool = False) -> ad.Tensor:
    """Scaled spiking attention current ((Q K^T) V) * s for q [T, N, D],
    k [T, M, D] and v [T, M, Dv]; any other shape raises DimensionError.

    A training forward, or one that needs no gradient (no tape, or an
    inspection tape), runs the product as Q (K^T V): one `spike_attention`
    entry over (q, k, v) that never forms the N x N matrix Q K^T.  Its
    backward is that association's own: the `transpose -> matmul(K^T, V)
    -> matmul(Q, .)` graph's backward calls on arrays of its layout, so no
    step of a training forward or backward makes an N x N array.  Only an
    eval forward on a gradient tape runs the two scoped matmuls, (Q K^T) V,
    and keeps Q K^T as the `qk` entry's output.  For spikes, every partial
    sum of either association is an integer of at most M*D, which float32
    holds exactly below 2**24, so both forwards give the same bits; their
    gradients differ in the last bits, as the association of a float
    upstream gradient does.  The spikes are checked on the tape, not here:
    `trace.assert_spike_purity` requires three binary operands of a fused
    entry, and `energy.price`, which prices it as the two products, refuses
    one that is not.
    """
    qd, kd, vd = q.data, k.data, v.data
    if not (qd.ndim == kd.ndim == vd.ndim == 3 and qd.shape[::2] == kd.shape[::2]
            and vd.shape[:2] == kd.shape[:2]):
        raise DimensionError(f"attention: need q [T,N,D], k [T,M,D], v [T,M,Dv], "
                             f"got {qd.shape}, {kd.shape}, {vd.shape}")
    if training or not ad._needs(q, k, v):

        def bwd(g):
            # transpose -> K^T V matmul -> Q (.) matmul, backward: every
            # product is [T, N, D]-sized or [T, D, Dv]-sized, none N x N
            nq, nk, nv = q.requires_grad, k.requires_grad, v.requires_grad
            kt = np.ascontiguousarray(kd.transpose(0, 2, 1)) if nq or nv else None
            gp = qd.swapaxes(-1, -2) @ g if nk or nv else None  # gradient of K^T V
            gq = g @ (kt @ vd).swapaxes(-1, -2) if nq else None
            gk = (gp @ vd.swapaxes(-1, -2)).transpose(0, 2, 1) if nk else None
            gv = kt.swapaxes(-1, -2) @ gp if nv else None
            return gq, gk, gv

        out = qd @ (kd.transpose(0, 2, 1) @ vd)
        return ad.scale(ad._op("spike_attention", (q, k, v), out, bwd), s)
    with ad.scope("qk"):
        attn = ad.matmul(q, ad.transpose(k, (0, 2, 1)))
    with ad.scope("av"):
        out = ad.matmul(attn, v)
    return ad.scale(out, s)


def merge_spikes(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    """Residual merge: integer add clamped back to {0,1} (binary OR)."""
    return ad.clamp(ad.add(a, b), 0.0, 1.0)


class PatchEmbed(Module):
    """Three ConvBN 3x3 -> MaxPool 2 -> MLIF stages; output [T, D, H/8, W/8]."""

    name = "embed"

    def __init__(self, cfg: ModelConfig, rng):
        chans = cfg.embed_channels
        cins = (cfg.c,) + chans[:2]
        self.stages = []
        for i, (ci, co) in enumerate(zip(cins, chans), start=1):
            conv = ConvBN(f"s{i}.conv", ci, co, 3, rng)
            lif = Mlif(f"s{i}.lif", cfg.lif)
            self.stages.append((conv, lif))

    def forward(self, x, training):
        with ad.scope(self.name):
            for i, (conv, lif) in enumerate(self.stages, start=1):
                x = conv.forward(x, training)
                with ad.scope(f"s{i}.pool"):
                    x = ad.maxpool2d(x, 2)
                x = lif.forward(x)
        return x


class SpikingSelfAttention(Module):
    """Q/K/V formed by 1x1 ConvBN + dedicated MLIF over the token grid;
    the scaled binary product passes MLIF -> ConvBN -> MLIF so the path
    output is again a spike tensor."""

    name = "attn"

    def __init__(self, cfg: ModelConfig, rng):
        d = cfg.d
        self.s = cfg.s
        self.q_conv = ConvBN("q.conv", d, d, 1, rng)
        self.k_conv = ConvBN("k.conv", d, d, 1, rng)
        self.v_conv = ConvBN("v.conv", d, d, 1, rng)
        self.q_lif = Mlif("q.lif", cfg.lif)
        self.k_lif = Mlif("k.lif", cfg.lif)
        self.v_lif = Mlif("v.lif", cfg.lif)
        self.attn_lif = Mlif("lif", cfg.lif)
        self.out_conv = ConvBN("out.conv", d, d, 1, rng)
        self.post_lif = Mlif("post.lif", cfg.lif)

    def forward(self, x, training):
        T, d, hh, ww = x.data.shape

        def tokens(z):
            return ad.transpose(ad.reshape(z, (T, d, hh * ww)), (0, 2, 1))

        with ad.scope(self.name):
            q = self.q_lif.forward(self.q_conv.forward(x, training))
            k = self.k_lif.forward(self.k_conv.forward(x, training))
            v = self.v_lif.forward(self.v_conv.forward(x, training))
            a = spike_attention_product(tokens(q), tokens(k), tokens(v), self.s, training)
            a = ad.reshape(ad.transpose(a, (0, 2, 1)), (T, d, hh, ww))
            out = self.attn_lif.forward(a)
            out = self.out_conv.forward(out, training)
            return self.post_lif.forward(out)


class SpikingMlp(Module):
    """Token-wise MLP path: ConvBN(D -> ratio*D) -> MLIF -> ConvBN(-> D) -> MLIF."""

    name = "mlp"

    def __init__(self, cfg: ModelConfig, rng):
        d, hidden = cfg.d, cfg.d * cfg.mlp_ratio
        self.fc1 = ConvBN("fc1.conv", d, hidden, 1, rng)
        self.lif1 = Mlif("lif1", cfg.lif)
        self.fc2 = ConvBN("fc2.conv", hidden, d, 1, rng)
        self.lif2 = Mlif("lif2", cfg.lif)

    def forward(self, x, training):
        with ad.scope(self.name):
            x = self.lif1.forward(self.fc1.forward(x, training))
            return self.lif2.forward(self.fc2.forward(x, training))


class TransformerBlock(Module):
    """Pre-activation spiking residual block.

    Y = X (+) SSA(X); Z = Y (+) MLP(Y).  Both paths end in an MLIF so the
    merge sees two binary operands; (+) is the clamped integer add (binary
    OR), so the block output is again a spike tensor.
    """

    def __init__(self, name, cfg: ModelConfig, rng):
        self.name = name
        self.attn = SpikingSelfAttention(cfg, rng)
        self.mlp = SpikingMlp(cfg, rng)

    def forward(self, x, training):
        with ad.scope(self.name):
            a = self.attn.forward(x, training)
            with ad.scope("merge1"):
                y = merge_spikes(x, a)
            m = self.mlp.forward(y, training)
            with ad.scope("merge2"):
                return merge_spikes(y, m)


class DepthModel(Module):
    """Patch embedding, L transformer blocks and a depth head; the single
    object checkpoints serialise, and the unnamed root of the module tree."""

    def __init__(self, cfg: ModelConfig, rng):
        self.cfg = cfg
        self.embed = PatchEmbed(cfg, rng)
        self.blocks = [TransformerBlock(f"block{i}", cfg, rng) for i in range(1, cfg.l + 1)]
        self.head = (FusionHead if cfg.head == "fusion" else LinearFcnHead)(cfg, rng)

    def forward(self, spikes_dense: np.ndarray, training: bool, validate: bool = False):
        """Run backbone + head on one dense event stream [T,C,H,W] as float32.
        Returns (per-block feature list, depth prediction tensor [H, W]).
        `validate` checks only that the stream is binary: the spikes inside
        the network are checked on the tape (`trace.assert_spike_purity`)."""
        x = ad.tensor(np.asarray(spikes_dense, dtype=np.float32))
        if x.data.shape != (self.cfg.t, self.cfg.c, self.cfg.h, self.cfg.w):
            raise DimensionError(
                f"backbone: input shape {x.data.shape} != configured "
                f"({self.cfg.t},{self.cfg.c},{self.cfg.h},{self.cfg.w})"
            )
        if validate and not is_binary(x.data):
            raise ContractError("backbone: input event stream is not binary")
        feats = []
        z = self.embed.forward(x, training)
        for block in self.blocks:
            z = block.forward(z, training)
            feats.append(z)
        pred = self.head.forward(feats, training)
        return feats, pred

    def predict(self, spikes_dense: np.ndarray) -> np.ndarray:
        """Eval-mode depth map [H, W] as a plain array (no tape)."""
        _, pred = self.forward(spikes_dense, training=False)
        return pred.data
