"""Weighted layer building blocks shared by the backbone and the depth heads."""
from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import DimensionError
from .neuron import LifParams, mlif


def kaiming_uniform(rng, shape, fan_in):
    """Fan-in scaled uniform init, U(-sqrt(6/fan_in), +sqrt(6/fan_in)),
    drawn from `rng` in float64 and rounded to float32, the network's dtype.

    `rng=None` draws nothing and returns zeros, for a caller that overwrites
    every tensor (`checkpoint.load_model`): building a model then needs no
    random numbers, so it does not load `numpy.random`.  A shape that numpy
    refuses before allocating (a dimension or byte count beyond its index
    range) raises DimensionError.
    """
    bound = math.sqrt(6.0 / fan_in)
    try:
        if rng is None:
            return np.zeros(shape, dtype=np.float32)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)
    except ValueError as exc:
        raise DimensionError(f"model size too large: weight shape {shape} ({exc})") from None


class Module:
    """A named layer, or a tree of named layers.

    Naming rule: `name` is both the `ad.scope` that `forward` runs in and
    the prefix of the module's tensor names, so one path names a layer on
    the tape and in a checkpoint (scope `block1.attn.q.conv`, tensor
    `block1.attn.q.conv.w`).  `named_tensors()` walks `vars(self)` once, in
    assignment order, and returns the parameters and the buffers it met,
    which `named_params()` / `named_buffers()` give one at a time: an
    `ad.Tensor` with `is_param` is a parameter and an `np.ndarray` a buffer,
    each named after its attribute; a child `Module`, also one inside a
    list, tuple or dict (dicts in sorted key order), contributes its own
    names under `name + "."`.  The root model keeps the empty name and adds
    no prefix.
    """

    name = ""

    def named_params(self):
        return self.named_tensors()[0]

    def named_buffers(self):
        return self.named_tensors()[1]

    def named_tensors(self):
        """(named_params(), named_buffers()) from one walk of the tree."""
        params, buffers = [], []
        for name, value in self._named():
            (params if isinstance(value, ad.Tensor) else buffers).append((name, value))
        return params, buffers

    def _named(self, prefix=""):
        prefix = f"{prefix}{self.name}." if self.name else prefix
        out = []
        for attr, value in vars(self).items():
            if isinstance(value, np.ndarray) or (isinstance(value, ad.Tensor) and value.is_param):
                out.append((prefix + attr, value))
            for child in _modules(value):
                out += child._named(prefix)
        return out


def _modules(value):
    """`value` if it is a Module, else the Modules nested in a list, tuple or dict."""
    if isinstance(value, Module):
        return [value]
    if isinstance(value, (list, tuple)):
        return [m for v in value for m in _modules(v)]
    if isinstance(value, dict):
        return [m for k in sorted(value) for m in _modules(value[k])]
    return []


class Conv(Module):
    """Plain 2-D convolution (used for final projections), "same" padded
    with `k // 2` for the odd kernels every caller uses.

    `bias=False` suits projections that sit right before a loss or squashing
    nonlinearity on top of an affine stack: the bias would be a redundant
    degree of freedom there, and for offset-invariant losses it is an
    unconstrained one that optimizers random-walk.
    """

    def __init__(self, name, cin, cout, k, rng, bias=True):
        self.name = name
        self.pad = k // 2
        self.w = ad.parameter(kaiming_uniform(rng, (cout, cin, k, k), cin * k * k))
        self.b = ad.parameter(np.zeros(cout, dtype=np.float32)) if bias else None

    def forward(self, x):
        with ad.scope(self.name):
            return ad.conv2d(x, self.w, self.b, pad=self.pad)


class ConvBN(Module):
    """Convolution (bias-free, "same" padded with `k // 2` for the odd
    kernels every caller uses) followed by per-channel batch normalisation.

    Training mode normalises with the statistics of the current call and
    updates running buffers (momentum 0.1), as `conv2d` -> `batchnorm`.
    Eval mode applies the running statistics as one `ad.conv_bn` op under
    any tape or none: it has the bits of the `conv2d` -> `batchnorm` graph,
    forward and backward, and keeps no conv output on a gradient tape.
    """

    def __init__(self, name, cin, cout, k, rng):
        self.name = name
        self.pad = k // 2
        self.w = ad.parameter(kaiming_uniform(rng, (cout, cin, k, k), cin * k * k))
        self.gamma = ad.parameter(np.ones(cout, dtype=np.float32))
        self.beta = ad.parameter(np.zeros(cout, dtype=np.float32))
        self.running_mean = np.zeros(cout, dtype=np.float32)
        self.running_var = np.ones(cout, dtype=np.float32)

    def forward(self, x, training):
        with ad.scope(self.name):
            if not training:
                return ad.conv_bn(x, self.w, self.gamma, self.beta, self.running_mean,
                                  self.running_var, pad=self.pad)
            y = ad.conv2d(x, self.w, pad=self.pad)
            return ad.batchnorm(y, self.gamma, self.beta, running_mean=self.running_mean,
                                running_var=self.running_var, training=True)


class Mlif(Module):
    """Multistep LIF layer wrapper with a trace scope."""

    def __init__(self, name, params: LifParams):
        self.name = name
        self.params = params

    def forward(self, x):
        with ad.scope(self.name):
            return mlif(x, self.params)
