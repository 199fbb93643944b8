"""Span recorder that times the spikedepth layers from outside the package.

While `Tracer.installed()` is active, the module attributes and class
methods through which the package calls its layers are replaced by wrappers
that record one span per call.  The wrapped attribute is always the one the
caller looks up: `spikedepth.layers.mlif` (not `neuron.mlif`, which `layers`
imported by name), `spikedepth.model.spike_attention_product`,
`spikedepth.autodiff.conv2d`, `spikedepth.train.total_loss`, and so on.
`Tape.backward` is wrapped so that every recorded `TapeEntry.bwd` closure is
itself wrapped before the reverse sweep runs.

Spans stay in memory as `[name, start, end, parent]` lists (parent is an
index into the list, -1 for a root) and are summarised or written out once
the benchmark ends.  Exact work counts (MACs, im2col bytes, neuron steps,
checkpoint bytes) are computed from argument shapes at the same boundaries;
they are computed, not measured.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter
from contextlib import contextmanager

# autodiff ops that get their own per-layer rows; every other op is "other"
AD_OPS = ("conv2d", "matmul", "batchnorm", "maxpool2d", "upsample_bilinear")
AD_OTHER_OPS = ("add", "sub", "mul", "scale", "clamp", "sigmoid", "log",
                "reshape", "transpose", "reduce_sum")


def _conv_counts(c, x, w, b=None, stride=1, pad=0):
    shape = x.data.shape
    batch = shape[0] if len(shape) == 4 else 1
    cin, h, wd = shape[-3:]
    cout, _, k, _ = w.data.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    c["conv2d.macs"] += batch * cout * ho * wo * cin * k * k
    # rows x cols of the im2col matrix the correlation core materialises
    c["conv2d.im2col_bytes"] += batch * ho * wo * cin * k * k * x.data.itemsize


def _matmul_counts(c, a, b):
    lead = 1
    for dim in a.data.shape[:-2]:
        lead *= dim
    m, k = a.data.shape[-2:]
    c["matmul.macs"] += lead * m * k * b.data.shape[-1]


def _mlif_counts(c, x, params):
    c["mlif.neuron_steps"] += x.data.size


def _file_bytes(c, path, *args, **kwargs):
    c["checkpoint.bytes"] += os.path.getsize(path)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _enter(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def wrap(self, fn, name, count=None):
        """`fn` recording a span per call; `count(counts, *args, **kwargs)`
        runs after a successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count is not None:
                count(self.counts, *args, **kwargs)
            return out

        return wrapper

    def _patches(self, sd):
        ad, layers, model, head = sd["autodiff"], sd["layers"], sd["model"], sd["head"]
        train, ckpt, dataio, energy = sd["train"], sd["checkpoint"], sd["dataio"], sd["energy"]
        counters = {"conv2d": _conv_counts, "matmul": _matmul_counts}
        out = [(ad, op, f"autodiff.{op}.fwd", counters.get(op)) for op in AD_OPS]
        out += [(ad, op, "autodiff.other.fwd", None) for op in AD_OTHER_OPS]
        out += [
            (layers, "mlif", "neuron.mlif.fwd", _mlif_counts),
            (layers.Conv, "forward", "layers.conv", None),
            (layers.ConvBN, "forward", "layers.conv_bn", None),
            (model.DepthModel, "forward", "model.forward", None),
            (model.PatchEmbed, "forward", "model.embed", None),
            (model.TransformerBlock, "forward", "model.block", None),
            (model.SpikingSelfAttention, "forward", "model.attn", None),
            (model, "spike_attention_product", "model.attn_product", None),
            (model.SpikingMlp, "forward", "model.mlp", None),
            (head.FusionHead, "forward", "head.forward", None),
            (head.LinearFcnHead, "forward", "head.forward", None),
            (train, "total_loss", "losses.total_loss", None),
            (train.Adam, "step", "train.adam_step", None),
            (train, "save_checkpoint", "checkpoint.save", _file_bytes),
            (ckpt, "save_checkpoint", "checkpoint.save", _file_bytes),
            (ckpt, "load_model", "checkpoint.load", _file_bytes),
            (dataio, "gen_synthetic", "dataio.gen_synthetic", None),
            (dataio, "write_dataset", "dataio.write_dataset", None),
            (dataio, "load_dataset", "dataio.load_dataset", None),
            (train, "load_dataset", "dataio.load_dataset", None),
            (dataio, "read_spikes", "dataio.read_spikes", None),
            (dataio.SpikeTensor, "to_dense", "dataio.to_dense", None),
            (train, "evaluate", "metrics.evaluate", None),
            (energy, "audit", "energy.audit", None),
        ]
        if "cli" in sd:
            out.append((sd["cli"], "main", "cli.main", None))
        return out

    def _wrap_backward(self, orig):
        timed = self.wrap(orig, "autodiff.backward")
        wrap = self.wrap

        def backward(tape, loss):
            for e in tape.entries:
                if e.bwd is not None:
                    e.bwd = wrap(e.bwd, bwd_span_name(e.op))
            return timed(tape, loss)

        return backward

    @contextmanager
    def installed(self, sd):
        """Wrap the layers of the spikedepth modules in `sd` (name -> module)."""
        saved = []
        try:
            for owner, attr, name, count in self._patches(sd):
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, count))
            tape_cls = sd["autodiff"].Tape
            saved.append((tape_cls, "backward", tape_cls.backward))
            tape_cls.backward = self._wrap_backward(tape_cls.backward)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)


def bwd_span_name(op):
    if op == "mlif":
        return "neuron.mlif.bwd"
    return f"autodiff.{op if op in AD_OPS else 'other'}.bwd"


def summarize(spans):
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children.  Inclusive time counts only the outermost span of a name, so a
    name nested inside itself is not counted twice.  Raises ValueError if a
    span is unclosed or lies outside its parent's interval.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        if parent >= 0:
            _, pstart, pend, _ = spans[parent]
            if start < pstart or (pend is not None and end > pend):
                raise ValueError(f"span {name!r} lies outside its parent {spans[parent][0]!r}")
            child[parent] += end - start
    rows = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = rows.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["incl_s"] += end - start
    return rows
