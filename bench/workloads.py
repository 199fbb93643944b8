"""The benchmark's workloads.

Each workload is a closed loop in one process: the next operation starts
when the previous one has returned.  The seed drives every generated input
(scenes, training order, weight init); the package only ever sees those
inputs.  A workload provides:

* `prepare` -- once per run, untimed (e.g. the recipe model a sensor
  checkpoint is built from);
* `setup` -- the timed set-up that builds the inputs of `op`; repeated
  several times per run, its median is `setup_s`;
* `run_checks` -- once per run, untimed, extra contract checks;
* `op` -- the timed operation, `items` work items each (train steps,
  evaluated samples, CLI invocations); `traced_op` is what the traced run
  times (the in-process equivalent when `op` is a subprocess);
* `check` -- output checks after each op, a list of failure messages;
* `audit` / `delta1` -- energy report and delta1 of the op's result;
* `reference` -- the kernel its timings are normalised by (reference.py).
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spikedepth.autodiff as ad
from spikedepth import checkpoint, dataio, energy
from spikedepth import train as sdtrain
from spikedepth.errors import SpikeDepthError
from spikedepth.losses import DistillConfig
from spikedepth.metrics import METRIC_KEYS, evaluate
from spikedepth.model import DepthModel, ModelConfig
from spikedepth.trace import assert_spike_purity

import reference

# the acceptance recipe, and the same network at a sensor-sized input
RECIPE = dict(t=4, c=2, h=64, w=64, d=64, l=4)
SENSOR = dict(RECIPE, h=256, w=320)  # 32 x 40 = 1280 tokens
DISTILL = dict(teacher_dim=16, si_log_domain=True)
LR = 1e-3


def _gen(seed, n, shape):
    return dataio.gen_synthetic(seed=seed, n_samples=n, t=shape["t"], h=shape["h"], w=shape["w"],
                                teacher_dim=DISTILL["teacher_dim"])


def _write_and_load(samples, data_dir):
    dataio.write_dataset(data_dir, samples)
    return dataio.load_dataset(data_dir, need_teacher=True)


def _train(dataset, seed, steps, out_dir, **model_kw):
    return sdtrain.train(dataset, ModelConfig(**model_kw), DistillConfig(**DISTILL),
                         sdtrain.TrainConfig(seed=seed, steps=steps, lr=LR), out_dir)


def _rows_finite(rows):
    bad = [r for r in rows if not all(math.isfinite(v) for v in r[1:])]
    return [f"non-finite loss at step {bad[0][0]}"] if bad else []


def _tensors(model, projections=None):
    """Every array a checkpoint of `model` holds, by name."""
    out = {name: p.data for name, p in model.named_params()}
    out.update(model.named_buffers())
    if projections is not None:
        out.update((name, p.data) for name, p in projections.named_params())
    return out


class Workload:
    """Defaults: nothing to prepare or check once per run, the traced run
    times `op` itself, peak RSS is this process's."""

    rss_of_children = False

    def prepare(self, work, seed):
        return None

    def run_checks(self, state):
        return []

    def traced_op(self, state):
        return self.op(state)


@dataclass
class TrainState:
    seed: int
    dataset: list
    out: Path


class RecipeTrain(Workload):
    """`train()` on the acceptance recipe: fusion head, KD, log-domain SI-L2."""

    name = "recipe_train"
    items = STEPS = 10
    N_SAMPLES = 4
    reference = reference.Reference(reference.conv_kernel(4, 64, 8, 8, reps=100), 0.08)

    def setup(self, work, seed, prep):
        dataset = _write_and_load(_gen(seed, self.N_SAMPLES, RECIPE), work / "data")
        return TrainState(seed, dataset, work / "run")

    def op(self, state):
        return _train(state.dataset, state.seed, self.STEPS, state.out, **RECIPE)

    def check(self, state, res):
        fails = _rows_finite(res.rows)
        if res.steps != self.STEPS:
            fails.append(f"ran {res.steps} steps, expected {self.STEPS}")
        if not res.final_l2 < res.first_l2:
            fails.append(f"l_2 did not fall: {res.first_l2!r} -> {res.final_l2!r}")
        lines = Path(res.csv_path).read_text(encoding="utf-8").splitlines()
        if len(lines) != self.STEPS + 1:
            fails.append(f"loss CSV has {len(lines)} lines, expected {self.STEPS + 1}")
        model, proj, _ = checkpoint.load_model(res.checkpoint_path)
        want, got = _tensors(res.model, res.projections), _tensors(model, proj)
        if want.keys() != got.keys():
            fails.append(f"checkpoint reloads tensors {sorted(got)} != {sorted(want)}")
        bad = [k for k in want if k in got and (want[k].dtype != got[k].dtype
                                                or want[k].tobytes() != got[k].tobytes())]
        if bad:
            fails.append(f"checkpoint tensors do not reload bit-equal: {bad[:3]}")
        dense = state.dataset[0].spikes.to_dense()
        if not np.array_equal(res.model.predict(dense), model.predict(dense)):
            fails.append("reloaded checkpoint predicts differently")
        return fails

    def audit(self, state, res):
        return energy.audit(res.model, state.dataset[0].spikes.to_dense())

    def delta1(self, state, res):
        return sdtrain.evaluate_model(res.model, state.dataset)[0].delta1


class SensorFcnTrain(RecipeTrain):
    """`train()` at 256x320 with the linear-FCN ablation head: the backbone
    does the work at 1280 tokens and the head almost none."""

    name = "sensor_fcn_train"
    items = STEPS = 1  # one step per call keeps ~10 ops in a run
    N_SAMPLES = 2
    reference = reference.Reference(reference.conv_kernel(4, 64, 32, 40, reps=10), 0.15)

    def setup(self, work, seed, prep):
        dataset = _write_and_load(_gen(seed, self.N_SAMPLES, SENSOR), work / "data")
        return TrainState(seed, dataset, work / "run")

    def op(self, state):
        return _train(state.dataset, state.seed, self.STEPS, state.out, **SENSOR, head="linear_fcn")

    def check(self, state, res):
        return _rows_finite(res.rows)


@dataclass
class EvalState:
    ckpt: Path
    data_dir: Path
    samples: list


class SensorEval(Workload):
    """`evaluate_checkpoint` over a 256x320 dataset written during set-up.

    The checkpoint holds the weights of a recipe model after a short
    training, copied into a 256x320 model: an untrained model fires at rate
    0.0 in every block, so its spike operands would not be realistic.
    """

    name = "sensor_eval"
    items = N_SAMPLES = 2
    PRETRAIN_STEPS = 40
    reference = reference.Reference(reference.conv_kernel(4, 16, 128, 160, reps=2), 0.25)

    def prepare(self, work, seed):
        dataset = _write_and_load(_gen(seed, 4, RECIPE), work / "pretrain_data")
        return _train(dataset, seed, self.PRETRAIN_STEPS, work / "pretrain", **RECIPE).model

    def setup(self, work, seed, prep):
        samples = _gen(seed, self.N_SAMPLES, SENSOR)
        data_dir = work / "data"
        dataio.write_dataset(data_dir, samples)
        model = DepthModel(ModelConfig(**SENSOR), np.random.default_rng(seed))
        src = _tensors(prep)
        for name, dst in _tensors(model).items():
            dst[...] = src[name]
        ckpt = work / "sensor.sdtw"
        checkpoint.save_checkpoint(ckpt, model)
        return EvalState(ckpt, data_dir, samples)

    def run_checks(self, state):
        """Spike purity of a validating forward at 1280 tokens."""
        model, _, _ = checkpoint.load_model(state.ckpt)
        fails = []
        try:
            with ad.tape() as tp:
                feats, pred = model.forward(state.samples[0].spikes.to_dense(),
                                            training=False, validate=True)
            counters = assert_spike_purity(tp.entries, boundary_tensors=feats)
        except SpikeDepthError as exc:  # a contract violation is a failed check
            return [("purity_1280", [f"{type(exc).__name__}: {exc}"])]
        qk = [e for e in tp.entries if e.op == "matmul" and e.scope.endswith("attn.qk")]
        if len(qk) != model.cfg.l or counters["boundaries"] != model.cfg.l:
            fails.append(f"expected {model.cfg.l} QK^T products and boundaries, got "
                         f"{len(qk)} and {counters['boundaries']}")
        for e in qk:
            if not np.array_equal(e.output.data, np.rint(e.output.data)):
                fails.append(f"QK^T at {e.scope} is not integer-valued")
        if not (pred.data.min() > 0.0 and pred.data.max() < 1.0):
            fails.append("eval-mode prediction leaves (0, 1)")
        return [("purity_1280", fails)]

    def op(self, state):
        return sdtrain.evaluate_checkpoint(state.ckpt, state.data_dir)

    def check(self, state, res):
        fails = []
        names = [name for name, _ in res.per_sample]
        if names != [s.name for s in state.samples]:
            fails.append(f"evaluated samples {names} != dataset samples")
        for name, rep in [("mean", res.metrics)] + list(res.per_sample):
            if not all(math.isfinite(getattr(rep, k)) for k in METRIC_KEYS):
                fails.append(f"non-finite metric for {name}")
        rows = res.energy.rows
        total = res.energy.total_pj
        if not rows or sum(r.energy_pj for r in rows) != total:
            fails.append("energy rows do not sum to total_pj")
        if not math.isclose(res.energy.spike_pj + res.energy.float_pj, total, rel_tol=1e-12):
            fails.append("spike + float energy != total_pj")
        return fails

    def audit(self, state, res):
        return res.energy

    def delta1(self, state, res):
        return res.metrics.delta1


@dataclass
class CliState:
    ckpt: Path
    spk: Path
    out: Path
    depth: object
    env: dict


class CliInfer(Workload):
    """Repeated `python -m spikedepth infer` subprocesses, one at a time.

    Every call pays interpreter start, package import, checkpoint load,
    one recipe-size predict and the PGM write.  The checkpoint is an
    untrained recipe-size model: its weights do not change the dense work.
    """

    name = "cli_infer"
    items = 1
    rss_of_children = True
    reference = reference.STARTUP
    TIMEOUT_S = 60

    def setup(self, work, seed, prep):
        (sample,) = _gen(seed, 1, RECIPE)
        spk = work / "in.spkt"
        dataio.write_spikes(spk, sample.spikes)
        ckpt = work / "model.sdtw"
        checkpoint.save_checkpoint(ckpt, DepthModel(ModelConfig(**RECIPE), np.random.default_rng(seed)))
        return CliState(ckpt, spk, work / "pred.pgm", sample.depth, dict(os.environ))

    def _argv(self, state):
        # each call must write its own output, so drop the previous one
        state.out.unlink(missing_ok=True)
        return ["infer", "--ckpt", str(state.ckpt), "--spk", str(state.spk), "--out", str(state.out)]

    def op(self, state):
        proc = subprocess.run([sys.executable, "-m", "spikedepth"] + self._argv(state),
                              capture_output=True, text=True, env=state.env, timeout=self.TIMEOUT_S)
        return proc.returncode, proc.stdout

    def traced_op(self, state):
        from spikedepth import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self._argv(state))
        return code, buf.getvalue()

    def check(self, state, res):
        code, stdout = res
        h, w = RECIPE["h"], RECIPE["w"]
        if code != 0:
            return [f"exit code {code}: {stdout.strip()[-200:]}"]
        fails = []
        kv = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
        if kv.get("out") != str(state.out) or kv.get("h") != str(h) or kv.get("w") != str(w):
            fails.append(f"unexpected stdout {stdout!r}")
        header = state.out.read_bytes()[:32].split(b"\n")[:3] if state.out.exists() else None
        if header != [b"P5", f"{w} {h}".encode(), b"65535"]:
            fails.append(f"PGM header {header!r} != {w}x{h}")
        return fails

    def audit(self, state, res):
        model, _, _ = checkpoint.load_model(state.ckpt)
        return energy.audit(model, dataio.read_spikes(state.spk).to_dense())

    def delta1(self, state, res):
        raw = state.out.read_bytes()
        pix = np.frombuffer(raw[len(raw) - 2 * state.depth.values.size:], dtype=">u2")
        pred = (pix.astype(np.float64) / 65535.0).reshape(state.depth.shape)
        return evaluate(dataio.DepthMap(pred, np.ones(pred.shape, dtype=bool)), state.depth).delta1


WORKLOADS = {w.name: w for w in (RecipeTrain(), SensorEval(), SensorFcnTrain(), CliInfer())}
