"""spikedepth benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  Each
invocation runs one workload (see workloads.py and BENCHMARK.json) in this
fresh process, as a closed loop for S seconds, with one BLAS thread
(SDT_THREADS=1).  Scratch files go under .bench/ and are removed on exit;
a traced run leaves its spans file there.

--trace 0 prints the end-to-end metrics: median ms per work item, set-up
time (median of several set-ups), peak RSS and the audited energy of one
inference.  Times are normalised to nominal host speed by a reference
kernel timed before and after each of them (see reference.py).

--trace 1 runs set-up plus one operation three times: under the span
tracer (tracer.py), untraced, and traced again.  It prints the per-layer
table and metrics, checks that per-layer self times account for the traced
wall time and that every count repeats exactly between the two traced
passes, and writes the spans to .bench/trace-<workload>-seed<N>.json.  The
traced run's times are raw wall clock.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Every failed output check counts one failed op.
Timings are in-process wall clocks only: no hardware counters, no cache
drop, no frequency pinning.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import AD_OPS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("SDT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LIMITATION = "in-process wall clocks only; no hardware counters, no cache drop, no frequency pinning"
SETUP_REPS = 5
IMPORT_REPS = 5
# a relative gap above this between traced wall time and the summed span
# self times means the spans do not account for the traced run
SELF_TIME_TOLERANCE = 0.02

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# per-layer metrics that are computed or counted, not timed: they must
# repeat exactly between two traced passes
COUNT_METRICS = [k for k, u in PER_LAYER.items() if u != "ms"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_threads():
    """One BLAS/OpenMP thread, set before numpy loads; children inherit it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))


def environment(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        **{var.lower(): os.environ[var] for var in THREAD_VARS},
        "limitation": LIMITATION,
    }


class Ledger:
    """Attempted / failed op counts plus the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, what, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages += [f"{what}: {msg}" for msg in fails]


def run_untraced(wl, args, work, ledger):
    """Closed loop of `wl.op` for `args.seconds`; every set-up and op is
    normalised by the reference kernel timed right before and after it."""
    ref = wl.reference
    refs = [ref.kernel()]

    def normalised(dt):
        refs.append(ref.kernel())
        return dt * ref.nominal_s / ((refs[-2] + refs[-1]) / 2)

    prep = wl.prepare(work, args.seed)
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.setup(work, args.seed, prep)
        setup_s.append(normalised(time.perf_counter() - t0))
    for what, fails in wl.run_checks(state):
        ledger.record(what, fails)

    def attempt(what):
        """One checked op -> (result, wall seconds), or None if it raised."""
        try:
            t0 = time.perf_counter()
            res = wl.op(state)
            dt = time.perf_counter() - t0
            ledger.record(what, wl.check(state, res))
            return res, dt
        except Exception as exc:  # a package error is a failed op, not a crash
            traceback.print_exc(file=sys.stderr)
            ledger.record(what, [f"{type(exc).__name__}: {exc}"])
            return None

    # one untimed op first, so lazy set-up and cold caches are not timed
    attempt("warm-up op")
    per_item, raw, last = [], [], None
    refs.append(ref.kernel())
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        out = attempt("op")
        if out is None:
            refs.append(ref.kernel())
            continue
        last, dt = out
        raw.append(dt / wl.items)
        per_item.append(normalised(dt) / wl.items)
    if last is None:
        return dict.fromkeys(END_TO_END, 0.0)
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    print(f"ops={len(per_item)} raw_item_ms_p50={statistics.median(raw) * 1e3:.3f} "
          f"reference_ms_p50={statistics.median(refs) * 1e3:.3f} item_ms="
          + ",".join(f"{t * 1e3:.1f}" for t in per_item))
    return {
        "item_ms_p50": statistics.median(per_item) * 1e3,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "energy_uj": wl.audit(state, last).total_pj * 1e-6,
    }


def _cli_import_ms():
    code = ("import time; t = time.perf_counter(); import spikedepth.cli; "
            "print(time.perf_counter() - t)")
    runs = [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 check=True, timeout=60).stdout) for _ in range(IMPORT_REPS)]
    return statistics.median(runs) * 1e3


def _firing_rate(rows, prefix):
    rows = [r for r in rows if r.kind == "spike" and r.name.startswith(prefix)]
    ops = sum(r.equiv_macs * r.timesteps for r in rows)
    return sum(r.synops for r in rows) / ops if ops else 0.0


def layer_metrics(tracer, summary, wall_s, report, delta1, untraced_s):
    def incl(name):
        return summary.get(name, {}).get("incl_s", 0.0) * 1e3

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    c = tracer.counts
    m = {}
    for op in AD_OPS + ("other",):
        m[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.fwd_ms"] = incl(f"autodiff.{op}.fwd")
        m[f"autodiff.{op}.bwd_ms"] = incl(f"autodiff.{op}.bwd")
    self_sum = sum(r["self_s"] for r in summary.values()) * 1e3
    roots = sum(r["self_s"] for n, r in summary.items() if n.startswith("bench.")) * 1e3
    m.update({
        "autodiff.backward_ms": incl("autodiff.backward"),
        "autodiff.conv2d.gmac": c["conv2d.macs"] / 1e9,
        "autodiff.conv2d.im2col_mb": c["conv2d.im2col_bytes"] / 1e6,
        "autodiff.matmul.gmac": c["matmul.macs"] / 1e9,
        "neuron.mlif.calls": calls("neuron.mlif.fwd"),
        "neuron.mlif.fwd_ms": incl("neuron.mlif.fwd"),
        "neuron.mlif.bwd_ms": incl("neuron.mlif.bwd"),
        "neuron.mlif.neuron_steps": c["mlif.neuron_steps"],
        "model.forward.ms": incl("model.forward"), "model.embed.ms": incl("model.embed"),
        "model.block.ms": incl("model.block"), "model.attn.ms": incl("model.attn"),
        "model.attn_product.ms": incl("model.attn_product"), "model.mlp.ms": incl("model.mlp"),
        "layers.conv_bn.ms": incl("layers.conv_bn"),
        "model.embed.firing_rate": _firing_rate(report.rows, "embed."),
        **{f"model.block{i}.firing_rate": _firing_rate(report.rows, f"block{i}.")
           for i in range(1, 5)},
        "head.forward_ms": incl("head.forward"),
        "losses.total_loss_ms": incl("losses.total_loss"),
        "train.adam_step_ms": incl("train.adam_step"),
        "checkpoint.save_ms": incl("checkpoint.save"), "checkpoint.load_ms": incl("checkpoint.load"),
        "checkpoint.bytes": c["checkpoint.bytes"],
        **{f"dataio.{f}_ms": incl(f"dataio.{f}")
           for f in ("gen_synthetic", "write_dataset", "load_dataset", "read_spikes", "to_dense")},
        "metrics.evaluate_ms": incl("metrics.evaluate"), "metrics.delta1": delta1,
        "energy.audit_ms": incl("energy.audit"),
        "energy.spike_uj": report.spike_pj * 1e-6, "energy.float_uj": report.float_pj * 1e-6,
        "cli.import_ms": 0.0, "cli.work_ms": incl("cli.main"),
        "trace.wall_ms": wall_s * 1e3, "trace.untraced_ms": untraced_s * 1e3,
        "trace.overhead_ms": (wall_s - untraced_s) * 1e3,
        "trace.self_sum_ms": self_sum, "trace.unattributed_ms": roots,
        "trace.spans": len(tracer.spans),
    })
    return m


def run_traced(wl, args, work, ledger):
    """-> (per-layer metrics, spans of the second traced pass)."""
    import spikedepth

    modules = {n: getattr(spikedepth, n) for n in
               ("autodiff", "layers", "model", "head", "train", "checkpoint", "dataio", "energy")}
    if wl.name == "cli_infer":
        modules["cli"] = spikedepth.cli
    prep = wl.prepare(work, args.seed)
    state = wl.setup(work, args.seed, prep)
    for what, fails in wl.run_checks(state):
        ledger.record(what, fails)

    def untraced():
        t0 = time.perf_counter()
        state = wl.setup(work, args.seed, prep)
        res = wl.traced_op(state)
        wall = time.perf_counter() - t0
        ledger.record("untraced op", wl.check(state, res))
        return wall

    def traced():
        tracer = Tracer()
        with tracer.installed(modules):
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                state = wl.setup(work, args.seed, prep)
            with tracer.span("bench.op"):
                res = wl.traced_op(state)
            wall = time.perf_counter() - t0
        ledger.record("traced op", wl.check(state, res))
        try:
            summary = summarize(tracer.spans)
        except ValueError as exc:
            ledger.record("span nesting", [str(exc)])
            summary = {}
        return tracer, summary, wall, wl.audit(state, res), wl.delta1(state, res)

    # traced pass 1 doubles as warm-up, so the untraced run and traced pass
    # 2, whose difference is the tracing overhead, both run warm
    passes = [traced()]
    untraced_s = untraced()
    passes.append(traced())
    counts, metrics = (layer_metrics(*p, untraced_s) for p in passes)
    tracer, summary = passes[1][:2]
    if wl.name == "cli_infer":
        metrics["cli.import_ms"] = _cli_import_ms()

    ledger.record("count repeat", [f"{k}: {counts[k]!r} != {metrics[k]!r}"
                                   for k in COUNT_METRICS if counts[k] != metrics[k]])
    gap = abs(metrics["trace.wall_ms"] - metrics["trace.self_sum_ms"])
    ledger.record("self time", [] if gap <= SELF_TIME_TOLERANCE * metrics["trace.wall_ms"] else
                  [f"span self times sum to {metrics['trace.self_sum_ms']:.1f} ms, "
                   f"traced wall is {metrics['trace.wall_ms']:.1f} ms"])

    wall_ms = metrics["trace.wall_ms"]
    print(f"{'span':<24} {'calls':>7} {'incl_ms':>10} {'self_ms':>10} {'self%':>6}")
    for name, r in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<24} {r['calls']:>7} {r['incl_s'] * 1e3:>10.2f} "
              f"{r['self_s'] * 1e3:>10.2f} {100 * r['self_s'] * 1e3 / wall_ms:>6.1f}")
    return metrics, tracer.spans


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spikedepth" / "__init__.py").is_file():
        print(f"error: no spikedepth package under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment(args)
    for key, value in env.items():
        print(f"env.{key}={value}")

    out_dir = ROOT / ".bench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=out_dir))
    ledger = Ledger()
    try:
        if args.trace:
            values, spans = run_traced(wl, args, work, ledger)
            units = PER_LAYER
        else:
            values = run_untraced(wl, args, work, ledger)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.trace:
        spans_path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"env": env, "result": result, "spans": spans}),
                              encoding="utf-8")
        print(f"spans={spans_path.relative_to(ROOT)}")
    for msg in ledger.messages:
        print(f"failure: {msg}")
    for name, unit in units.items():
        print(f"{name}={values[name]!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
