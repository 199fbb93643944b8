"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark command from BENCHMARK.json once per seed for each
workload (all of them by default), one run at a time, and prints, per
metric, the median and the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound.  A spread above a third of the bound is flagged; `setup_s`
is exempt from the spread rule.  Raw results are appended as JSON lines to
.bench/spread.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)

    log = ROOT / ".bench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for wl in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with log.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": wl, "seed": seed, **result}) + "\n")
            ok &= result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{wl} seed={seed} correct={result['correct']} " + " ".join(
                f"{n}={v['value']:.4g}" for n, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = "" if name == "setup_s" or share < bounds[name] / 3 else "  <-- above bound/3"
            ok &= not flag
            print(f"{wl} {name}: median={med:.6g} iqr/median={share:.4f} "
                  f"bound={bounds[name]}{flag}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
