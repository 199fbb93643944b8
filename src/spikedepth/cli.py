"""Command-line interface.

Subcommands: gen, train, eval, infer, energy.  Standard output is
machine-parsable ``key=value`` lines only; failures, usage errors and
running out of memory included, print a single ``error=CATEGORY/message``
line and exit 1.  The ``SDT_THREADS`` environment variable (default 1) caps
BLAS/OpenMP thread pools for reproducible timings.
"""
from __future__ import annotations

import os


def _init_threads():
    """Pin math-library thread pools before numpy is first imported."""
    raw = os.environ.get("SDT_THREADS", "1")
    try:
        n = int(raw)
        if n < 1:
            raise ValueError
    except ValueError:
        return f"SDT_THREADS must be a positive integer, got {raw!r}"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, str(n))
    return None


_THREAD_ERROR = _init_threads()

import argparse
import sys

import numpy as np

from . import checkpoint as ckpt
from . import config as cfgmod
from . import dataio
from .errors import ConfigError, SpikeDepthError
from .metrics import DEFAULT_EPS, MetricsReport


def _emit(**kv):
    for key, value in kv.items():
        print(f"{key}={value}")


def _cmd_gen(args) -> int:
    samples = dataio.gen_synthetic(
        seed=args.seed, n_samples=args.samples, t=args.timesteps,
        h=args.height, w=args.width,
        contrast_threshold=args.contrast, teacher_dim=args.teacher_dim,
    )
    files = dataio.write_dataset(args.out, samples)
    _emit(out=args.out, count=len(samples), seed=args.seed,
          data_files=len(files) - 1, manifest=files[-1])
    return 0


def _cmd_train(args) -> int:
    from .train import train

    raw = cfgmod.read_config(args.config) if args.config else {}
    raw = cfgmod.apply_overrides(raw, args.set)
    data_dir = args.data or raw.get("data")
    out_dir = args.out or raw.get("out")
    if not data_dir:
        raise ConfigError("train: no dataset (pass --data or config key data=)")
    if not out_dir:
        raise ConfigError("train: no output directory (pass --out or config key out=)")
    model_cfg = cfgmod.build_model_config(raw)
    distill_cfg = cfgmod.build_distill_config(raw, n_blocks=model_cfg.l)
    train_cfg = cfgmod.build_train_config(raw)
    result = train(dataio.load_dataset(data_dir), model_cfg, distill_cfg, train_cfg, out_dir)
    _emit(
        steps=result.steps,
        final_total=repr(result.final_total),
        final_l_2=repr(result.final_l2),
        loss_csv=result.csv_path,
        checkpoint=result.checkpoint_path,
    )
    return 0


def _report(lines, csv_path, csv_lines) -> int:
    """Write `csv_lines` to `csv_path`, if given, before the first report
    line is printed, so that a CSV that cannot be written ends in one
    error= line alone."""
    if csv_path:
        dataio.write_lines(csv_path, csv_lines)
    for line in lines:
        print(line)
    if csv_path:
        _emit(csv=csv_path)
    return 0


def _cmd_eval(args) -> int:
    from .train import evaluate_checkpoint

    res = evaluate_checkpoint(args.ckpt, args.data, eps=args.eps)
    lines = [f"count={len(res.per_sample)}", *res.metrics.to_lines(),
             *(f"energy.{line}" for line in res.energy.to_lines())]
    rows = [MetricsReport.csv_header()] + [rep.to_csv_row(name) for name, rep in res.per_sample]
    return _report(lines, args.csv, rows)


def _cmd_infer(args) -> int:
    model, _, _ = ckpt.load_model(args.ckpt)
    spikes = dataio.read_spikes(args.spk)
    pred = model.predict(spikes.to_dense())
    if str(args.out).lower().endswith(".pgm"):
        dataio.export_pgm(args.out, pred)
    else:
        dataio.write_depth(args.out, dataio.DepthMap(pred, np.ones(pred.shape, dtype=bool)))
    _emit(out=args.out, h=pred.shape[0], w=pred.shape[1])
    return 0


def _cmd_energy(args) -> int:
    from . import energy

    model, _, _ = ckpt.load_model(args.ckpt)
    spikes = dataio.read_spikes(args.spk)
    report = energy.audit(model, spikes.to_dense(),
                          e_mac_pj=energy.E_MAC_PJ if args.e_mac is None else args.e_mac,
                          e_ac_pj=energy.E_AC_PJ if args.e_ac is None else args.e_ac)
    return _report(report.to_lines(), args.csv, report.csv_rows())


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, so it ends in one error= line
    and exit 1 like any other failure; the usage text still goes to stderr.
    Subcommand parsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"usage: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spikedepth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic event/depth dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--timesteps", type=int, default=4)
    p.add_argument("--contrast", type=float, default=0.15)
    p.add_argument("--teacher-dim", type=int, default=16)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train a model on a generated dataset")
    p.add_argument("--config", default=None)
    p.add_argument("--data", default=None, help="dataset dir (overrides config key data=)")
    p.add_argument("--out", default=None, help="output dir (overrides config key out=)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="metrics + energy audit of a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--csv", default=None, help="write per-sample metrics CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("infer", help="predict depth for one spike file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--spk", required=True)
    p.add_argument("--out", required=True,
                   help="output path; .pgm extension exports 16-bit PGM, else DPTH")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("energy", help="theoretical energy audit of one forward pass")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--spk", required=True)
    # an omitted cost is None here and energy's own default in `_cmd_energy`,
    # so that building the parser loads no energy code
    p.add_argument("--e-mac", type=float, default=None)
    p.add_argument("--e-ac", type=float, default=None)
    p.add_argument("--csv", default=None, help="write per-layer rows CSV here")
    p.set_defaults(func=_cmd_energy)
    return parser


def main(argv=None) -> int:
    if _THREAD_ERROR is not None:
        print(f"error=CONFIG/{_THREAD_ERROR}")
        return 1
    try:
        args = build_parser().parse_args(argv)
        # a non-finite value ends in a NumericError from the op that made it
        # (`autodiff._guard`, `neuron.lif_step`), not in numpy warnings on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (SpikeDepthError, OSError, MemoryError) as exc:
        # a package error names its category; the OS and the allocator are IO
        msg = f"out of memory: {exc}" if isinstance(exc, MemoryError) else str(exc)
        print(f"error={getattr(exc, 'category', 'IO')}/{msg}".replace("\n", "; "))
        return 1


def entry() -> None:
    try:
        sys.exit(main())
    except BrokenPipeError:  # stdout consumer (e.g. head) went away
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    entry()
