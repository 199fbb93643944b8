"""Command-line interface: full pipeline, output contract, error lines."""
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import disk_full_after, poison_payload
from spikedepth import dataio
from spikedepth.cli import main
from spikedepth.config import KNOWN_KEYS
from spikedepth.metrics import METRIC_KEYS

ROOT = Path(__file__).resolve().parent.parent

KEY_VALUE = re.compile(r"^[A-Za-z0-9_.]+=.*$")

TINY_GEN = ["--samples", "4", "--height", "16", "--width", "16",
            "--timesteps", "2", "--teacher-dim", "4"]

TINY_TRAIN_CFG = """\
# pipeline smoke config
t=2
h=16
w=16
d=8
l=4
teacher_dim=4
steps=2
lr=0.001
seed=1
"""


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out.splitlines()
    return rc, out


def _kv(lines):
    return dict(line.split("=", 1) for line in lines)


def _pipeline(tmp_path, capsys):
    """gen + train once; returns (data_dir, ckpt_path, all stdout lines)."""
    data = tmp_path / "data"
    run = tmp_path / "run"
    rc, gen_out = _run(capsys, ["gen", "--out", str(data), "--seed", "3"] + TINY_GEN)
    assert rc == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN_CFG + f"data={data}\nout={run}\n")
    rc, train_out = _run(capsys, ["train", "--config", str(cfg)])
    assert rc == 0
    return data, _kv(train_out)["checkpoint"], gen_out + train_out


def test_gen_reports_files(tmp_path, capsys):
    rc, out = _run(capsys, ["gen", "--out", str(tmp_path / "d")] + TINY_GEN)
    assert rc == 0
    kv = _kv(out)
    assert kv["count"] == "4"
    assert kv["data_files"] == "12"  # spikes + depth + features per sample
    assert kv["manifest"] == "manifest.txt"
    files = sorted(p.name for p in (tmp_path / "d").iterdir())
    assert len(files) == 13 and "manifest.txt" in files


def test_gen_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        rc, _ = _run(capsys, ["gen", "--out", str(tmp_path / sub), "--seed", "5"] + TINY_GEN)
        assert rc == 0
    for p in sorted((tmp_path / "a").iterdir()):
        assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes(), p.name


def test_gen_bad_height_is_config_error(tmp_path, capsys):
    rc, out = _run(capsys, ["gen", "--out", str(tmp_path / "d"), "--height", "20"])
    assert rc == 1
    assert len(out) == 1 and out[0].startswith("error=CONFIG/")


@pytest.mark.parametrize("flag,value,category", [
    ("--height", "0", "CONFIG"),
    ("--width", "-8", "CONFIG"),
    ("--contrast", "nan", "DATA"),
    ("--contrast", "inf", "DATA"),
    ("--contrast", "0", "DATA"),
    ("--teacher-dim", "-3", "CONFIG"),
    ("--teacher-dim", "0", "CONFIG"),
    ("--seed", "-1", "CONFIG"),
])
def test_gen_hostile_argument_is_one_error_line(tmp_path, capsys, flag, value, category):
    rc, out = _run(capsys, ["gen", "--out", str(tmp_path / "d"), "--samples", "1", flag, value])
    assert rc == 1
    assert len(out) == 1 and out[0].startswith(f"error={category}/"), out
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--samples", "abc"],
    ["bogus"],
    [],
    ["gen", "--samples", "1", "--nope", "1"],
], ids=["gen_samples_not_int", "unknown_subcommand", "no_subcommand", "unknown_flag"])
def test_usage_error_is_one_error_line(tmp_path, capsys, argv):
    if argv[:1] == ["gen"]:
        argv = argv + ["--out", str(tmp_path / "d")]
    rc = main(argv)
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert rc == 1
    assert len(out) == 1 and out[0].startswith("error=CONFIG/usage: "), out
    assert captured.err.startswith("usage: spikedepth")
    assert not (tmp_path / "d").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    assert exc.value.code == 0
    assert "--teacher-dim" in capsys.readouterr().out


def test_full_pipeline(tmp_path, capsys):
    data, ckpt, lines = _pipeline(tmp_path, capsys)

    # --- eval: count, metrics exactly once each, energy.* block, CSV sidecar
    csv_path = tmp_path / "per_sample.csv"
    rc, out = _run(capsys, ["eval", "--ckpt", ckpt, "--data", str(data),
                            "--csv", str(csv_path)])
    assert rc == 0
    lines += out
    kv = _kv(out)
    assert kv["count"] == "4"
    joined = "\n".join(out)
    for key in METRIC_KEYS:
        assert len(re.findall(rf"^{key}=", joined, re.M)) == 1, key
    assert "energy.total_pj" in kv
    csv_lines = csv_path.read_text().splitlines()
    assert len(csv_lines) == 5 and csv_lines[0].startswith("sample,abs_rel")

    # --- infer: DPTH output round-trips, PGM gets the right header
    spk = next(p for p in sorted(data.iterdir()) if p.suffix == ".spkt")
    dpth = tmp_path / "pred.dpth"
    rc, out = _run(capsys, ["infer", "--ckpt", ckpt, "--spk", str(spk),
                            "--out", str(dpth)])
    assert rc == 0
    lines += out
    pred = dataio.read_depth(dpth)
    assert pred.shape == (16, 16) and pred.mask.all()
    pgm = tmp_path / "pred.pgm"
    rc, out = _run(capsys, ["infer", "--ckpt", ckpt, "--spk", str(spk),
                            "--out", str(pgm)])
    assert rc == 0
    lines += out
    assert pgm.read_bytes().startswith(b"P5\n16 16\n65535\n")

    # --- energy: parsed per-layer rows sum exactly to the parsed total
    ecsv = tmp_path / "energy.csv"
    rc, out = _run(capsys, ["energy", "--ckpt", ckpt, "--spk", str(spk),
                            "--csv", str(ecsv)])
    assert rc == 0
    lines += out
    kv = _kv(out)
    n_rows = max(int(m.group(1)) for m in
                 (re.match(r"layer\.(\d+)\.", k) for k in kv) if m) + 1
    parts = [float(kv[f"layer.{i}.energy_pj"]) for i in range(n_rows)]
    assert sum(parts) == float(kv["total_pj"])
    assert len(ecsv.read_text().splitlines()) == 1 + n_rows

    # --- global stdout contract: every line is a key=value pair
    for line in lines:
        assert KEY_VALUE.match(line), line


# model sizes that are not positive, or so large that numpy refuses the
# weight's shape before allocating it, train settings below their range, a
# matched block named twice and a residual merge or rate encoding that is not
# the spike-driven network's
@pytest.mark.parametrize("override", ["d=0", "d=-4", "h=0", "w=-8", "seed=-1",
                                      "d=99999999999999999996",
                                      "mlp_ratio=99999999999999999999",
                                      "grad_clip=-1", "checkpoint_every=-2",
                                      "matched_blocks=4,4", "merge=add", "rate_mode=sum"])
def test_train_bad_model_size_is_one_error_line(tmp_path, capsys, override):
    data = _tiny_data(tmp_path, capsys)
    run = tmp_path / "run"
    fits = ["t=2", "h=16", "w=16", "d=8", "teacher_dim=4", "steps=1"]  # all but `override`
    rc, out = _run(capsys, ["train", "--data", str(data), "--out", str(run)]
                   + [arg for kv in fits + [override] for arg in ("--set", kv)])
    assert rc == 1
    assert len(out) == 1 and out[0].startswith("error=CONFIG/"), out
    assert not run.exists()


def test_train_negative_seed_in_a_config_file_is_one_error_line(tmp_path, capsys):
    """A seed below 0 is refused before the run, as `gen --seed -1` is: one
    error line, exit 1 and no out dir, not numpy's ValueError from the rng."""
    data = _tiny_data(tmp_path, capsys)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG.replace("seed=1", "seed=-1"))
    run = tmp_path / "run"
    rc, out = _run(capsys, ["train", "--config", str(cfg), "--data", str(data), "--out", str(run)])
    assert rc == 1
    assert out == ["error=CONFIG/seed must be >= 0, got -1"], out
    assert not run.exists()


@pytest.mark.parametrize("override, category, message", [
    ("teacher_dim=3", "CONFIG", "model/data mismatch: KD expects teacher features"),
    ("kd=on", "DATA", "KD needs teacher features"),
])
def test_train_teacher_features_checked_before_the_run(tmp_path, capsys, override,
                                                         category, message):
    """Teacher features that do not fit `teacher_dim`, or are missing under KD,
    end in one error line naming the sample, and the run makes no out dir."""
    data = _tiny_data(tmp_path, capsys)  # teacher features of 4 channels
    if category == "DATA":
        (data / "sample_000.feat").unlink()  # the loader gives sample 0 no features
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    run = tmp_path / "run"
    rc, out = _run(capsys, ["train", "--config", str(cfg), "--data", str(data),
                            "--out", str(run), "--set", override])
    assert rc == 1
    assert len(out) == 1 and out[0].startswith(f"error={category}/train: "), out
    assert message in out[0] and "'sample_000'" in out[0], out[0]
    assert not run.exists()


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    """An allocation that fails while the model is built ends in one IO line,
    and the refused run makes no out dir."""
    from spikedepth import train as train_mod

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 191. GiB for an array")

    monkeypatch.setattr(train_mod, "DepthModel", no_memory)
    data = _tiny_data(tmp_path, capsys)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    run = tmp_path / "run"
    rc, out = _run(capsys, ["train", "--config", str(cfg), "--data", str(data),
                            "--out", str(run)])
    assert rc == 1
    assert out == ["error=IO/out of memory: Unable to allocate 191. GiB for an array"]
    assert not run.exists()


def test_train_overrides_and_missing_paths(tmp_path, capsys):
    data = tmp_path / "data"
    rc, _ = _run(capsys, ["gen", "--out", str(data)] + TINY_GEN)
    assert rc == 0
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG)  # no data=/out= keys
    rc, out = _run(capsys, ["train", "--config", str(cfg)])
    assert rc == 1 and out[0].startswith("error=CONFIG/")
    rc, out = _run(capsys, ["train", "--config", str(cfg), "--data", str(data)])
    assert rc == 1 and out == ["error=CONFIG/train: no output directory (pass --out or config key out=)"]
    # --data/--out and --set fill the gaps
    rc, out = _run(capsys, ["train", "--config", str(cfg), "--data", str(data),
                            "--out", str(tmp_path / "run"), "--set", "steps=1"])
    assert rc == 0
    assert _kv(out)["steps"] == "1"


def test_infer_zero_spikes_is_uniform_half(tmp_path, capsys):
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    spk = tmp_path / "zero.spkt"
    dataio.write_spikes(spk, dataio.SpikeTensor.from_dense(np.zeros((2, 2, 16, 16))))
    out = tmp_path / "pred.dpth"
    rc, _ = _run(capsys, ["infer", "--ckpt", ckpt, "--spk", str(spk),
                          "--out", str(out)])
    assert rc == 0
    pred = dataio.read_depth(out)
    np.testing.assert_allclose(pred.values, 0.5, atol=1e-7)


def _pipeline_untrained(tmp_path):
    """Checkpoint of a freshly initialized model (no training)."""
    from helpers import tiny_model
    from spikedepth.checkpoint import save_checkpoint

    ckpt = tmp_path / "init.sdtw"
    save_checkpoint(ckpt, tiny_model(seed=0))
    return None, str(ckpt), None


@pytest.mark.parametrize("command,out_name", [
    ("eval", "metrics.csv"), ("energy", "energy.csv"),
    ("infer", "pred.pgm"), ("infer", "pred.dpth"),
])
def test_failed_output_write_leaves_old_file(tmp_path, capsys, monkeypatch, command, out_name):
    data = _tiny_data(tmp_path, capsys)
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    spk = str(data / "sample_000.spkt")
    out = tmp_path / "out" / out_name
    out.parent.mkdir()
    out.write_bytes(b"old contents\n")
    argv = {
        "eval": ["eval", "--ckpt", ckpt, "--data", str(data), "--csv", str(out)],
        "energy": ["energy", "--ckpt", ckpt, "--spk", spk, "--csv", str(out)],
        "infer": ["infer", "--ckpt", ckpt, "--spk", spk, "--out", str(out)],
    }[command]
    with disk_full_after(monkeypatch, 10):
        rc, lines = _run(capsys, argv)
    assert rc == 1
    errors = [line for line in lines if line.startswith("error=")]
    assert errors == lines[-1:] and errors[0].startswith("error=IO/") and "No space" in errors[0]
    assert out.read_bytes() == b"old contents\n"
    assert [p.name for p in out.parent.iterdir()] == [out_name]  # no temp file left


@pytest.mark.parametrize("command", ["eval", "energy"])
def test_unwritable_csv_prints_no_report(tmp_path, capsys, command):
    """The CSV is written before any report line, so a --csv that names a
    directory ends in one error line and no report."""
    data = _tiny_data(tmp_path, capsys)
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    target = tmp_path / "csv_dir"
    target.mkdir()
    argv = {
        "eval": ["eval", "--ckpt", ckpt, "--data", str(data)],
        "energy": ["energy", "--ckpt", ckpt, "--spk", str(data / "sample_000.spkt")],
    }[command]
    rc, lines = _run(capsys, argv + ["--csv", str(target)])
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error=IO/"), lines
    assert list(target.iterdir()) == []


def test_checkpoint_with_appended_bytes_is_refused(tmp_path, capsys):
    """A checkpoint ends with its last tensor: bytes after it are refused by
    `load_model`, and `infer`, `eval` and `energy` each print one IO error
    line and write nothing."""
    from spikedepth.checkpoint import load_model
    from spikedepth.errors import FormatError

    data = _tiny_data(tmp_path, capsys)
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    with open(ckpt, "ab") as fh:
        fh.write(b"\x00\x01\x02\x03")
    with pytest.raises(FormatError, match="4 bytes after its payload"):
        load_model(ckpt)
    out = tmp_path / "out"
    out.mkdir()
    spk = str(data / "sample_000.spkt")
    for argv in (["infer", "--ckpt", ckpt, "--spk", spk, "--out", str(out / "pred.pgm")],
                 ["eval", "--ckpt", ckpt, "--data", str(data), "--csv", str(out / "m.csv")],
                 ["energy", "--ckpt", ckpt, "--spk", spk, "--csv", str(out / "e.csv")]):
        rc, lines = _run(capsys, argv)
        assert rc == 1
        assert len(lines) == 1 and lines[0].startswith("error=IO/"), lines
    assert list(out.iterdir()) == []


def test_train_out_that_is_a_file_is_refused_before_training(tmp_path, capsys, monkeypatch):
    from spikedepth import train as train_mod

    def no_model(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(train_mod, "DepthModel", no_model)
    data = _tiny_data(tmp_path, capsys)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    run = tmp_path / "run"
    run.write_bytes(b"not a directory\n")
    rc, out = _run(capsys, ["train", "--config", str(cfg), "--data", str(data), "--out", str(run)])
    assert rc == 1
    assert len(out) == 1 and out[0].startswith("error=IO/"), out
    assert "not a directory" in out[0] and str(run) in out[0], out[0]
    assert run.read_bytes() == b"not a directory\n"


def test_io_error_names_the_target_not_the_temp_file(tmp_path, capsys):
    data = _tiny_data(tmp_path, capsys)
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    target = tmp_path / "out_dir"
    target.mkdir()
    rc, lines = _run(capsys, ["infer", "--ckpt", ckpt, "--spk", str(data / "sample_000.spkt"),
                              "--out", str(target)])
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("error=IO/"), lines
    assert "out_dir" in lines[0] and ".tmp" not in lines[0], lines[0]
    assert not list(tmp_path.glob(".*.tmp"))  # the temporary file is removed


def test_error_categories(tmp_path, capsys):
    rc, out = _run(capsys, ["eval", "--ckpt", str(tmp_path / "missing.sdtw"),
                            "--data", str(tmp_path)])
    assert rc == 1 and out[0].startswith("error=IO/")

    bad = tmp_path / "bad.spkt"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    rc, out = _run(capsys, ["infer", "--ckpt", ckpt, "--spk", str(bad),
                            "--out", str(tmp_path / "x.dpth")])
    assert rc == 1 and out[0].startswith("error=IO/")

    rc, out = _run(capsys, ["eval", "--ckpt", ckpt, "--data", str(tmp_path / "nodata")])
    assert rc == 1 and out[0].startswith("error=DATA/")


def _child_env():
    """The environment of a child that imports this checkout's package,
    whatever pytest's working directory is."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


# a fresh interpreter runs one sensor-size forward and prints its peak RSS
_PEAK_RSS = """\
import resource, sys
from spikedepth.checkpoint import load_model
from spikedepth.dataio import load_dataset
from spikedepth.train import evaluate_checkpoint
ckpt, data, mode = sys.argv[1:]
if mode == "eval":
    evaluate_checkpoint(ckpt, data)
else:
    model, _, _ = load_model(ckpt)
    model.predict(load_dataset(data)[0].spikes.to_dense())
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_evaluate_checkpoint_peak_rss_is_near_predicts(tmp_path):
    """The audited forward of `evaluate_checkpoint` keeps no activations: at
    256x320 its fresh-process peak RSS is within 1.3x of a `predict` run's."""
    from spikedepth.checkpoint import save_checkpoint
    from spikedepth.model import DepthModel, ModelConfig

    cfg = ModelConfig(t=4, c=2, h=256, w=320, d=64, l=4)
    ckpt = tmp_path / "sensor.sdtw"
    save_checkpoint(ckpt, DepthModel(cfg, np.random.default_rng(0)))
    dataio.write_dataset(tmp_path / "data", dataio.gen_synthetic(seed=8, n_samples=1, t=4,
                                                                 h=256, w=320, teacher_dim=4))
    peak = {}
    for mode in ("eval", "predict"):
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, str(ckpt), str(tmp_path / "data"),
                               mode], capture_output=True, text=True, env=_child_env(), cwd=ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        peak[mode] = int(proc.stdout.split()[-1])
    assert peak["eval"] <= 1.3 * peak["predict"], peak


@pytest.mark.parametrize("value,ok", [("1", True), ("abc", False), ("0", False)])
def test_sdt_threads_validation(tmp_path, value, ok):
    env = dict(_child_env(), SDT_THREADS=value)
    proc = subprocess.run(
        [sys.executable, "-m", "spikedepth", "gen", "--out", str(tmp_path / "d"),
         "--samples", "1", "--height", "16", "--width", "16",
         "--timesteps", "1", "--teacher-dim", "2"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    if ok:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    else:
        assert proc.returncode == 1
        assert proc.stdout.startswith("error=CONFIG/SDT_THREADS")


@pytest.mark.parametrize("module", ["config", "train", "checkpoint", "cli"])
def test_each_module_imports_first(module):
    """No import cycle: any of these can be the first spikedepth import."""
    proc = subprocess.run([sys.executable, "-c", f"import spikedepth.{module}"],
                          capture_output=True, text=True, env=_child_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr


# a fresh interpreter runs one subcommand, then names the modules it loaded
_COLD_START = """\
import sys
from spikedepth.cli import main
from spikedepth.config import KNOWN_KEYS
rc = main(sys.argv[1:])
print("modules=" + ",".join(m for m in sys.modules if m.startswith(("numpy.random", "spikedepth."))))
sys.exit(rc)
"""


@pytest.mark.parametrize("command,not_loaded", [
    ("infer", {"numpy.random", "spikedepth.train", "spikedepth.energy"}),
    ("eval", {"numpy.random"}),
    ("energy", {"numpy.random"}),
], ids=["infer", "eval", "energy"])
def test_cold_start_loads_only_what_the_subcommand_uses(tmp_path, capsys, command, not_loaded):
    """Checkpoint loading draws no random numbers, and `infer` loads no
    training or audit code."""
    data = _tiny_data(tmp_path, capsys)
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    spk = str(data / "sample_000.spkt")
    argv = {
        "infer": ["infer", "--ckpt", ckpt, "--spk", spk, "--out", str(tmp_path / "pred.pgm")],
        "eval": ["eval", "--ckpt", ckpt, "--data", str(data)],
        "energy": ["energy", "--ckpt", ckpt, "--spk", spk],
    }[command]
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *argv],
                          capture_output=True, text=True, env=_child_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    modules = set(proc.stdout.splitlines()[-1].removeprefix("modules=").split(","))
    assert "spikedepth.checkpoint" in modules  # the child did load a model
    assert not modules & not_loaded, sorted(modules & not_loaded)


def _tiny_data(tmp_path, capsys):
    data = tmp_path / "data"
    rc, _ = _run(capsys, ["gen", "--out", str(data)] + TINY_GEN)
    assert rc == 0
    return data


@pytest.mark.parametrize("override", ["lr=nan", "tau=inf", "lambda_p=-inf", "s=nan",
                                      "beta1=nan", "grad_clip=inf"])
def test_non_finite_config_value_fails_before_training(tmp_path, capsys, override):
    data = _tiny_data(tmp_path, capsys)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    run = tmp_path / "run"
    rc, out = _run(capsys, ["train", "--config", str(cfg), "--data", str(data),
                            "--out", str(run), "--set", "steps=1", "--set", override])
    assert rc == 1
    assert len(out) == 1 and out[0].startswith("error=CONFIG/"), out
    assert not (run / "model.sdtw").exists()


@pytest.mark.parametrize("override", ["s=1e308", "lr=1e30"])
def test_overflow_is_one_numeric_error_line_and_no_warning(tmp_path, capsys, override):
    data = _tiny_data(tmp_path, capsys)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise out of main
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "run"), "--set", override])
    captured = capsys.readouterr()
    assert rc == 1
    out = captured.out.splitlines()
    assert len(out) == 1 and out[0].startswith("error=NUMERIC/"), out
    assert captured.err == ""
    assert not (tmp_path / "run").exists()  # the run failed before its first write


def test_non_finite_parameters_are_never_saved(tmp_path, capsys, monkeypatch):
    from spikedepth import train as train_mod

    step = train_mod.Adam.step

    def poisoned_step(self, grad_scale=1.0):
        gnorm = step(self, grad_scale)
        self.params[0].data[0] = np.nan
        return gnorm

    monkeypatch.setattr(train_mod.Adam, "step", poisoned_step)
    data = _tiny_data(tmp_path, capsys)
    cfg = tmp_path / "t.cfg"
    cfg.write_text(TINY_TRAIN_CFG)
    run = tmp_path / "run"
    rc, out = _run(capsys, ["train", "--config", str(cfg), "--data", str(data),
                            "--out", str(run), "--set", "steps=1"])
    assert rc == 1
    assert len(out) == 1 and out[0].startswith("error=NUMERIC/"), out
    assert "embed.s1.conv.w" in out[0]
    assert not run.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("eval", "--eps", "nan"), ("eval", "--eps", "0"), ("eval", "--eps", "inf"),
    ("eval", "--eps", "1e300"),
    ("energy", "--e-mac", "nan"), ("energy", "--e-mac", "inf"), ("energy", "--e-ac", "-5"),
    # finite costs whose energies overflow to inf, or to NaN on a silent layer
    ("energy", "--e-mac", "1e308"), ("energy", "--e-ac", "1e308"),
])
def test_eval_energy_hostile_argument_is_one_error_line(tmp_path, capsys, command, flag, value):
    data = _tiny_data(tmp_path, capsys)
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    argv = {"eval": ["eval", "--ckpt", ckpt, "--data", str(data)],
            "energy": ["energy", "--ckpt", ckpt, "--spk", str(data / "sample_000.spkt")]}[command]
    rc, out = _run(capsys, argv + [flag, value])
    assert rc == 1
    assert len(out) == 1 and out[0].startswith("error=CONFIG/"), out


def _assert_negative_running_var_fails(tmp_path, capsys, command, layer):
    """A negative running variance is finite, so the loader accepts it; the
    eval forward that normalises with it (in a fused `conv_bn` op, or folded
    into the fusion head's tail) still ends in one NUMERIC line, with no
    warning, and writes no output.  Returns that line."""
    data = _tiny_data(tmp_path, capsys)
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    Path(ckpt).write_bytes(poison_payload(Path(ckpt).read_bytes(), f"{layer}.running_var", -1.0))
    spk = str(data / "sample_000.spkt")
    out = tmp_path / "out"
    argv = {
        "infer": ["infer", "--ckpt", ckpt, "--spk", spk, "--out", str(out)],
        "eval": ["eval", "--ckpt", ckpt, "--data", str(data), "--csv", str(out)],
        "energy": ["energy", "--ckpt", ckpt, "--spk", spk, "--csv", str(out)],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise out of main
        rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error=NUMERIC/"), lines
    assert captured.err == ""
    assert not out.exists()
    return lines[0]


@pytest.mark.parametrize("layer", ["head.l2.conv", "head.l3.conv", "head.l4.conv"])
@pytest.mark.parametrize("command", ["infer", "eval", "energy"])
def test_negative_head_running_var_is_one_numeric_error_line(tmp_path, capsys, command, layer):
    _assert_negative_running_var_fails(tmp_path, capsys, command, layer)


@pytest.mark.parametrize("layer", ["embed.s1.conv", "block1.attn.q.conv", "block2.attn.q.conv"])
@pytest.mark.parametrize("command", ["infer", "eval", "energy"])
def test_negative_backbone_running_var_is_one_numeric_error_line(tmp_path, capsys, command, layer):
    """infer runs its forward with no tape and eval and energy under an
    audit's inspection tape, and each names the layer that failed."""
    line = _assert_negative_running_var_fails(tmp_path, capsys, command, layer)
    assert line == f"error=NUMERIC/conv_bn: non-finite values in result ({layer})"


def _corrupt_manifest(tmp_path, capsys, old, new):
    data = _tiny_data(tmp_path, capsys)
    manifest = data / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes().replace(old, new, 1))
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    return ["eval", "--ckpt", ckpt, "--data", str(data)]


def _corrupt_checkpoint(tmp_path, old, new):
    _, ckpt, _ = _pipeline_untrained(tmp_path)
    blob = Path(ckpt).read_bytes()
    if old is None:  # a NaN in the first weight's payload
        blob = poison_payload(blob, "embed.s1.conv.w")
    else:
        assert old in blob and len(old) == len(new)
        blob = blob.replace(old, new, 1)
    Path(ckpt).write_bytes(blob)
    spk = tmp_path / "zero.spkt"
    dataio.write_spikes(spk, dataio.SpikeTensor.from_dense(np.zeros((2, 2, 16, 16))))
    return ["infer", "--ckpt", ckpt, "--spk", str(spk), "--out", str(tmp_path / "p.dpth")]


def _non_utf8_config(tmp_path, capsys):
    data = _tiny_data(tmp_path, capsys)
    cfg = tmp_path / "t.cfg"
    cfg.write_bytes(TINY_TRAIN_CFG.encode() + b"# caf\xe9\n")
    return ["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "run")]


@pytest.mark.parametrize("make_argv,category", [
    pytest.param(lambda tp, cs: _corrupt_manifest(tp, cs, b"spk=", b"spk "), "DATA",
                 id="manifest_token_without_equals"),
    pytest.param(lambda tp, cs: _corrupt_manifest(tp, cs, b"sample=", b"sample=\xff"), "DATA",
                 id="manifest_not_utf8"),
    pytest.param(lambda tp, cs: _corrupt_checkpoint(tp, b"embed.s1.conv.w", b"embed.s1.conv.\xff"),
                 "IO", id="checkpoint_tensor_name_not_utf8"),
    pytest.param(lambda tp, cs: _corrupt_checkpoint(tp, b"merge=clamp", b"merge=cl\xffmp"),
                 "IO", id="checkpoint_config_not_utf8"),
    pytest.param(lambda tp, cs: _corrupt_checkpoint(tp, None, None), "IO",
                 id="checkpoint_payload_nan"),
    pytest.param(lambda tp, cs: _corrupt_checkpoint(tp, b"\nd=8\n", b"\nd=0\n"), "CONFIG",
                 id="checkpoint_config_d_0"),
    pytest.param(lambda tp, cs: _corrupt_checkpoint(tp, b"merge=clamp\n", b"merge=add  \n"),
                 "CONFIG", id="checkpoint_config_merge_add"),
    pytest.param(_non_utf8_config, "CONFIG", id="config_file_not_utf8"),
])
def test_malformed_input_is_one_error_line(tmp_path, capsys, make_argv, category):
    rc, out = _run(capsys, make_argv(tmp_path, capsys))
    assert rc == 1
    assert len(out) == 1 and out[0].startswith(f"error={category}/"), out


# ---------------------------------------------------------------------------
# property: every subcommand keeps the output contract under hostile input

# numbers no flag may take silently; HUGE only where a value sizes no work
_BAD_NUMBERS = ["nan", "-nan", "inf", "-inf", "-1", "0", "-0.0", "2.5", "abc", "", " ", "0x10"]
_HUGE = ["1e308", "-1e308", "1e-320", "9" * 40]
# config keys whose value sizes the work of a run, each with its base value
_SIZING = {"t": "2", "c": "2", "h": "8", "w": "8", "d": "4", "l": "4", "mlp_ratio": "2",
           "teacher_dim": "4", "steps": "1", "epochs": "1", "batch_size": "1",
           "checkpoint_every": "0"}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 2-sample 8x8 dataset and a d=4 checkpoint trained on it for one step."""
    root = tmp_path_factory.mktemp("contract")
    data, run = root / "data", root / "run"
    argv = ["gen", "--out", str(data), "--samples", "2", "--height", "8", "--width", "8",
            "--timesteps", "2", "--teacher-dim", "4"]
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        assert main(["train", "--data", str(data), "--out", str(run),
                     *(f"--set={k}={v}" for k, v in _SIZING.items())]) == 0
    cfg = root / "train.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in _SIZING.items()) + "lr=0.001\n")
    return data, run / "model.sdtw", cfg


def _number(draw, ints=None, huge=False):
    """A flag value: an in-range int from `ints`, a bad number, or a huge one."""
    pool = [st.sampled_from(_BAD_NUMBERS + (_HUGE if huge else []))]
    if ints is not None:
        pool.append(st.integers(*ints).map(str))
    return draw(st.one_of(pool))


def _mangled(draw, blob: bytes) -> bytes:
    """`blob` cut short, or with a few bits flipped."""
    if not blob or draw(st.booleans()):
        return blob[:draw(st.integers(0, max(len(blob) - 1, 0)))]
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.integers(0, len(out) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


def _in_path(draw, good: Path, wrong: list, tmp: Path) -> str:
    """A path to a truncated or bit-flipped copy of the `good` file, to a
    file of the wrong format, to a directory, or to nothing."""
    kind = draw(st.sampled_from(["mangled", "wrong", "dir", "missing"]))
    if kind == "wrong":
        return str(draw(st.sampled_from(wrong)))
    if kind == "dir":
        return str(tmp)
    path = tmp / f"in_{draw(st.integers(0, 9**6))}{good.suffix}"
    if kind == "mangled":
        path.write_bytes(_mangled(draw, good.read_bytes()))
    return str(path)


def _data_dir(draw, good: Path, tmp: Path) -> str:
    """A copy of the `good` dataset with one file mangled, an empty
    directory, a file, or nothing."""
    kind = draw(st.sampled_from(["mangled", "empty", "file", "missing"]))
    if kind == "file":
        return str(good / "manifest.txt")
    copy = tmp / f"data_{draw(st.integers(0, 9**6))}"
    if kind == "empty":
        copy.mkdir()
    elif kind == "mangled":
        shutil.copytree(good, copy)
        victim = copy / draw(st.sampled_from(sorted(p.name for p in good.iterdir())))
        victim.write_bytes(_mangled(draw, victim.read_bytes()))
    return str(copy)


def _out_path(draw, tmp: Path) -> str:
    """An existing directory, or a path below a file."""
    if draw(st.booleans()):
        return str(tmp)
    (tmp / "file").write_bytes(b"x")
    return str(tmp / "file" / "out")


def _set_items(draw) -> list:
    """One to three --set overrides of any key with a hostile value; a key
    that sizes the run stays within two steps of an 8x8 model."""
    items = []
    for key in draw(st.lists(st.sampled_from(sorted(KNOWN_KEYS)), min_size=1, max_size=3)):
        if key in _SIZING:
            value = _number(draw, (-1, 2) if key in ("steps", "epochs") else (-1, 9))
        else:
            value = draw(st.one_of(st.sampled_from(_BAD_NUMBERS + _HUGE), st.text(max_size=12)))
        items.append(f"--set={key}={value}")
    return items


def _contract_argv(draw, tiny, tmp: Path) -> list:
    """A run of one subcommand whose arguments are good but for up to two,
    each a hostile number, --set text, input file or output path."""
    data, ckpt, cfg = tiny
    spk = data / "sample_000.spkt"
    wrong = [ckpt, spk, data / "manifest.txt", cfg]
    ckpt_slot = (str(ckpt), lambda: _in_path(draw, ckpt, wrong, tmp))
    spk_slot = (str(spk), lambda: _in_path(draw, spk, wrong, tmp))
    data_slot = (str(data), lambda: _data_dir(draw, data, tmp))
    out_slot = (str(tmp / "out"), lambda: _out_path(draw, tmp))
    # flag -> (its good value, a drawer of a hostile one)
    slots = {
        "gen": {"--out": out_slot, "--samples": ("2", lambda: _number(draw, (0, 3))),
                **{flag: ("8", lambda: _number(draw, (0, 33)))
                   for flag in ("--height", "--width", "--timesteps", "--teacher-dim")},
                "--seed": ("3", lambda: _number(draw, (-2, 2**70), huge=True)),
                "--contrast": ("0.15", lambda: _number(draw, huge=True))},
        "train": {"--config": (str(cfg), lambda: _in_path(draw, cfg, wrong, tmp)),
                  "--data": data_slot, "--out": out_slot},
        "eval": {"--ckpt": ckpt_slot, "--data": data_slot,
                 "--eps": ("1e-3", lambda: _number(draw, huge=True)),
                 "--csv": (str(tmp / "eval.csv"), lambda: _out_path(draw, tmp))},
        "infer": {"--ckpt": ckpt_slot, "--spk": spk_slot,
                  "--out": (str(tmp / draw(st.sampled_from(["p.pgm", "p.dpth"]))),
                            lambda: _out_path(draw, tmp))},
        "energy": {"--ckpt": ckpt_slot, "--spk": spk_slot,
                   "--e-mac": ("4.6", lambda: _number(draw, huge=True)),
                   "--e-ac": ("0.9", lambda: _number(draw, huge=True)),
                   "--csv": (str(tmp / "energy.csv"), lambda: _out_path(draw, tmp))},
    }
    command = draw(st.sampled_from(sorted(slots)))
    names = sorted(slots[command]) + ["--set"] * (command == "train")
    spoiled = draw(st.sets(st.sampled_from(names), max_size=2))
    argv = [command]
    for flag, (good, bad) in slots[command].items():
        argv += [flag, bad() if flag in spoiled else good]
    if command == "train":
        argv += [f"--set={k}={v}" for k, v in _SIZING.items()]
        argv += _set_items(draw) if "--set" in spoiled else []
    return argv


def _assert_output_contract(argv):
    """`main(argv)` ends either in exit 0 with only key=value lines, or in
    exit 1 with exactly one error= line; stderr stays empty but for
    argparse's usage text on a usage error, and nothing warns."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    lines, err = out.getvalue().splitlines(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if rc == 0:
        assert lines and all(KEY_VALUE.match(ln) and not ln.startswith("error=") for ln in lines), lines
        assert err == ""
    else:
        assert rc == 1 and len(lines) == 1 and lines[0].startswith("error="), (rc, lines)
        usage = lines[0].startswith("error=CONFIG/usage: ")
        assert err.startswith("usage: spikedepth") if usage else err == "", err


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_subcommand_keeps_the_output_contract(tiny_run, data):
    """Hostile numbers, --set text and input files keep the output contract."""
    with tempfile.TemporaryDirectory() as tmp:
        _assert_output_contract(_contract_argv(data.draw, tiny_run, Path(tmp)))


@pytest.mark.parametrize("key", sorted(KNOWN_KEYS))
def test_every_set_key_keeps_the_output_contract_for_every_bad_number(tiny_run, tmp_path,
                                                                      monkeypatch, key):
    """`train --set KEY=VALUE` for every bad number, and every huge one
    where the key sizes no work, keeps the output contract: the property
    test above draws only a few of these pairs (it never drew seed=-1).
    The other sizing keys keep their 8x8 base values."""
    data, _, _ = tiny_run
    monkeypatch.chdir(tmp_path)  # a relative out= or data= value lands here
    for i, value in enumerate(_BAD_NUMBERS + ([] if key in _SIZING else _HUGE)):
        items = {**_SIZING, key: value}
        _assert_output_contract(["train", "--data", str(data), "--out", str(tmp_path / f"run{i}"),
                                 *(f"--set={k}={v}" for k, v in items.items())])
