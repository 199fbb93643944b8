"""Flat key=value configuration files.

One ``key=value`` pair per line; blank lines and ``#`` comments are
ignored.  Unknown or duplicate keys are rejected so typos fail loudly.
The same encoding is embedded in checkpoints so a saved model can be
rebuilt without the original config file.
"""
from __future__ import annotations

import math

from .errors import ConfigError
from .losses import DistillConfig
from .model import ModelConfig
from .neuron import LifParams

_INT_KEYS = {
    "t", "c", "h", "w", "d", "l", "mlp_ratio", "teacher_dim",
    "seed", "epochs", "batch_size", "checkpoint_every", "steps",
}
_FLOAT_KEYS = {
    "s", "tau", "v_threshold", "v_reset", "surrogate_alpha",
    "lr", "beta1", "beta2", "adam_eps", "grad_clip",
    "lambda_p", "lambda_2",
}
_STR_KEYS = {"merge", "rate_mode", "head", "kd", "si_log_domain", "matched_blocks"}
_PATH_KEYS = {"data", "out"}  # run-level paths, consumed by the CLI

KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _PATH_KEYS

_MODEL_KEYS = (
    "t", "c", "h", "w", "d", "l", "s", "mlp_ratio",
    "tau", "v_threshold", "v_reset", "surrogate_alpha",
    "merge", "rate_mode", "head",
)
_DISTILL_KEYS = ("lambda_p", "lambda_2", "matched_blocks", "teacher_dim", "si_log_domain")


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines into a raw string dict."""
    out: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"config line {ln}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"config line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from exc
    return parse_config_text(text)


def _convert(key: str, value: str):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key not in _FLOAT_KEYS:
            return value
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: bad value {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"config key {key!r}: value must be finite, got {value!r}")
    return number


def _flag(key: str, value: str) -> bool:
    if value not in ("on", "off"):
        raise ConfigError(f"config key {key!r}: expected on/off, got {value!r}")
    return value == "on"


def apply_overrides(raw: dict, overrides) -> dict:
    """Merge ``key=value`` override strings (e.g. from a CLI) over a raw dict."""
    merged = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"override: unknown key {key!r}")
        merged[key] = value
    return merged


def build_model_config(raw: dict) -> ModelConfig:
    kw = {}
    lif_kw = {}
    for key in _MODEL_KEYS:
        if key not in raw:
            continue
        val = _convert(key, raw[key])
        if key in ("tau", "v_threshold", "v_reset", "surrogate_alpha"):
            lif_kw[key] = val
        else:
            kw[key] = val
    if lif_kw:
        kw["lif"] = LifParams(**lif_kw)
    cfg = ModelConfig(**kw)
    cfg.validate()
    return cfg


def build_distill_config(raw: dict, n_blocks: int | None = None) -> DistillConfig:
    kw = {}
    if "lambda_p" in raw:
        kw["lambda_p"] = _convert("lambda_p", raw["lambda_p"])
    if "lambda_2" in raw:
        kw["lambda_2"] = _convert("lambda_2", raw["lambda_2"])
    if "teacher_dim" in raw:
        kw["teacher_dim"] = _convert("teacher_dim", raw["teacher_dim"])
    if "si_log_domain" in raw:
        kw["si_log_domain"] = _flag("si_log_domain", raw["si_log_domain"])
    if "matched_blocks" in raw:
        try:
            blocks = tuple(int(p) for p in raw["matched_blocks"].split(",") if p.strip())
        except ValueError as exc:
            raise ConfigError(f"config key 'matched_blocks': bad value {raw['matched_blocks']!r}") from exc
        kw["matched_blocks"] = blocks
    cfg = DistillConfig(**kw)
    cfg.validate(n_blocks)
    return cfg


def encode_model_config(cfg: ModelConfig, distill: DistillConfig | None = None) -> str:
    """Serialize configs to the flat text form embedded in checkpoints."""
    lines = [
        f"t={cfg.t}", f"c={cfg.c}", f"h={cfg.h}", f"w={cfg.w}",
        f"d={cfg.d}", f"l={cfg.l}", f"s={cfg.s!r}", f"mlp_ratio={cfg.mlp_ratio}",
        f"tau={cfg.lif.tau!r}", f"v_threshold={cfg.lif.v_threshold!r}",
        f"v_reset={cfg.lif.v_reset!r}", f"surrogate_alpha={cfg.lif.surrogate_alpha!r}",
        f"merge={cfg.merge}", f"rate_mode={cfg.rate_mode}", f"head={cfg.head}",
    ]
    if distill is not None:
        blocks = ",".join(str(b) for b in distill.matched_blocks)
        lines += [
            f"lambda_p={distill.lambda_p!r}", f"lambda_2={distill.lambda_2!r}",
            f"matched_blocks={blocks}", f"teacher_dim={distill.teacher_dim}",
            f"si_log_domain={'on' if distill.si_log_domain else 'off'}",
        ]
    return "\n".join(lines) + "\n"


def decode_model_config(text: str):
    """Inverse of :func:`encode_model_config` → (ModelConfig, DistillConfig|None)."""
    raw = parse_config_text(text)
    model_cfg = build_model_config(raw)
    distill = None
    if any(k in raw for k in _DISTILL_KEYS):
        distill = build_distill_config(raw, n_blocks=model_cfg.l)
    return model_cfg, distill
