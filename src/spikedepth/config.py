"""Flat key=value configuration files.

One ``key=value`` pair per line; blank lines and ``#`` comments are
ignored.  Unknown or duplicate keys are rejected so typos fail loudly.
The same encoding is embedded in checkpoints so a saved model can be
rebuilt without the original config file.

The keys are the fields of the config dataclasses — `ModelConfig` (with
its nested `LifParams` fields flattened in place), `DistillConfig` and
`TrainConfig` — plus the run paths ``data`` and ``out``.  A key's type is
that of its field's default: ``on``/``off`` for a bool, an int, a finite
float, comma-separated ints for a tuple, text otherwise.
Each config checks its own fields when it is built and is frozen after.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

from .dataio import utf8
from .errors import ConfigError
from .losses import DistillConfig
from .model import ModelConfig


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and run-length settings: checked when built, frozen after."""

    seed: int = 0
    epochs: int = 1
    steps: int = 0  # >0 caps total optimizer steps, cycling epochs as needed
    batch_size: int = 1
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float = 1.0
    kd: bool = True
    checkpoint_every: int = 0  # 0 = final checkpoint only

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0 or self.steps < 0 or (self.epochs == 0 and self.steps == 0):
            raise ConfigError("need epochs > 0 or steps > 0")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("adam betas must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ConfigError("adam_eps must be positive")
        if not self.grad_clip >= 0:  # 0 = no clipping
            raise ConfigError(f"grad_clip must be >= 0, got {self.grad_clip}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")


def _items(cfg):
    """(key, value) of every field of config `cfg` in declaration order; a
    nested config's fields stand in place of the field that holds it."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if is_dataclass(value):
            yield from _items(value)
        else:
            yield f.name, value


def _kind(default):
    return type(default) if type(default) in (bool, int, float, tuple) else str


KEY_TYPES = {
    key: _kind(default)
    for cls in (ModelConfig, DistillConfig, TrainConfig)
    for key, default in _items(cls())
}
KEY_TYPES.update(data=str, out=str)  # run-level paths, consumed by the CLI
KNOWN_KEYS = frozenset(KEY_TYPES)


def _item(text: str, where: str):
    """Stripped (key, value) of one ``key=value`` item; `where` prefixes errors."""
    key, eq, value = (part.strip() for part in text.partition("="))
    if not eq:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    if key not in KNOWN_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value


def parse_config_text(text: str) -> dict:
    """Parse flat key=value lines into a raw string dict."""
    out: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = _item(line, f"config line {ln}")
        if key in out:
            raise ConfigError(f"config line {ln}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config(path) -> dict:
    return parse_config_text(utf8(Path(path).read_bytes(), f"config file {path}", ConfigError))


def _convert(key: str, value: str):
    kind = KEY_TYPES[key]
    if kind is str:
        return value
    if kind is bool:
        if value not in ("on", "off"):
            raise ConfigError(f"config key {key!r}: expected on/off, got {value!r}")
        return value == "on"
    try:
        if kind is tuple:
            return tuple(int(p) for p in value.split(",") if p.strip())
        number = kind(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: bad value {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"config key {key!r}: value must be finite, got {value!r}")
    return number


def _format(key: str, value) -> str:
    kind = KEY_TYPES[key]
    if kind is bool:
        return "on" if value else "off"
    if kind is tuple:
        return ",".join(str(p) for p in value)
    return repr(value) if kind is float else str(value)


def apply_overrides(raw: dict, overrides) -> dict:
    """Merge ``key=value`` override strings (e.g. from a CLI) over a raw dict."""
    return {**raw, **dict(_item(item, "override") for item in overrides or ())}


def _build(cls, raw: dict):
    """A `cls` config from the keys present in `raw`; absent keys keep the
    field defaults."""
    kw = {}
    defaults = cls()
    for f in fields(cls):
        default = getattr(defaults, f.name)
        if is_dataclass(default):
            kw[f.name] = _build(type(default), raw)
        elif f.name in raw:
            kw[f.name] = _convert(f.name, raw[f.name])
    return cls(**kw)


def build_model_config(raw: dict) -> ModelConfig:
    return _build(ModelConfig, raw)


def build_distill_config(raw: dict, n_blocks: int) -> DistillConfig:
    return _build(DistillConfig, raw).check_blocks(n_blocks)


def build_train_config(raw: dict) -> TrainConfig:
    return _build(TrainConfig, raw)


def encode_model_config(cfg: ModelConfig, distill: DistillConfig | None = None) -> str:
    """Serialize configs to the flat text form embedded in checkpoints."""
    items = list(_items(cfg))
    if distill is not None:
        items += _items(distill)
    return "".join(f"{key}={_format(key, value)}\n" for key, value in items)


def decode_model_config(text: str):
    """Inverse of :func:`encode_model_config` → (ModelConfig, DistillConfig|None)."""
    raw = parse_config_text(text)
    model_cfg = build_model_config(raw)
    kd = any(f.name in raw for f in fields(DistillConfig))
    return model_cfg, build_distill_config(raw, n_blocks=model_cfg.l) if kd else None
