"""Flat key=value config parsing, overrides, and encode/decode round-trips."""
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedepth.config import (
    KEY_TYPES,
    KNOWN_KEYS,
    TrainConfig,
    apply_overrides,
    build_distill_config,
    build_model_config,
    build_train_config,
    decode_model_config,
    encode_model_config,
    parse_config_text,
    read_config,
)
from spikedepth.errors import ConfigError, SpikeDepthError
from spikedepth.losses import DistillConfig
from spikedepth.model import HEAD_KINDS, ModelConfig
from spikedepth.neuron import LifParams


# The 33 keys and their types written out by hand: what config.py derives from
# the config dataclasses must not drift from them.
_PINNED_TYPES = {
    int: {"t", "c", "h", "w", "d", "l", "mlp_ratio", "teacher_dim",
          "seed", "epochs", "batch_size", "checkpoint_every", "steps"},
    float: {"s", "tau", "v_threshold", "v_reset", "surrogate_alpha",
            "lr", "beta1", "beta2", "adam_eps", "grad_clip", "lambda_p", "lambda_2"},
    bool: {"kd", "si_log_domain"},
    tuple: {"matched_blocks"},
    str: {"merge", "rate_mode", "head", "data", "out"},
}


def test_key_schema_is_pinned():
    assert len(KNOWN_KEYS) == 33
    assert KNOWN_KEYS == set().union(*_PINNED_TYPES.values())
    assert KEY_TYPES == {key: kind for kind, keys in _PINNED_TYPES.items() for key in keys}


@pytest.mark.parametrize("build, raw, message", [
    (build_model_config, {"t": "two"}, "config key 't': bad value 'two'"),
    (build_train_config, {"seed": "1.5"}, "config key 'seed': bad value '1.5'"),
    (build_model_config, {"s": "nan"}, "config key 's': value must be finite, got 'nan'"),
    (build_train_config, {"lr": "inf"}, "config key 'lr': value must be finite, got 'inf'"),
    (build_distill_config, {"lambda_p": "x"}, "config key 'lambda_p': bad value 'x'"),
    (build_distill_config, {"si_log_domain": "1"},
     "config key 'si_log_domain': expected on/off, got '1'"),
    (build_train_config, {"kd": "yes"}, "config key 'kd': expected on/off, got 'yes'"),
    (build_distill_config, {"matched_blocks": "1;2"},
     "config key 'matched_blocks': bad value '1;2'"),
])
def test_bad_values_keep_their_messages(build, raw, message):
    with pytest.raises(ConfigError) as info:
        build(raw, 4) if build is build_distill_config else build(raw)
    assert str(info.value) == message


def test_parse_basic_with_comments():
    raw = parse_config_text("# comment\n\n t = 4 \nlr=0.001\ndata=/tmp/x\n")
    assert raw == {"t": "4", "lr": "0.001", "data": "/tmp/x"}


def test_parse_rejects_unknown_duplicate_malformed():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus=1\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("t=1\nt=2\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just a line\n")


def test_read_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("t=2\nd=8\n")
    assert read_config(p) == {"t": "2", "d": "8"}


def test_apply_overrides():
    merged = apply_overrides({"t": "2"}, ["t=4", "lr=0.01"])
    assert merged == {"t": "4", "lr": "0.01"}
    assert apply_overrides({"t": "2"}, None) == {"t": "2"}
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides({}, ["nope=1"])
    with pytest.raises(ConfigError) as info:
        apply_overrides({}, ["t"])
    assert str(info.value) == "override: expected key=value, got 't'"


@pytest.mark.parametrize("text, message", [
    ("t=2\njust a line\n", "config line 2: expected key=value, got 'just a line'"),
    ("\n bogus = 1\n", "config line 2: unknown key 'bogus'"),
])
def test_config_lines_and_overrides_share_one_item_parser(text, message):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text)
    assert str(info.value) == message
    with pytest.raises(ConfigError) as info:
        apply_overrides({}, [text.splitlines()[-1]])
    assert str(info.value) == message.replace("config line 2", "override")


@pytest.mark.parametrize("cfg, field", [
    (ModelConfig(), "d"), (DistillConfig(), "matched_blocks"), (TrainConfig(), "lr"),
])
def test_configs_are_frozen(cfg, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, getattr(cfg, field))


def test_build_model_config_types_and_routing():
    cfg = build_model_config(
        {"t": "2", "h": "16", "w": "16", "d": "8", "l": "4",
         "s": "0.5", "tau": "3.0", "v_threshold": "0.7", "head": "linear_fcn"}
    )
    assert (cfg.t, cfg.h, cfg.w, cfg.d, cfg.l) == (2, 16, 16, 8, 4)
    assert cfg.s == 0.5 and cfg.head == "linear_fcn"
    assert cfg.lif == LifParams(tau=3.0, v_threshold=0.7)


def test_build_model_config_bad_values():
    with pytest.raises(ConfigError, match="bad value"):
        build_model_config({"t": "two"})
    with pytest.raises(ConfigError):  # validation: h not divisible by 8
        build_model_config({"h": "20"})


@pytest.mark.parametrize("key", ["s", "tau", "v_threshold", "v_reset", "surrogate_alpha"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_float_keys_must_be_finite(key, value):
    with pytest.raises(ConfigError, match="finite"):
        build_model_config({key: value})


def test_build_distill_config():
    cfg = build_distill_config(
        {"lambda_p": "0.5", "matched_blocks": "2,4", "si_log_domain": "on"},
        n_blocks=4,
    )
    assert cfg.lambda_p == 0.5
    assert cfg.matched_blocks == (2, 4)
    assert cfg.si_log_domain is True
    with pytest.raises(ConfigError, match="on/off"):
        build_distill_config({"si_log_domain": "yes"}, n_blocks=4)
    with pytest.raises(ConfigError, match="bad value"):
        build_distill_config({"matched_blocks": "a,b"}, n_blocks=4)
    with pytest.raises(ConfigError, match="outside"):
        build_distill_config({"matched_blocks": "5"}, n_blocks=4)
    with pytest.raises(ConfigError, match="distinct"):
        build_distill_config({"matched_blocks": "4,4"}, n_blocks=4)


def test_encode_decode_round_trip():
    model_cfg = ModelConfig(t=3, c=2, h=16, w=24, d=12, l=4, s=0.125,
                            mlp_ratio=2, lif=LifParams(tau=2.5, v_threshold=0.9),
                            head="linear_fcn")
    distill = DistillConfig(lambda_p=0.25, lambda_2=2.0, matched_blocks=(1, 3),
                            teacher_dim=6, si_log_domain=True)
    text = encode_model_config(model_cfg, distill)
    got_model, got_distill = decode_model_config(text)
    assert got_model == model_cfg
    assert got_distill == distill
    # a second encode of the decoded configs is byte-identical
    assert encode_model_config(got_model, got_distill) == text


def test_encode_without_distill():
    text = encode_model_config(ModelConfig(t=2, h=16, w=16, d=8))
    got_model, got_distill = decode_model_config(text)
    assert got_distill is None
    assert got_model.d == 8


# Arbitrary text, and lines built from real keys with arbitrary values, must
# either parse into configs or fail with a package error, never another type.
_LINE = st.one_of(
    st.text(max_size=40),
    st.builds("{}={}".format, st.sampled_from(sorted(KNOWN_KEYS)), st.text(max_size=12)),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=st.one_of(st.text(), st.lists(_LINE, max_size=8).map("\n".join)),
       overrides=st.lists(_LINE, max_size=4))
def test_config_text_and_overrides_raise_only_package_errors(text, overrides):
    try:
        raw = apply_overrides(parse_config_text(text), overrides)
        model = build_model_config(raw)
        build_distill_config(raw, n_blocks=model.l)
        build_train_config(raw)
    except SpikeDepthError:
        pass


@st.composite
def _configs(draw):
    """A valid ModelConfig and a DistillConfig (or None) for it."""
    head = draw(st.sampled_from(HEAD_KINDS))
    l = 4 if head == "fusion" else draw(st.integers(1, 6))
    v_reset = draw(st.floats(min_value=-1e300, max_value=1e300))  # leaves room for v_threshold
    model = ModelConfig(
        t=draw(st.integers(1, 64)), c=draw(st.integers(1, 8)),
        h=8 * draw(st.integers(1, 64)), w=8 * draw(st.integers(1, 64)),
        d=4 * draw(st.integers(1, 64)), l=l,
        s=draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
        mlp_ratio=draw(st.integers(1, 8)),
        lif=LifParams(
            tau=draw(st.floats(min_value=1.0, allow_infinity=False)),
            v_threshold=draw(st.floats(min_value=v_reset, exclude_min=True, allow_infinity=False)),
            v_reset=v_reset,
            surrogate_alpha=draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
        ),
        head=head,
    )
    distill = draw(st.none() | st.builds(
        DistillConfig,
        lambda_p=st.floats(min_value=0, allow_infinity=False),
        lambda_2=st.floats(min_value=0, allow_infinity=False),
        matched_blocks=st.lists(st.integers(1, l), min_size=1, max_size=4, unique=True).map(tuple),
        teacher_dim=st.integers(1, 1024),
        si_log_domain=st.booleans(),
    ))
    return model, distill


@settings(derandomize=True, max_examples=200, deadline=None)
@given(configs=_configs())
def test_encode_decode_encode_is_byte_identical(configs):
    model, distill = configs
    text = encode_model_config(model, distill)
    assert decode_model_config(text) == (model, distill)
    assert encode_model_config(*decode_model_config(text)) == text
