"""Flat key=value config parsing, overrides, and encode/decode round-trips."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikedepth.config import (
    KNOWN_KEYS,
    apply_overrides,
    build_distill_config,
    build_model_config,
    decode_model_config,
    encode_model_config,
    parse_config_text,
    read_config,
)
from spikedepth.errors import ConfigError, SpikeDepthError
from spikedepth.losses import DistillConfig
from spikedepth.model import ModelConfig
from spikedepth.neuron import LifParams
from spikedepth.train import build_train_config


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
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides({}, ["t"])


def test_build_model_config_types_and_routing():
    cfg = build_model_config(
        {"t": "2", "h": "16", "w": "16", "d": "8", "l": "4",
         "s": "0.5", "tau": "3.0", "v_threshold": "0.7", "merge": "add"}
    )
    assert (cfg.t, cfg.h, cfg.w, cfg.d, cfg.l) == (2, 16, 16, 8, 4)
    assert cfg.s == 0.5 and cfg.merge == "add"
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
        build_distill_config({"si_log_domain": "yes"})
    with pytest.raises(ConfigError, match="bad value"):
        build_distill_config({"matched_blocks": "a,b"})
    with pytest.raises(ConfigError, match="outside"):
        build_distill_config({"matched_blocks": "5"}, n_blocks=4)


def test_encode_decode_round_trip():
    model_cfg = ModelConfig(t=3, c=2, h=16, w=24, d=12, l=4, s=0.125,
                            mlp_ratio=2, lif=LifParams(tau=2.5, v_threshold=0.9),
                            merge="add", head="fusion")
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
