"""Binary checkpoint format: round-trips, rebuild fidelity, corruption checks."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    disk_full_after,
    poison_payload,
    random_spikes,
    tensor_dtypes,
    tiny_distill_cfg,
    tiny_model,
    tiny_projections,
)
from spikedepth.checkpoint import load_model, read_checkpoint, save_checkpoint
from spikedepth.errors import FormatError, NumericError, SpikeDepthError


def _saved(tmp_path, with_kd=True, seed=3):
    model = tiny_model(seed=seed)
    distill = tiny_distill_cfg() if with_kd else None
    projections = tiny_projections(distill, seed=seed) if with_kd else None
    path = tmp_path / "model.sdtw"
    save_checkpoint(path, model, projections, distill)
    return path, model, projections, distill


def test_header_layout(tmp_path):
    path, *_ = _saved(tmp_path, with_kd=False)
    blob = path.read_bytes()
    assert blob[:4] == b"SDTW"
    assert int.from_bytes(blob[4:8], "little") == 1


def test_tensor_round_trip_bit_exact(tmp_path):
    path, model, projections, _ = _saved(tmp_path)
    _, got_distill, tensors = read_checkpoint(path)
    want = {name: p.data for name, p in model.named_params()}
    want.update({name: buf for name, buf in model.named_buffers()})
    want.update({name: p.data for name, p in projections.named_params()})
    assert set(tensors) == set(want)
    for name, arr in want.items():
        np.testing.assert_array_equal(tensors[name], arr, err_msg=name)
        assert tensors[name].dtype == np.float32
    assert got_distill == tiny_distill_cfg()


def test_load_model_reproduces_predictions(tmp_path, rng):
    path, model, _, _ = _saved(tmp_path, seed=5)
    rebuilt, projections, distill = load_model(path)
    assert projections is not None and distill is not None
    assert tensor_dtypes(rebuilt, projections) == {np.dtype(np.float32)}
    spikes = random_spikes(rng)
    np.testing.assert_array_equal(model.predict(spikes), rebuilt.predict(spikes))


def test_load_without_projections(tmp_path):
    path, _, _, _ = _saved(tmp_path, with_kd=False)
    rebuilt, projections, distill = load_model(path)
    assert projections is None and distill is None
    assert rebuilt.cfg.d == 8


def test_resave_is_byte_identical(tmp_path):
    path, *_ = _saved(tmp_path)
    rebuilt, projections, distill = load_model(path)
    path2 = tmp_path / "again.sdtw"
    save_checkpoint(path2, rebuilt, projections, distill)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic_and_version(tmp_path):
    path, *_ = _saved(tmp_path, with_kd=False)
    blob = bytearray(path.read_bytes())
    bad = tmp_path / "bad.sdtw"
    bad.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError, match="magic"):
        read_checkpoint(bad)
    blob[4] = 99
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_checkpoint(bad)


def test_truncated_file(tmp_path):
    path, *_ = _saved(tmp_path, with_kd=False)
    blob = path.read_bytes()
    bad = tmp_path / "short.sdtw"
    bad.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(FormatError):
        read_checkpoint(bad)


def test_renamed_tensor_rejected(tmp_path):
    path, *_ = _saved(tmp_path, with_kd=False)
    blob = path.read_bytes()
    assert b"embed.s1.conv.w" in blob
    doctored = blob.replace(b"embed.s1.conv.w", b"embed.sX.conv.w", 1)
    bad = tmp_path / "renamed.sdtw"
    bad.write_bytes(doctored)
    with pytest.raises(FormatError, match="mismatch"):
        load_model(bad)


def _duplicate_name(path, model):
    save_checkpoint(path, model)
    path.write_bytes(path.read_bytes().replace(b"embed.s2.conv.w", b"embed.s1.conv.w", 1))


def _transposed_weight(path, model):
    w = dict(model.named_params())["embed.s2.conv.w"]
    w.data = np.ascontiguousarray(w.data.transpose(1, 0, 2, 3))  # (4,2,3,3) -> (2,4,3,3)
    save_checkpoint(path, model)


@pytest.mark.parametrize("spoil,message", [
    (_duplicate_name, r"duplicate tensor 'embed\.s1\.conv\.w'"),
    (_transposed_weight, r"'embed\.s2\.conv\.w': shape \(2, 4, 3, 3\) != expected \(4, 2, 3, 3\)"),
], ids=["duplicate_name", "shape_differs_from_model"])
def test_tensor_guards_raise_format_errors(tmp_path, spoil, message):
    path = tmp_path / "model.sdtw"
    spoil(path, tiny_model(seed=0))
    with pytest.raises(FormatError, match=message):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensors_are_refused(tmp_path, value):
    model = tiny_model(seed=0)
    path = tmp_path / "model.sdtw"
    save_checkpoint(path, model)
    path.write_bytes(poison_payload(path.read_bytes(), "embed.s1.conv.w", value))
    with pytest.raises(FormatError, match=r"'embed\.s1\.conv\.w'"):
        read_checkpoint(path)

    dict(model.named_params())["embed.s1.conv.w"].data[0, 0, 0, 0] = value
    poisoned = tmp_path / "poisoned.sdtw"
    with pytest.raises(NumericError, match=r"embed\.s1\.conv\.w"):
        save_checkpoint(poisoned, model)
    assert not poisoned.exists()


def test_failed_save_leaves_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.sdtw"
    save_checkpoint(path, tiny_model(seed=0))
    old = path.read_bytes()
    with disk_full_after(monkeypatch, 1000), pytest.raises(OSError, match="No space"):
        save_checkpoint(path, tiny_model(seed=1))
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.sdtw"]  # no temp file left


# sha256 of the untrained tiny checkpoints, pinned when tensor names were still
# built by hand per layer: the Module tree must reproduce them byte for byte.
# matched_blocks=(4, 2) is unsorted on purpose: the projections draw from the
# rng in config order while the checkpoint stores them in sorted order.
GOLDEN_SHA256 = {
    "fusion_kd_4_2": "dbc5482891fb8d699b48583c0e6f9997428905bc3cbca418e83ebeff7f803368",
    "linear_fcn": "dd0798d5afd0dbba8f91c9b4ff6dca318d93b5325f24d43fdc336e7bb5f5d251",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_SHA256))
def test_untrained_checkpoint_bytes_are_pinned(tmp_path, case):
    if case == "fusion_kd_4_2":
        distill = tiny_distill_cfg(matched_blocks=(4, 2))
        model, projections = tiny_model(seed=0), tiny_projections(distill, seed=0)
    else:
        distill = projections = None
        model = tiny_model(seed=0, head="linear_fcn")
    path = tmp_path / "model.sdtw"
    save_checkpoint(path, model, projections, distill)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256[case]


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A valid checkpoint with a projection, small enough to fuzz quickly."""
    distill = tiny_distill_cfg(matched_blocks=(1,))
    path = tmp_path_factory.mktemp("fuzz") / "valid.sdtw"
    save_checkpoint(path, tiny_model(seed=0, head="linear_fcn", l=1),
                    tiny_projections(distill, seed=0), distill)
    return path, path.read_bytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_checkpoint_raises_only_package_errors(small_checkpoint, data):
    path, blob = small_checkpoint
    kind = data.draw(st.sampled_from(["truncate", "flip", "append"]), label="kind")
    if kind == "truncate":
        mutated = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    elif kind == "append":
        mutated = blob + data.draw(st.binary(min_size=1, max_size=16), label="appended")
    else:
        mutated = bytearray(blob)
        flips = st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255))
        for pos, mask in data.draw(st.lists(flips, min_size=1, max_size=4), label="flips"):
            mutated[pos] ^= mask
    bad = path.with_name("mutated.sdtw")
    bad.write_bytes(bytes(mutated))
    if kind == "append":
        with pytest.raises(FormatError, match="after its payload"):
            load_model(bad)
        return
    try:
        load_model(bad)  # read_checkpoint plus the name/shape checks against the model
    except SpikeDepthError:
        pass
