"""Dense ops and reverse-mode gradients against hand and FD oracles."""
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers import (
    TAPE_MODES,
    assert_fd_match,
    batchnorm_reference,
    cast,
    depth_map,
    fd_gradient,
    grad_agreement,
    maxpool_backward_reference,
    random_spikes,
    rowmajor_conv2d,
    tiny_model,
)
from spikedepth import autodiff as ad
from spikedepth.energy import price
from spikedepth.errors import DimensionError, NumericError, StaleTapeError
from spikedepth.head import FOLDED_LAYERS, rate_encode
from spikedepth.layers import ConvBN
from spikedepth.losses import DistillConfig, FeatureProjections, total_loss
from spikedepth.model import DepthModel, ModelConfig

# ---------------------------------------------------------------------------
# forward oracles


def test_conv2d_ones_kernel_hand_oracle():
    # 3x3 ones * 3x3 ones kernel, pad 1: each output counts the live window.
    x = ad.tensor(np.ones((1, 1, 3, 3)))
    w = ad.tensor(np.ones((1, 1, 3, 3)))
    out = ad.conv2d(x, w, pad=1)
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float64)
    np.testing.assert_array_equal(out.data[0, 0], expected)
    assert out.data[0, 0, 1, 1] == 9.0


def test_conv2d_identity_kernel_passthrough(rng):
    x = rng.standard_normal((2, 3, 5, 7))
    w = np.zeros((3, 3, 1, 1))
    w[np.arange(3), np.arange(3), 0, 0] = 1.0
    out = ad.conv2d(ad.tensor(x), ad.tensor(w))
    np.testing.assert_allclose(out.data, x, rtol=0, atol=0)


def test_conv2d_shape_arithmetic(rng):
    x = ad.tensor(rng.standard_normal((2, 3, 8, 8)))
    w = ad.tensor(rng.standard_normal((4, 3, 3, 3)))
    assert ad.conv2d(x, w, pad=1).data.shape == (2, 4, 8, 8)


def test_conv2d_channel_mismatch_raises(rng):
    x = ad.tensor(rng.standard_normal((1, 2, 8, 8)))
    w = ad.tensor(rng.standard_normal((4, 3, 3, 3)))
    with pytest.raises(DimensionError):
        ad.conv2d(x, w, pad=1)


def test_conv2d_and_batchnorm_take_only_4d_input(rng):
    w = ad.tensor(rng.standard_normal((4, 3, 3, 3)))
    ones, zeros = ad.tensor(np.ones(3)), ad.tensor(np.zeros(3))
    for shape in [(3, 8, 8), (1, 1, 3, 8, 8)]:
        x = ad.tensor(rng.standard_normal(shape))
        with pytest.raises(DimensionError):
            ad.conv2d(x, w, pad=1)
        with pytest.raises(DimensionError):
            ad.batchnorm(x, ones, zeros)


@pytest.mark.parametrize("pad", [-1, 3])
def test_conv2d_pad_must_lie_below_kernel_size(rng, pad):
    # the stride-1 input gradient pads by k-1-pad, so 0 <= pad < k
    x = ad.tensor(rng.standard_normal((1, 3, 8, 8)))
    with pytest.raises(DimensionError):
        ad.conv2d(x, ad.tensor(rng.standard_normal((4, 3, 3, 3))), pad=pad)


def _standardize(x, axes=(0, 2, 3), eps=1e-5):
    # exact mean 0 and var 1 - eps, so var + eps == 1 and BN's normalisation
    # is the identity to machine precision
    x = (x - x.mean(axis=axes, keepdims=True)) / x.std(axis=axes, keepdims=True)
    return x * np.sqrt(1.0 - eps)


def test_batchnorm_identity_statistics(rng):
    x = _standardize(rng.standard_normal((8, 3, 4, 4)))
    out = ad.batchnorm(ad.tensor(x), ad.tensor(np.ones(3)), ad.tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, x, atol=1e-6)


def test_batchnorm_constant_channel_gives_beta():
    x = np.full((2, 2, 3, 3), 7.25)
    beta = np.array([1.5, -2.0])
    out = ad.batchnorm(ad.tensor(x), ad.tensor(np.ones(2)), ad.tensor(beta))
    np.testing.assert_allclose(out.data, np.broadcast_to(beta[None, :, None, None], x.shape),
                               atol=1e-12)


def test_batchnorm_affine_definition(rng):
    x = _standardize(rng.standard_normal((6, 2, 5, 5)))
    out = ad.batchnorm(ad.tensor(x), ad.tensor(np.full(2, 2.0)), ad.tensor(np.ones(2)))
    np.testing.assert_allclose(out.data, 2.0 * x + 1.0, atol=1e-6)


def test_batchnorm_eval_needs_running_stats(rng):
    x = ad.tensor(rng.standard_normal((2, 2, 3, 3)))
    with pytest.raises(DimensionError):
        ad.batchnorm(x, ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)), training=False)


def test_batchnorm_updates_running_stats(rng):
    x = rng.standard_normal((4, 2, 3, 3))
    rm, rv = np.zeros(2), np.ones(2)
    ad.batchnorm(ad.tensor(x), ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)),
                 running_mean=rm, running_var=rv, training=True)
    n = 4 * 3 * 3
    np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-12)
    np.testing.assert_allclose(
        rv, 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * n / (n - 1), atol=1e-12)


def test_maxpool_forward_and_binary(rng):
    out = ad.maxpool2d(ad.tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])), 2)
    assert out.data.shape == (1, 1, 1) and out.data.item() == 4.0
    spikes = (rng.random((2, 4, 4)) < 0.5).astype(np.float64)
    pooled = ad.maxpool2d(ad.tensor(spikes), 2).data
    assert set(np.unique(pooled)) <= {0.0, 1.0}


def test_maxpool_indivisible_raises(rng):
    with pytest.raises(DimensionError):
        ad.maxpool2d(ad.tensor(rng.standard_normal((1, 3, 4))), 2)


@pytest.mark.parametrize("size", [0, -2, 2.5, 2.0, "3", None])
@pytest.mark.parametrize("op,name", [("maxpool2d", "k"), ("upsample_bilinear", "factor")])
def test_pool_and_upsample_refuse_a_size_that_is_not_an_integer_of_at_least_1(op, name, size):
    x = ad.tensor(np.ones((1, 4, 4)))
    with pytest.raises(DimensionError, match=rf"^{op}: {name} must be an integer >= 1, got "):
        getattr(ad, op)(x, size)
    # any integer type passes, as its int
    assert getattr(ad, op)(x, np.int64(2)).data.tobytes() == getattr(ad, op)(x, 2).data.tobytes()


def test_maxpool_tie_routes_to_first_element():
    x = ad.parameter(np.full((1, 2, 2), 5.0))
    with ad.tape() as t:
        loss = ad.reduce_sum(ad.maxpool2d(x, 2))
    t.backward(loss)
    np.testing.assert_array_equal(x.grad, np.array([[[1.0, 0.0], [0.0, 0.0]]]))


def _maxpool_oracle(xd, k, g):
    """Windows copied out, argmax (first index on ties), put_along_axis."""
    lead, (H, W) = xd.shape[:-2], xd.shape[-2:]
    win = np.moveaxis(xd.reshape(*lead, H // k, k, W // k, k), -3, -2)
    flat = np.ascontiguousarray(win).reshape(*lead, H // k, W // k, k * k)
    idx = flat.argmax(-1)[..., None]
    out = np.take_along_axis(flat, idx, -1)[..., 0]
    buf = np.zeros_like(flat)
    np.put_along_axis(buf, idx, g[..., None], -1)
    gx = np.moveaxis(buf.reshape(*lead, H // k, W // k, k, k), -2, -3).reshape(xd.shape)
    return out, gx


@pytest.mark.parametrize("shape,k", [((3, 8, 12), 2), ((2, 3, 8, 12), 2), ((2, 3, 6, 9), 3)])
@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_maxpool_matches_argmax_oracle_on_spike_stacks(rng, shape, k, p):
    # binary stacks tie in almost every window (all-zero and all-one windows too)
    x = ad.parameter((rng.random(shape) < p).astype(np.float32))
    g = rng.standard_normal(shape[:-2] + (shape[-2] // k, shape[-1] // k)).astype(np.float32)
    with ad.tape() as t:
        out = ad.maxpool2d(x, k)
        loss = ad.reduce_sum(ad.mul(out, ad.tensor(g)))
    t.backward(loss)
    want_out, want_gx = _maxpool_oracle(x.data, k, g)
    assert out.data.dtype == np.float32 and x.grad.dtype == np.float32
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(x.grad, want_gx)


def _running_max_oracle(xd, k):
    """One running np.maximum over the k*k strided views in row-major window
    order, the forward as it was written before the row-contiguous one."""
    views = [xd[..., i::k, j::k] for i in range(k) for j in range(k)]
    out = views[0].copy()
    for v in views[1:]:
        np.maximum(out, v, out=out)
    return out


def _two_nans(dtype):
    ints = np.dtype(f"i{np.dtype(dtype).itemsize}")
    nan = np.array(np.nan, dtype)
    return nan, (nan.view(ints) + 1).view(dtype)  # a second payload


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_forward_matches_running_max_bits_on_every_2x2_window(dtype):
    """All 8**4 windows over {+-0, +-1, +-inf, two NaN payloads}: the max
    is the element the row-major running max picks, on ties of +0 with -0
    and between NaN payloads too."""
    vals = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, *_two_nans(dtype)], dtype)
    win = vals[np.array(list(itertools.product(range(8), repeat=4)))]  # [4096, 4]
    for x in (win.reshape(4096, 2, 2),  # one window per plane
              win.reshape(64, 64, 2, 2).transpose(0, 2, 1, 3).reshape(64, 2, 128)):
        got = ad.maxpool2d(ad.tensor(x), 2).data
        assert got.dtype == dtype and got.tobytes() == _running_max_oracle(x, 2).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_k3_matches_running_max_bits_with_planted_ties(rng, dtype):
    x = rng.choice(np.array([0.0, -0.0, 1.0, -1.0], dtype), size=(2, 3, 9, 12))
    x[..., ::4, ::5] = rng.standard_normal(x[..., ::4, ::5].shape)
    x[0, 0, :3, :3] = np.array(_two_nans(dtype))[rng.integers(0, 2, size=(3, 3))]
    got = ad.maxpool2d(ad.tensor(x), 3).data
    assert got.dtype == dtype and got.tobytes() == _running_max_oracle(x, 3).tobytes()


def _maxpool_backward(x, k, g):
    x = ad.parameter(x)
    with ad.tape() as t:
        out = ad.maxpool2d(x, k)
    (gx,) = t.entries[0].bwd(g)
    return out.data, gx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_backward_matches_masked_routing_bits_on_every_2x2_window(rng, dtype):
    """All 8**4 windows over {+-0, +-1, +-inf, two NaN payloads}, with -0.0
    and random upstream gradients: the two-stage routing writes the bits
    the masked row-major routing writes, a -0.0 gradient included."""
    vals = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, *_two_nans(dtype)], dtype)
    win = vals[np.array(list(itertools.product(range(8), repeat=4)))]
    x = win.reshape(64, 64, 2, 2).transpose(0, 2, 1, 3).reshape(64, 2, 128)
    g = rng.standard_normal((64, 1, 64)).astype(dtype)
    g[::2] = -0.0
    out, gx = _maxpool_backward(x, 2, g)
    want = maxpool_backward_reference(x, out, g, 2)
    assert gx.dtype == dtype and gx.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [2, 3])
def test_maxpool_backward_matches_masked_routing_bits_with_planted_ties(rng, dtype, k):
    x = rng.choice(np.array([0.0, -0.0, 1.0, -1.0], dtype), size=(2, 3, 6 * k, 4 * k))
    x[..., ::4, ::5] = rng.standard_normal(x[..., ::4, ::5].shape)
    g = rng.standard_normal((2, 3, 6, 4)).astype(dtype)
    g[rng.random(g.shape) < 0.3] = -0.0
    out, gx = _maxpool_backward(x, k, g)
    want = maxpool_backward_reference(x, out, g, k)
    assert gx.dtype == dtype and gx.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [2, 3])
def test_maxpool_backward_routes_nothing_from_a_window_holding_nan(k):
    """A NaN anywhere in a window makes its max NaN, which equals nothing:
    no element of that window gets a gradient, the others still do."""
    for i, j in itertools.product(range(k), repeat=2):
        x = np.arange(2 * k * 2 * k, dtype=np.float32).reshape(1, 2 * k, 2 * k)
        x[0, i, j] = np.nan
        out, gx = _maxpool_backward(x, k, np.full((1, 2, 2), 3.0, np.float32))
        assert np.isnan(out[0, 0, 0]) and not gx[0, :k, :k].any(), (i, j)
        assert (gx != 0).sum() == 3 and gx.tobytes() == maxpool_backward_reference(
            x, out, np.full((1, 2, 2), 3.0, np.float32), k).tobytes()


def test_matmul_identity_and_mismatch(rng):
    a = rng.standard_normal((2, 2))
    np.testing.assert_array_equal(ad.matmul(ad.tensor(np.eye(2)), ad.tensor(a)).data, a)
    with pytest.raises(DimensionError):
        ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))


def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.tensor(np.zeros(3))).data.tolist() == [0.5, 0.5, 0.5]


def test_upsample_bilinear_hand_oracle():
    # half-pixel (align_corners=False) weights for 2 -> 4:
    # rows [1,0], [.75,.25], [.25,.75], [0,1]
    x = ad.tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    out = ad.upsample_bilinear(x, 2).data[0, 0]
    expected = np.array([
        [1.0, 1.25, 1.75, 2.0],
        [1.5, 1.75, 2.25, 2.5],
        [2.5, 2.75, 3.25, 3.5],
        [3.0, 3.25, 3.75, 4.0],
    ])
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # corner values preserved under this convention
    assert (out[0, 0], out[0, -1], out[-1, 0], out[-1, -1]) == (1.0, 2.0, 3.0, 4.0)


# ---------------------------------------------------------------------------
# backward: hand oracles


def test_backward_sum_gives_ones():
    x = ad.parameter(np.array([1.0, 2.0, 3.0]))
    with ad.tape() as t:
        loss = ad.reduce_sum(x)
    t.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_sum_of_squares():
    x = ad.parameter(np.array([1.0, 2.0]))
    with ad.tape() as t:
        loss = ad.reduce_sum(ad.mul(x, x))
    t.backward(loss)
    np.testing.assert_array_equal(x.grad, np.array([2.0, 4.0]))


def test_backward_accumulates_over_reuse():
    x = ad.parameter(np.array([3.0]))
    c = ad.tensor(np.array([1.0]))
    with ad.tape() as t:
        s = ad.add(x, x)
        loss = ad.reduce_sum(ad.mul(s, c))
    t.backward(loss)
    np.testing.assert_array_equal(x.grad, np.array([2.0]))
    assert s.grad is None and c.grad is None  # only parameters get .grad


def test_backward_twice_raises_stale_tape():
    x = ad.parameter(np.ones(2))
    with ad.tape() as t:
        loss = ad.reduce_sum(x)
    t.backward(loss)
    with pytest.raises(StaleTapeError):
        t.backward(loss)


def test_backward_on_empty_tape_raises():
    with ad.tape() as t:
        pass
    with pytest.raises(StaleTapeError):
        t.backward(ad.tensor(np.zeros(())))


def test_inspection_tape_records_without_gradients():
    x = ad.parameter(np.ones(3))
    entries = []
    with ad.tape(consumer=entries.append) as t:
        y = ad.reduce_sum(ad.mul(x, x))
    assert [e.op for e in entries] == ["mul", "reduce_sum"] and t.entries == []
    assert all(e.bwd is None for e in entries) and not y.requires_grad
    with pytest.raises(StaleTapeError):
        t.backward(y)
    assert x.grad is None


def test_consuming_tape_streams_every_entry_in_order():
    """An inspection tape hands its consumer each entry as its op records
    it, and keeps none: every entry arrives while its tape is active and
    after the entries that made its inputs."""
    model = tiny_model(seed=0)
    spikes = random_spikes(np.random.default_rng(0), p=0.4)
    got = []

    def consumer(entry):
        assert ad.active_tape() is streamed
        got.append(entry)

    with ad.tape(consumer=consumer) as streamed:
        model.forward(spikes, training=False)
    assert streamed.entries == []
    made = {id(e.output): i for i, e in enumerate(got)}
    assert all(made.get(id(t), -1) < i for i, e in enumerate(got) for t in e.inputs if t is not None)
    assert {"conv_bn", "spike_attention", "fusion_tail", "mlif"} <= {e.op for e in got}


def _spy_on_replay(entries, refs, alive):
    """Wrap each entry's bwd so that, when it runs, `alive` gets the indices
    of the `refs` (weak references to entry outputs, None for a numpy
    scalar) that are still alive among the entries replayed before it.  A
    helper, so that no local of the test holds an entry."""
    for i, e in enumerate(entries):
        def spy(g, i=i, bwd=e.bwd):
            alive.append([j for j in range(i + 1, len(refs)) if refs[j] and refs[j]() is not None])
            return bwd(g)
        e.bwd = spy


def test_backward_frees_each_entry_once_replayed():
    """Once backward has replayed an entry, nothing it holds keeps that
    entry's output array alive: when any backward closure runs, the output
    of every entry replayed before it is gone, save the loss the caller
    holds.  Checked over a tiny model's training forward and its loss."""
    model = tiny_model(seed=0)
    rng = np.random.default_rng(0)
    gt = depth_map(rng.uniform(0.2, 1.0, (16, 16)))
    with ad.tape() as t:
        feats, pred = model.forward(random_spikes(rng, p=0.4), training=True)
        loss, _, _ = total_loss(feats, pred, gt, None, None, DistillConfig(matched_blocks=(2, 4)))
    del feats, pred
    assert t.entries[-1].output is loss
    refs = [weakref.ref(e.output.data) if isinstance(e.output.data, np.ndarray) else None
            for e in t.entries[:-1]]
    n, ops = len(t.entries), {e.op for e in t.entries}
    assert {"conv2d", "batchnorm", "mlif", "spike_attention"} <= ops
    alive = []
    _spy_on_replay(t.entries, refs, alive)
    t.backward(loss)
    assert len(alive) == n
    assert not any(alive), [a for a in alive if a][:3]
    assert all(r is None or r() is None for r in refs)


def test_training_backward_peaks_near_the_forward_memory():
    """A linear-FCN training step at 128x160 (320 tokens): the memory traced
    through its backward peaks at most 10% above what the forward left
    traced, as each replayed layer's activations are freed while the
    gradients grow (1.22x when the tape held every entry to the end)."""
    h, w = 128, 160
    rng = np.random.default_rng(0)
    model = DepthModel(ModelConfig(t=4, c=2, h=h, w=w, d=64, l=4, head="linear_fcn"), rng)
    spikes = (rng.random((4, 2, h, w)) < 0.3).astype(np.float32)
    gt = depth_map(rng.uniform(0.1, 1.0, (h, w)))
    tracemalloc.start()
    try:
        with ad.tape() as t:
            feats, pred = model.forward(spikes, training=True)
            loss, _, _ = total_loss(feats, pred, gt, None, None, DistillConfig(matched_blocks=(2, 4)))
        forward_end, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        t.backward(loss)
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward_end > 50e6  # the activations of the whole step are traced
    assert backward_peak <= 1.1 * forward_end, (backward_peak, forward_end)


def _closure_arrays(entry):
    """The arrays an entry's backward closure holds, Tensors' data included."""
    cells = [c.cell_contents for c in (entry.bwd.__closure__ or ())] if entry.bwd else []
    arrays = [c.data if isinstance(c, ad.Tensor) else c for c in cells]
    return [a for a in arrays if isinstance(a, np.ndarray)]


def test_training_tape_holds_no_token_by_token_matrix():
    """A linear-FCN training forward at 128x160 (320 tokens) keeps no
    [T, N, N] array on its gradient tape, as an entry output or in a
    backward closure: its attention is one `spike_attention` entry, whose
    backward rebuilds Q K^T.  An eval forward on a gradient tape still runs
    the two-matmul graph and keeps Q K^T, the `qk` matmul's output, which
    the `av` matmul's backward holds as its operand."""
    rng = np.random.default_rng(0)
    model = DepthModel(ModelConfig(t=2, c=2, h=128, w=160, d=16, l=2, head="linear_fcn"), rng)
    spikes = (rng.random((2, 2, 128, 160)) < 0.3).astype(np.float32)
    n = model.cfg.tokens
    assert n == 320
    kept = {}
    for training in (True, False):
        with ad.tape() as t:
            model.forward(spikes, training=training)
        kept[training] = [f"{e.scope}: {e.op}" for e in t.entries
                          if any(a.shape[-2:] == (n, n)
                                 for a in [e.output.data] + _closure_arrays(e))]
        assert ("spike_attention" in {e.op for e in t.entries}) is training
    assert kept[True] == []
    assert kept[False] == [f"block{i}.attn.{p}: matmul" for i in (1, 2) for p in ("qk", "av")]


def test_backward_needs_scalar_loss():
    x = ad.parameter(np.ones(3))
    with ad.tape() as t:
        y = ad.add(x, x)
    with pytest.raises(DimensionError):
        t.backward(y)


_ONES = ad.tensor(np.ones((1, 1, 2, 2)))
_GUARDED = {
    "add": lambda x: ad.add(x, x),
    "sub": lambda x: ad.sub(x, _ONES),
    "mul": lambda x: ad.mul(x, x),
    "scale": lambda x: ad.scale(x, 2.0),
    "log": ad.log,
    "reduce_sum": ad.reduce_sum,
    "matmul": lambda x: ad.matmul(x, _ONES),
    "conv2d": lambda x: ad.conv2d(x, ad.tensor(np.ones((1, 1, 1, 1)))),
    "batchnorm": lambda x: ad.batchnorm(x, ad.tensor(np.ones(1)), ad.tensor(np.zeros(1))),
    "upsample_bilinear": lambda x: ad.upsample_bilinear(x, 2),
}


@pytest.mark.parametrize("op", list(_GUARDED))
def test_guarded_op_refuses_non_finite_result(op):
    x = ad.parameter(np.array([[[[1.0, np.inf], [2.0, 3.0]]]]))
    with ad.tape() as t, np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=f"^{op}: non-finite"):
            _GUARDED[op](x)
    assert t.entries == []


def _t(*shape):
    return ad.tensor(np.ones(shape))


_BAD_INPUTS = {  # input guard -> (package error, message, call)
    "add_shapes": (DimensionError, "add: shape mismatch", lambda: ad.add(_t(2, 2), _t(2, 3))),
    "log_non_positive": (NumericError, "log: non-positive",
                         lambda: ad.log(ad.tensor(np.array([1.0, 0.0])))),
    "transpose_axes": (DimensionError, "transpose: axes",
                       lambda: ad.transpose(_t(2, 3, 4), (1, 0))),
    "matmul_1d": (DimensionError, "at least 2-D", lambda: ad.matmul(_t(3), _t(3, 2))),
    "matmul_batch_dims": (DimensionError, "batch dims differ",
                          lambda: ad.matmul(_t(2, 2, 3), _t(3, 3, 2))),
    "conv2d_non_square_kernel": (DimensionError, "square",
                                 lambda: ad.conv2d(_t(1, 1, 4, 4), _t(1, 1, 3, 1))),
    "conv2d_kernel_too_large": (DimensionError, "kernel larger than padded input",
                                lambda: ad.conv2d(_t(1, 1, 2, 2), _t(1, 1, 5, 5), pad=1)),
    "conv2d_bias_shape": (DimensionError, "bias shape",
                          lambda: ad.conv2d(_t(1, 1, 4, 4), _t(2, 1, 3, 3), _t(3), pad=1)),
    "batchnorm_zero_channels": (DimensionError, "zero-size channel axis",
                                lambda: ad.batchnorm(_t(1, 0, 2, 2), _t(0), _t(0))),
    "batchnorm_affine_shape": (DimensionError, "affine params",
                               lambda: ad.batchnorm(_t(1, 2, 2, 2), _t(3), _t(2))),
    "maxpool2d_1d": (DimensionError, "maxpool2d: input must be at least 2-D",
                     lambda: ad.maxpool2d(_t(4))),
    "upsample_bilinear_1d": (DimensionError, "upsample_bilinear: input must be at least 2-D",
                             lambda: ad.upsample_bilinear(_t(4), 2)),
}


@pytest.mark.parametrize("case", list(_BAD_INPUTS))
def test_input_guards_raise_package_errors(case):
    error, message, call = _BAD_INPUTS[case]
    with pytest.raises(error, match=message):
        call()


# ---------------------------------------------------------------------------
# backward: finite-difference oracles (64-bit, h=1e-5)


def test_fd_add_sub_mul_scale(rng):
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    assert_fd_match(lambda x, y: ad.reduce_sum(ad.mul(ad.add(x, y), ad.sub(x, y))), [a, b])
    assert_fd_match(lambda x: ad.reduce_sum(ad.scale(x, -2.5)), [a])


def test_fd_sigmoid_log(rng):
    x = rng.random((3, 3)) + 0.5
    assert_fd_match(lambda z: ad.reduce_sum(ad.sigmoid(z)), [x])
    assert_fd_match(lambda z: ad.reduce_sum(ad.log(z)), [x])


def test_fd_clamp_interior(rng):
    # keep samples away from the clamp kinks at 0 and 1
    x = rng.uniform(-2.0, 2.0, (4, 4))
    x = x[(np.abs(x) > 1e-2) & (np.abs(x - 1.0) > 1e-2)].reshape(-1)
    assert_fd_match(lambda z: ad.reduce_sum(ad.mul(z, ad.clamp(z, 0.0, 1.0))), [x])


def test_fd_matmul_batched(rng):
    a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 4, 2))
    assert_fd_match(lambda x, y: ad.reduce_sum(ad.mul(ad.matmul(x, y), ad.matmul(x, y))), [a, b])


def test_fd_reshape_transpose_reduce(rng):
    x = rng.standard_normal((2, 3, 4))
    assert_fd_match(
        lambda z: ad.reduce_sum(ad.mul(s := ad.reduce_sum(ad.transpose(
            ad.reshape(z, (6, 4)), (1, 0)), axis=1), s)),
        [x],
    )


def test_fd_conv2d(rng):
    x = rng.standard_normal((2, 3, 5, 5))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.5
    b = rng.standard_normal(4)
    assert_fd_match(
        lambda xx, ww, bb: ad.reduce_sum(ad.mul(c := ad.conv2d(xx, ww, bb, pad=1), c)),
        [x, w, b],
    )


def test_fd_conv2d_stride_no_pad(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    assert_fd_match(
        lambda xx, ww: ad.reduce_sum(ad.mul(c := ad.conv2d(xx, ww), c)),
        [x, w],
    )


def test_fd_batchnorm_train_mode(rng):
    # note: sum(BN(x)^2) is invariant to x under batch normalisation, so the
    # probe projects onto a fixed random direction to keep dL/dx well-sized
    x = rng.standard_normal((4, 3, 3, 3))
    gamma, beta = rng.random(3) + 0.5, rng.standard_normal(3)
    r = ad.tensor(rng.standard_normal((4, 3, 3, 3)))
    assert_fd_match(
        lambda xx, gg, bb: ad.reduce_sum(
            ad.mul(r, ad.sigmoid(ad.batchnorm(xx, gg, bb, training=True)))),
        [x, gamma, beta],
    )


def test_fd_batchnorm_eval_mode(rng):
    x = rng.standard_normal((2, 3, 4, 4))
    rm, rv = rng.standard_normal(3), rng.random(3) + 0.5
    assert_fd_match(
        lambda xx: ad.reduce_sum(ad.mul(y := ad.batchnorm(
            xx, ad.tensor(np.full(3, 1.5)), ad.tensor(np.ones(3)),
            running_mean=rm.copy(), running_var=rv.copy(), training=False), y)),
        [x],
    )


def test_fd_maxpool_distinct(rng):
    # distinct entries keep the argmax stable under the FD wiggle
    x = rng.permutation(64).astype(np.float64).reshape(1, 8, 8)
    assert_fd_match(lambda z: ad.reduce_sum(ad.mul(y := ad.maxpool2d(z, 2), y)), [x])


def test_fd_upsample(rng):
    x = rng.standard_normal((1, 2, 3, 3))
    assert_fd_match(lambda z: ad.reduce_sum(ad.mul(y := ad.upsample_bilinear(z, 2), y)), [x])


def test_fd_conv_bn(rng):
    # the fused eval conv + batch norm, 3x3 pad 1 with Ci != Co
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((4, 3, 3, 3)) * 0.5
    gamma, beta = rng.standard_normal(4), rng.standard_normal(4)
    rm, rv = rng.standard_normal(4), rng.random(4) + 0.5
    r = ad.tensor(rng.standard_normal((2, 4, 5, 4)))
    assert_fd_match(
        lambda xx, ww, gg, bb: ad.reduce_sum(ad.mul(r, ad.sigmoid(ad.conv_bn(
            xx, ww, gg, bb, rm.copy(), rv.copy(), pad=1)))),
        [x, w, gamma, beta],
    )


def test_fd_composite_conv_bn_sigmoid(rng):
    # the documented composite graph: conv -> BN -> sigmoid -> sum
    x = rng.standard_normal((2, 2, 4, 4))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    gamma, beta = rng.random(3) + 0.5, rng.standard_normal(3)

    def graph(xx, ww, gg, bb):
        return ad.reduce_sum(ad.sigmoid(ad.batchnorm(ad.conv2d(xx, ww, pad=1), gg, bb)))

    assert_fd_match(graph, [x, w, gamma, beta])


# ---------------------------------------------------------------------------
# kernels against their reference formulas, bit for bit

# the acceptance recipe and the same network at a 256x320 sensor
_CONV_MODELS = {
    "recipe": dict(t=4, c=2, h=64, w=64, d=64, l=4),
    "sensor": dict(t=4, c=2, h=256, w=320, d=64, l=4),
}


# convs no model forward passes to ad.conv2d: several images of one 3x3 conv
# whose last row panel differs in height from the others, a conv whose input
# gradient runs in 12 panels of uneven height, and the 64 -> 9 tap conv that
# the folded fusion-head tail runs at H/2 of a 256x320 sensor
_EXTRA_CONVS = [((3, 64, 37, 40), (64, 64, 3, 3), False, 1),
                ((2, 32, 64, 80), (64, 32, 3, 3), True, 1),
                ((1, 64, 128, 160), (9, 64, 3, 3), False, 1)]


def _conv_calls(model_kw, monkeypatch):
    """Every distinct (x shape, w shape, has bias, pad) that a
    forward of the model and its KD projections passes to ad.conv2d; the
    eval forward runs in each tape mode, and with no tape and on the
    inspection tape it predicts the same bits.  Every eval ConvBN is one
    `conv_bn` op under any tape, and only the gradient tape runs the
    reference fusion head's proj, so a training forward, where each ConvBN
    is conv2d -> batchnorm, gives the ConvBN shapes."""
    rng = np.random.default_rng(0)
    model = DepthModel(ModelConfig(**model_kw), rng)
    projections = FeatureProjections(DistillConfig(teacher_dim=16), model_kw["d"], rng)
    calls = set()
    conv2d = ad.conv2d

    def spy(x, w, b=None, pad=0):
        calls.add((x.data.shape, w.data.shape, b is not None, pad))
        return conv2d(x, w, b, pad=pad)

    spikes = (rng.random((model_kw["t"], model_kw["c"], model_kw["h"], model_kw["w"])) < 0.3)
    preds = {}
    with monkeypatch.context() as m:
        m.setattr(ad, "conv2d", spy)
        for mode, context in TAPE_MODES.items():
            with context():
                feats, pred = model.forward(spikes.astype(np.float32), training=False)
            preds[mode] = pred.data
        model.forward(spikes.astype(np.float32), training=True)
        for i in projections.cfg.matched_blocks:
            projections.forward(i, rate_encode(feats[i - 1]))
    assert np.array_equal(preds["inspect"], preds["none"])
    return sorted(calls)


@pytest.mark.parametrize("model", sorted(_CONV_MODELS) + ["extra"])
def test_conv2d_matches_rowmajor_oracle_bit_for_bit(model, monkeypatch):
    """The panelled channel-major core gives the row-major im2col kernel's
    exact bits (forward in every tape mode, gx, gw and gb) at every conv of
    the model and at the extra shapes."""
    if model == "extra":
        calls = _EXTRA_CONVS
    else:
        calls = _conv_calls(_CONV_MODELS[model], monkeypatch)
        # 3 embed stages, 3 block 1x1 shapes, 3 head 3x3 levels, head.proj, a KD projection
        assert len(calls) == 11
        assert sum(has_bias for _, _, has_bias, _ in calls) == 1
    rng = np.random.default_rng(1)
    for x_shape, w_shape, has_bias, pad in calls:
        x = rng.standard_normal(x_shape, dtype=np.float32)
        w = rng.standard_normal(w_shape, dtype=np.float32)
        b = rng.standard_normal(w_shape[0], dtype=np.float32) if has_bias else None
        outs = {}
        for mode, context in TAPE_MODES.items():
            with context() as entries:
                y = ad.conv2d(ad.parameter(x), ad.parameter(w),
                              ad.parameter(b) if has_bias else None, pad=pad)
            outs[mode] = y.data
        # entries are now the gradient tape's, the last mode
        g = rng.standard_normal(y.data.shape, dtype=np.float32)
        gx, gw, gb = entries[-1].bwd(g)
        del entries, y  # the entry holds x and w: free it before the reference builds its cols
        ref = rowmajor_conv2d(x, w, b, g, pad)
        what = f"{model} x{x_shape} w{w_shape}"
        for mode, out in outs.items():
            assert np.array_equal(out, ref[0]), f"forward ({mode} tape) {what}"
        assert np.array_equal(gx, ref[1]), f"gx {what}"
        assert np.array_equal(gw, ref[2]), f"gw {what}"
        assert (gb is None) == (not has_bias)
        assert not has_bias or np.array_equal(gb, ref[3]), f"gb {what}"


def test_untaped_forward_keeps_no_backward_state(monkeypatch):
    """With no tape no op output needs a gradient, so no op keeps a backward:
    the no-tape counterpart of an inspection tape."""
    rng = np.random.default_rng(0)
    model = DepthModel(ModelConfig(**_CONV_MODELS["recipe"]), rng)
    projections = FeatureProjections(DistillConfig(matched_blocks=(2, 4)), 64, rng)
    outputs = []
    op_ = ad._op

    def spy_op(op, inputs, data, bwd):
        out = op_(op, inputs, data, bwd)
        outputs.append((op, out.requires_grad))
        return out

    monkeypatch.setattr(ad, "_op", spy_op)
    spikes = (rng.random((4, 2, 64, 64)) < 0.3).astype(np.float32)
    for training in (True, False):
        feats, _ = model.forward(spikes, training=training)
        for i in projections.cfg.matched_blocks:
            projections.forward(i, rate_encode(feats[i - 1]))
    ops = {op for op, _ in outputs}
    assert {"conv2d", "batchnorm", "maxpool2d", "mlif", "spike_attention", "upsample_bilinear"} <= ops
    assert not any(needs for _, needs in outputs)


def test_gradient_tape_keeps_no_derived_copies():
    """Every array a backward closure holds on a gradient tape shares memory
    with its entry's inputs or output or with a parameter, or is a
    per-channel vector of its input's or output's channels: conv2d's im2col
    cols, batchnorm's xhat, conv_bn's conv output, mlif's pre-reset
    membranes and spike_attention's Q K^T are rebuilt from the entry's
    inputs, not kept.  Checked over a recipe training forward with KD
    projections and its loss, and an eval forward, where each ConvBN is one
    `conv_bn` op and attention the two-matmul graph."""
    rng = np.random.default_rng(0)
    model = DepthModel(ModelConfig(**_CONV_MODELS["recipe"]), rng)
    dcfg = DistillConfig(matched_blocks=(2, 4))
    projections = FeatureProjections(dcfg, 64, rng)
    params = [p.data for _, p in list(model.named_params()) + list(projections.named_params())]
    spikes = (rng.random((4, 2, 64, 64)) < 0.3).astype(np.float32)
    gt = depth_map(rng.random((64, 64)))
    teacher = rng.standard_normal((16, 8, 8)).astype(np.float32)
    entries = []
    for training in (True, False):
        with ad.tape() as t:
            feats, pred = model.forward(spikes, training=training)
            if training:
                total_loss(feats, pred, gt, teacher, projections, dcfg)
        entries += t.entries
    checked, stray = set(), []
    for e in entries:
        own = [x.data for x in e.inputs if x is not None] + [e.output.data] + params
        for name, cell in zip(e.bwd.__code__.co_freevars, e.bwd.__closure__ or ()):
            v = cell.cell_contents
            arr = v.data if isinstance(v, ad.Tensor) else v
            if not isinstance(arr, np.ndarray):
                continue
            checked.add(e.op)
            if any(np.may_share_memory(arr, o) for o in own) or arr.shape in (
                    (e.inputs[0].data.shape[1],), e.output.data.shape[1:2]):
                continue
            stray.append(f"{e.scope}: {e.op}.{name} {arr.shape}")
    assert {"conv2d", "batchnorm", "conv_bn", "mlif", "matmul", "spike_attention",
            "upsample_bilinear", "sigmoid"} <= checked
    assert not stray, stray


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(4, 16, 32, 40), (1, 64, 16, 20)])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_matches_reference_bit_for_bit(training, shape, dtype):
    """The in-place forward (with and without a tape) and backward give the
    plain formulas' exact bits, also with a constant gamma and beta, whose
    gradient sums the training gx still needs."""
    rng = np.random.default_rng(2)
    c = shape[1]
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    gamma = (rng.random(c) + 0.5).astype(dtype)
    beta = rng.standard_normal(c).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    rm, rv = rng.standard_normal(c).astype(dtype), (rng.random(c) + 0.5).astype(dtype)
    running = None if training else (rm.copy(), rv.copy())
    untaped = ad.batchnorm(ad.tensor(x), ad.tensor(gamma), ad.tensor(beta),
                           running_mean=rm.copy(), running_var=rv.copy(), training=training)
    with ad.tape() as t:
        y = ad.batchnorm(ad.parameter(x), ad.parameter(gamma), ad.parameter(beta),
                         running_mean=rm, running_var=rv, training=training)
    gx, ggamma, gbeta = t.entries[-1].bwd(g)
    ref = batchnorm_reference(x, gamma, beta, g, running)
    assert np.array_equal(untaped.data, ref[0])
    assert np.array_equal(y.data, ref[0])
    assert np.array_equal(gx, ref[1])
    assert np.array_equal(ggamma, ref[2])
    assert np.array_equal(gbeta, ref[3])
    with ad.tape() as t:
        ad.batchnorm(ad.parameter(x), ad.tensor(gamma), ad.tensor(beta),
                     running_mean=rm.copy(), running_var=rv.copy(), training=training)
    gx, ggamma, gbeta = t.entries[-1].bwd(g)
    assert np.array_equal(gx, ref[1])
    assert ggamma is None and gbeta is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 8, 32, 40), (1, 3, 1, 1), (1, 5, 7, 9), (4, 16, 32, 40),
                                   (3, 6, 13, 11)])
def test_batchnorm_running_stats_match_mean_and_var_bit_for_bit(shape, dtype):
    """A training forward, with any tape or none, moves the running buffers
    by the momentum update of x.mean and the unbiased x.var over B, H and W,
    bit for bit, at B = 1 and B > 1 (and n = 1, where the variance is 0)."""
    rng = np.random.default_rng(4)
    c = shape[1]
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    rm0 = rng.standard_normal(c).astype(dtype)
    rv0 = (rng.random(c) + 0.5).astype(dtype)
    n = x.size // c
    mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
    unbiased = var * (n / (n - 1)) if n > 1 else var
    m = ad.BN_MOMENTUM
    want_mean = (1.0 - m) * rm0 + m * mean
    want_var = (1.0 - m) * rv0 + m * unbiased
    for mode, context in TAPE_MODES.items():
        rm, rv = rm0.copy(), rv0.copy()
        with context():
            ad.batchnorm(ad.parameter(x), ad.parameter(np.ones(c, dtype)),
                         ad.parameter(np.zeros(c, dtype)), running_mean=rm, running_var=rv)
        assert rm.dtype == dtype and rm.tobytes() == want_mean.tobytes(), mode
        assert rv.dtype == dtype and rv.tobytes() == want_var.tobytes(), mode


def _conv_bn_calls(model_kw, monkeypatch):
    """{(x shape, w shape): scope} of every distinct ConvBN that an eval
    forward of the model runs (the fusion head's l3 and l4 run folded)."""
    model = DepthModel(ModelConfig(**model_kw), np.random.default_rng(0))
    scopes = {id(p): name.rsplit(".", 1)[0] for name, p in model.named_params()}
    calls = {}
    forward = ConvBN.forward

    def spy(self, x, training):
        calls.setdefault((x.data.shape, self.w.data.shape), scopes[id(self.w)])
        return forward(self, x, training)

    rng = np.random.default_rng(0)
    spikes = rng.random((model_kw["t"], model_kw["c"], model_kw["h"], model_kw["w"])) < 0.3
    with monkeypatch.context() as m:
        m.setattr(ConvBN, "forward", spy)
        model.predict(spikes.astype(np.float32))
    return calls


def _randomise_bn(layer, rng):
    """gamma of both signs, beta, running mean and a positive running variance."""
    cout = layer.gamma.data.shape[0]
    dtype = layer.gamma.data.dtype
    layer.gamma.data[...] = rng.standard_normal(cout) * 2
    layer.beta.data[...] = rng.standard_normal(cout)
    layer.running_mean[...] = rng.standard_normal(cout) * 3
    layer.running_var[...] = (rng.random(cout) * 4 + 0.01).astype(dtype)


def _conv_then_batchnorm(layer, x):
    """The reference graph of an eval ConvBN: ad.conv2d, then
    ad.batchnorm(training=False), in the layer's scope."""
    with ad.scope(layer.name):
        y = ad.conv2d(x, layer.w, pad=layer.pad)
        return ad.batchnorm(y, layer.gamma, layer.beta, running_mean=layer.running_mean,
                            running_var=layer.running_var, training=False)


def _model_conv_bn_layers(model_kw, dtype, monkeypatch):
    """(layer, x) for every ConvBN shape of the model's eval forward, each
    layer with random BN affines and statistics and x spikes in the
    backbone, rate maps in the head."""
    calls = _conv_bn_calls(model_kw, monkeypatch)
    assert len(calls) == 7  # 3 embed stages, the block 1x1s d->d, d->4d and 4d->d, head.l2
    assert {w[-1] for _, w in calls} == {1, 3}
    rng = np.random.default_rng(3)
    out = []
    for (x_shape, w_shape), scope in calls.items():
        cout, cin, k, _ = w_shape
        layer = cast(ConvBN(scope, cin, cout, k, rng), dtype)
        _randomise_bn(layer, rng)
        x = rng.random(x_shape)
        out.append((layer, (x if scope.startswith("head") else x < 0.3).astype(dtype)))
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("model", sorted(_CONV_MODELS))
def test_conv_bn_matches_conv2d_then_batchnorm_bit_for_bit(model, dtype, monkeypatch):
    """At every ConvBN shape of the model (1x1, and 3x3 pad 1), an eval
    forward in every tape mode (one `conv_bn` op) gives the bytes of
    ad.conv2d -> ad.batchnorm(training=False), with random BN affines and
    statistics; the fused entry keeps a backward only on the gradient tape
    and prices as the reference graph's rows."""
    for layer, x in _model_conv_bn_layers(_CONV_MODELS[model], dtype, monkeypatch):
        x_before = x.copy()
        with ad.tape() as ref:
            want = _conv_then_batchnorm(layer, ad.tensor(x)).data
        outs, entries = {}, {}
        for mode, context in TAPE_MODES.items():
            with context() as entries[mode]:
                outs[mode] = layer.forward(ad.tensor(x), training=False).data
        what = f"{layer.name} x{x.shape} w{layer.w.data.shape} {np.dtype(dtype).name}"
        assert x.tobytes() == x_before.tobytes(), what
        assert want.dtype == dtype and np.abs(want).max() > 0, what
        for mode, out in outs.items():
            assert out.dtype == dtype, what
            assert out.tobytes() == want.tobytes(), f"{mode} tape: {what}"
        assert [e.op for e in ref.entries] == ["conv2d", "batchnorm"], what
        for mode, has_bwd in (("inspect", False), ("grad", True)):
            fused = entries[mode]
            assert [(e.op, e.scope, e.bwd is not None) for e in fused] == [
                ("conv_bn", layer.name, has_bwd)], f"{mode} tape: {what}"
            assert price(fused, layer).rows == price(ref.entries, layer).rows, what


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("model", sorted(_CONV_MODELS))
def test_conv_bn_backward_matches_conv2d_then_batchnorm_bit_for_bit(model, dtype, monkeypatch):
    """At every ConvBN shape of the model, conv_bn's gx, gw, ggamma and
    gbeta have the bits that batchnorm's eval backward and then conv2d's
    give on the ad.conv2d -> ad.batchnorm(training=False) graph, also for
    an x that needs no gradient (embed.s1's event input, whose gx is None)
    and for a gamma or beta that needs none."""
    rng = np.random.default_rng(6)
    for layer, x in _model_conv_bn_layers(_CONV_MODELS[model], dtype, monkeypatch):
        xt = ad.tensor(x) if layer.name == "embed.s1.conv" else ad.parameter(x)
        g = rng.standard_normal((x.shape[0], layer.w.data.shape[0]) + x.shape[2:]).astype(dtype)
        what = f"{layer.name} x{x.shape} w{layer.w.data.shape} {np.dtype(dtype).name}"
        for frozen in (None, layer.gamma, layer.beta):
            if frozen is not None:
                frozen.requires_grad = False
            with ad.tape() as ref:
                _conv_then_batchnorm(layer, xt)
            conv, bn = ref.entries
            gy, ggamma, gbeta = bn.bwd(g)
            gx, gw, _ = conv.bwd(gy)
            with ad.tape() as fused:
                layer.forward(xt, training=False)
            got = fused.entries[0].bwd(g)
            for name, a, b in zip(("gx", "gw", "ggamma", "gbeta"), got, (gx, gw, ggamma, gbeta)):
                assert (a is None) == (b is None), f"{name} {what}"
                assert a is None or (a.dtype == dtype and a.tobytes() == b.tobytes()), f"{name} {what}"
            assert (gx is None) == (layer.name == "embed.s1.conv"), what
            if frozen is not None:
                frozen.requires_grad = True


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_model_runs_one_conv_bn_per_conv_bn_layer(dtype):
    """An eval forward of the recipe model with random BN statistics gives
    the gradient tape's block features bit for bit with no tape and on an
    inspection tape, where it records one `conv_bn` entry per ConvBN it
    runs and no batchnorm, and prices as the gradient tape's rows."""
    rng = np.random.default_rng(4)
    model = cast(DepthModel(ModelConfig(**_CONV_MODELS["recipe"]), rng), dtype)
    layers = {}
    for name, p in model.named_params():
        if name.endswith(".gamma"):
            layers[name.rsplit(".", 1)[0]] = p
    bn_rng = np.random.default_rng(5)
    for name, buf in model.named_buffers():
        buf[...] = (bn_rng.random(buf.shape) + 0.1 if name.endswith("var")
                    else bn_rng.standard_normal(buf.shape) * 0.2)
    spikes = (rng.random((4, 2, 64, 64)) < 0.3).astype(dtype)
    feats, preds, entries = {}, {}, {}
    for mode, context in TAPE_MODES.items():
        with context() as entries[mode]:
            f, pred = model.forward(spikes, training=False)
        feats[mode] = b"".join(z.data.tobytes() for z in f)
        preds[mode] = pred.data
    assert feats["none"] == feats["inspect"] == feats["grad"]
    assert preds["none"].tobytes() == preds["inspect"].tobytes()
    fused = entries["inspect"]
    ops = [e.op for e in fused]
    assert "batchnorm" not in ops and all(e.bwd is None for e in fused)
    folded = {f"head.{name}" for name in FOLDED_LAYERS}
    assert [e.scope for e in fused if e.op == "conv_bn"] == [s for s in layers if s not in folded]
    assert price(fused, model).rows == price(entries["grad"], model).rows


def test_eval_gradient_tape_runs_one_conv_bn_per_conv_bn_layer():
    """On a gradient tape, an eval forward of the recipe model records one
    `conv_bn` entry with a backward under each ConvBN scope, the fusion
    head's reference tail included, and no conv2d or batchnorm there."""
    rng = np.random.default_rng(4)
    model = DepthModel(ModelConfig(**_CONV_MODELS["recipe"]), rng)
    layers = [name.rsplit(".", 1)[0] for name, _ in model.named_params() if name.endswith(".gamma")]
    spikes = (rng.random((4, 2, 64, 64)) < 0.3).astype(np.float32)
    with ad.tape() as t:
        model.forward(spikes, training=False)
    ops = {}
    for e in t.entries:
        if e.scope in layers:
            ops.setdefault(e.scope, []).append((e.op, e.bwd is not None))
    assert ops == {s: [("conv_bn", True)] for s in layers}
    assert {f"head.{name}" for name in FOLDED_LAYERS} & set(layers) == {"head.l3.conv", "head.l4.conv"}


# ---------------------------------------------------------------------------
# determinism and scopes


def test_forward_backward_bit_identical(rng):
    x0 = rng.standard_normal((2, 3, 6, 6))
    w0 = rng.standard_normal((2, 3, 3, 3))

    def run():
        x, w = ad.parameter(x0.copy()), ad.parameter(w0.copy())
        with ad.tape() as t:
            loss = ad.reduce_sum(ad.sigmoid(ad.conv2d(x, w, pad=1)))
        t.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    la, xa, wa = run()
    lb, xb, wb = run()
    assert la.tobytes() == lb.tobytes()
    assert xa.tobytes() == xb.tobytes() and wa.tobytes() == wb.tobytes()


def test_scopes_join_with_dots():
    x = ad.parameter(np.ones(2))
    with ad.tape() as t:
        with ad.scope("outer"):
            with ad.scope("inner"):
                ad.add(x, x)
    assert t.entries[0].scope == "outer.inner"


def test_untaped_scopes_name_a_failure_and_leave_tapes_as_they_were():
    """With no tape a scope still names a failure; a gradient or consumer
    tape opened inside scopes records its entries with its own scopes only,
    and a failure in it names the scopes open around the tape, then its
    own.  A failure that escapes a tape, its scopes and the outer scopes
    leaves the one scope stack empty, so a fresh tape records unscoped
    entries."""
    nan = ad.tensor(np.array([np.nan]))
    with ad.scope("block2"), ad.scope("attn"):
        with pytest.raises(NumericError, match=r"^scale: non-finite values in result \(block2\.attn\)$"):
            ad.scale(nan, 10.0)
        with ad.scope("train step 1"), ad.tape() as t:
            ad.scale(ad.tensor(np.ones(1)), 2.0)
            with ad.scope("q"):
                ad.scale(ad.tensor(np.ones(1)), 2.0)
                with pytest.raises(NumericError, match=r"\(block2\.attn\.train step 1, q\)$"):
                    ad.scale(nan, 10.0)
        consumed = []
        with ad.tape(consumer=consumed.append):
            ad.scale(ad.tensor(np.ones(1)), 2.0)
            with ad.scope("k"), ad.scope("conv"):
                ad.scale(ad.tensor(np.ones(1)), 2.0)
                with pytest.raises(NumericError,
                                   match=r"^scale: non-finite values in result \(block2\.attn, k\.conv\)$"):
                    ad.scale(nan, 10.0)
        assert ad.failure_site() == " (block2.attn)"
    assert [e.scope for e in t.entries] == ["", "q"]
    assert [e.scope for e in consumed] == ["", "k.conv"]
    assert ad.failure_site() == ""

    with pytest.raises(NumericError, match=r"\(block3\.attn\.eval, v\.lif\)$"):
        with ad.scope("block3"), ad.scope("attn"):
            with ad.scope("eval"), ad.tape(consumer=consumed.append), ad.scope("v"), ad.scope("lif"):
                ad.scale(nan, 10.0)
    assert ad.failure_site() == "" and ad.active_tape() is None
    with ad.tape() as fresh:
        ad.scale(ad.tensor(np.ones(1)), 2.0)
    assert [e.scope for e in fresh.entries] == [""]
