"""LIF dynamics against hand traces and an independent scalar simulator."""
import numpy as np
import pytest

from helpers import (TAPE_MODES, lif_backward_reference, scalar_lif_backward_reference,
                     scalar_lif_reference)
from spikedepth import autodiff as ad
from spikedepth.errors import ConfigError, DimensionError, NumericError
from spikedepth.neuron import LifParams, fresh_state, lif_backward, lif_step, mlif, surrogate_grad

P = LifParams()  # tau=2, threshold=1, reset=0, alpha=2
# tau = 3 is where (x - v) / tau and (x - v) * (1 / tau) round apart
LIF_CASES = (P, LifParams(tau=3.0), LifParams(tau=3.0, v_threshold=0.7, v_reset=0.1),
             LifParams(tau=1.5, v_threshold=0.4, v_reset=-0.2, surrogate_alpha=4.0))


# ---------------------------------------------------------------------------
# hand-derived traces


def test_constant_drive_two_fires_every_step():
    # v = 0 + (2-0)/2 = 1.0 >= 1 each step after the reset
    state = fresh_state((1,))
    spikes = [lif_step(state, np.array([2.0]), P).item() for _ in range(3)]
    assert spikes == [1.0, 1.0, 1.0]
    assert state.v.item() == 0.0  # hard reset after the last fire
    assert state.v_pre.item() == 1.0  # the membrane just before that reset


def test_constant_drive_one_asymptotes_below_threshold():
    state = fresh_state((1,))
    vs, spikes = [], []
    for _ in range(3):
        spikes.append(lif_step(state, np.array([1.0]), P).item())
        vs.append(state.v.item())
    assert spikes == [0.0, 0.0, 0.0]
    np.testing.assert_allclose(vs, [0.5, 0.75, 0.875], atol=1e-12)


def test_zero_input_is_a_fixed_point():
    state = fresh_state((4,))
    for _ in range(5):
        out = lif_step(state, np.zeros(4), P)
    assert not out.any() and not state.v.any()


def test_lif_step_validation():
    state = fresh_state((2,))
    with pytest.raises(DimensionError):
        lif_step(state, np.zeros(3), P)
    with pytest.raises(NumericError):
        lif_step(state, np.array([np.nan, 0.0]), P)


def test_params_validation():
    with pytest.raises(ConfigError):
        LifParams(tau=0.5)
    with pytest.raises(ConfigError):
        LifParams(v_threshold=0.0, v_reset=0.0)
    with pytest.raises(ConfigError):
        LifParams(surrogate_alpha=0.0)
    for nan_field in ("tau", "v_threshold", "surrogate_alpha"):
        with pytest.raises(ConfigError):
            LifParams(**{nan_field: float("nan")})


# ---------------------------------------------------------------------------
# surrogate


def test_surrogate_peak_is_alpha_over_two():
    assert surrogate_grad(0.0, 2.0) == 1.0
    assert surrogate_grad(0.0, 4.0) == 2.0


def test_surrogate_decays_monotonically_in_distance():
    xs = np.linspace(0.0, 5.0, 50)
    g = surrogate_grad(xs, 2.0)
    assert (np.diff(g) < 0).all()
    np.testing.assert_allclose(surrogate_grad(xs, 2.0), surrogate_grad(-xs, 2.0))
    assert surrogate_grad(50.0, 2.0) < 1e-4  # far tails vanish


# ---------------------------------------------------------------------------
# multistep neuron vs the independent scalar simulator


def test_mlif_matches_scalar_simulator_exactly(rng):
    x = rng.uniform(-1.0, 3.0, size=(7, 5, 4)).astype(np.float64)
    out = mlif(ad.tensor(x), P).data
    for idx in np.ndindex(5, 4):
        spikes, _ = scalar_lif_reference(x[(slice(None),) + idx], P)
        np.testing.assert_array_equal(out[(slice(None),) + idx], spikes)


def test_mlif_binary_and_shape(rng):
    x = rng.standard_normal((3, 2, 4, 4)) * 4.0
    out = mlif(ad.tensor(x), P).data
    assert out.shape == x.shape
    assert set(np.unique(out)) <= {0.0, 1.0}


def test_mlif_t1_reduces_to_lif_step(rng):
    # mlif is T steps of lif_step: equal spikes bit for bit, also where
    # (x - v) / tau and (x - v) * (1 / tau) round apart (tau = 3)
    for p in LIF_CASES:
        for T in (1, 4):
            for dtype in (np.float32, np.float64):
                x = rng.uniform(-1, 3, size=(T, 6, 5)).astype(dtype)
                state = fresh_state((6, 5), dtype)
                want = np.stack([lif_step(state, x[t], p) for t in range(T)])
                got = mlif(ad.tensor(x), p).data
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (p, T, dtype)
    # a membrane that reaches the threshold only when divided by tau
    x0 = 2.0165894394179498  # x0 * (1 / 3) < x0 / 3
    p = LifParams(tau=3.0, v_threshold=x0 / 3.0)
    assert mlif(ad.tensor(np.array([[x0]])), p).data.item() == 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", LIF_CASES)
def test_mlif_same_bits_in_every_tape_mode(rng, p, dtype):
    """With no tape, on an inspection tape and on a gradient tape, mlif gives
    the spikes of the update rule written with fresh arrays; only the
    gradient tape keeps a backward, and its rerun of the recurrence reads
    the pre-reset membrane of every step that the fresh-array rule makes."""
    x = rng.uniform(-1, 3, size=(5, 6, 7)).astype(dtype)
    v = np.zeros((6, 7), dtype)
    want, v_pre = [], []
    for t in range(5):
        v = v + (x[t] - v) / p.tau
        v_pre.append(v)
        want.append((v >= p.v_threshold).astype(dtype))
        v = np.where(want[-1] > 0, np.asarray(p.v_reset, dtype=dtype), v)
    want = np.stack(want)
    g = rng.standard_normal(x.shape).astype(dtype)
    for mode, context in TAPE_MODES.items():
        with context() as entries:
            got = mlif(ad.parameter(x), p).data
        assert got.dtype == dtype and got.tobytes() == want.tobytes(), mode
        if entries is not None:
            (entry,) = entries
            assert (entry.bwd is None) == (mode == "inspect")
    (gx,) = entry.bwd(g)  # the gradient tape's, the last mode
    assert gx.tobytes() == lif_backward_reference(np.stack(v_pre), g, p).tobytes()


# ---------------------------------------------------------------------------
# the reset select against a fresh-array np.where oracle

RESETS = (0.0, -0.0, 0.1, -0.2)


def _extreme_currents(dtype, rng, v_reset):
    """[4, lanes] currents of +-0.9 * the dtype's max, and LIF parameters
    with the threshold at 0.6 of it: x - v overflows to +inf in lane 0
    (which fires) and to -inf in lane 1 (a NaN membrane on the next step);
    lane 2 fires on finite membranes; the rest are random."""
    big = 0.9 * np.finfo(dtype).max
    lanes = [[-big, -big, big, 0.0], [big, -big, 0.0, 0.0], [big] * 4]
    x = np.concatenate([np.array(lanes).T, big * rng.uniform(-1, 1, size=(4, 13))], axis=1)
    return x.astype(dtype), LifParams(v_threshold=0.6 * big, v_reset=v_reset)


def _where_oracle(x, p, v0):
    """(spikes, pre-reset membranes, reset membranes) of each step, the
    reset written as np.where(fired, v_reset, v_pre) on fresh arrays."""
    v, reset = v0, np.asarray(p.v_reset, dtype=x.dtype)
    spikes, pres, vs = [], [], []
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for xt in x:
            pre = (xt - v) / p.tau + v
            fired = pre >= p.v_threshold
            v = np.where(fired, reset, pre)
            spikes.append(fired.astype(x.dtype)), pres.append(pre), vs.append(v)
    return np.stack(spikes), np.stack(pres), np.stack(vs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v_reset", RESETS)
def test_lif_step_reset_matches_where_oracle_bit_for_bit(rng, dtype, v_reset):
    """Every membrane bit pattern comes through the reset as the oracle's:
    +-inf pre-reset membranes, the NaN after -inf, -0.0 from an underflow
    on a -0.0 membrane, and a -0.0 v_reset."""
    x, p = _extreme_currents(dtype, rng, v_reset)
    tiny = np.finfo(dtype).smallest_subnormal
    x = np.concatenate([x, np.array([[-tiny], [-0.0], [1.0], [0.0]], dtype)], axis=1)
    v0 = np.zeros(x.shape[1], dtype)
    v0[-1] = -0.0
    want_spikes, want_pre, want_v = _where_oracle(x, p, v0)
    assert np.isposinf(want_pre).any() and np.isneginf(want_pre).any()
    assert np.isnan(want_pre).any() and (np.signbit(want_pre) & (want_pre == 0)).any()
    state = fresh_state(x.shape[1:], dtype)
    state.v[:] = v0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for t in range(x.shape[0]):
            spikes = lif_step(state, x[t], p)
            assert spikes.tobytes() == want_spikes[t].tobytes(), t
            assert state.v_pre.tobytes() == want_pre[t].tobytes(), t
            assert state.v.tobytes() == want_v[t].tobytes(), t


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v_reset", RESETS)
def test_mlif_reset_matches_where_oracle_in_every_tape_mode(rng, dtype, v_reset):
    x, p = _extreme_currents(dtype, rng, v_reset)
    want, pres, _ = _where_oracle(x, p, np.zeros(x.shape[1], dtype))
    g = rng.standard_normal(x.shape).astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for mode, context in TAPE_MODES.items():
            with context() as entries:
                got = mlif(ad.parameter(x), p).data
            assert got.tobytes() == want.tobytes(), mode
        (gx,) = entries[0].bwd(g)  # the gradient tape's, the last mode
        assert gx.tobytes() == lif_backward_reference(pres, g, p).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v_reset", RESETS)
def test_reset_select_raises_no_numpy_error(rng, dtype, v_reset):
    """The select wraps in integer arithmetic (v_reset - v_pre leaves the
    integer range here) and says nothing, also under errstate(all="raise")."""
    x = rng.uniform(-3, 3, size=(4, 64)).astype(dtype)
    p = LifParams(v_reset=v_reset)
    want, pres, vs = _where_oracle(x, p, np.zeros(64, dtype))
    ints = np.dtype(f"i{np.dtype(dtype).itemsize}")
    info = np.iinfo(ints)
    diff = np.array(v_reset, dtype).view(ints).astype(object) - pres.view(ints).astype(object)
    # +0.0 (all bits zero) minus a membrane other than -0.0 stays in range
    assert ((diff < info.min) | (diff > info.max)).any() or not np.signbit(v_reset) and v_reset == 0
    with np.errstate(all="raise"):
        state = fresh_state((64,), dtype)
        for t in range(4):
            lif_step(state, x[t], p)
            assert state.v.tobytes() == vs[t].tobytes()
        for context in TAPE_MODES.values():
            with context():
                assert mlif(ad.parameter(x), p).data.tobytes() == want.tobytes()


def test_lif_step_refuses_a_membrane_dtype_with_no_integer_view():
    """The reset selects on an integer view of the membrane's width, so a
    float128 or complex membrane raises DimensionError before the step and
    leaves the state as it was; float16 steps."""
    refused = [np.complex64] + [np.longdouble] * (np.dtype(np.longdouble).itemsize > 8)
    for dtype in refused:
        state = fresh_state((2,))
        with pytest.raises(DimensionError, match=np.dtype(dtype).name):
            lif_step(state, np.array([2.0, 0.5], dtype), P)
        assert state.v.dtype == np.float32 and not state.v.any()
    state = fresh_state((2,), np.float16)
    spikes = lif_step(state, np.array([2.0, 0.5], np.float16), P)
    assert spikes.tolist() == [1.0, 0.0] and state.v.tolist() == [0.0, 0.25]


@pytest.mark.parametrize("mode", sorted(TAPE_MODES))
def test_mlif_non_finite_current_after_the_first_step_raises(rng, mode):
    for bad in (np.nan, np.inf):
        x = rng.uniform(-1, 3, size=(4, 3, 5)).astype(np.float32)
        x[2, 1, 3] = bad
        with TAPE_MODES[mode](), pytest.raises(NumericError):
            mlif(ad.parameter(x), P)


def test_non_finite_current_names_the_tape_label_and_scope():
    x = ad.tensor(np.array([[np.inf]], np.float32))
    with pytest.raises(NumericError, match=r"^lif_step: non-finite input current$"):
        mlif(x, P)
    want = r"^lif_step: non-finite input current \(train step 2, block1\.mlp\.lif1\)$"
    with ad.scope("train step 2"), ad.tape(), ad.scope("block1.mlp"), ad.scope("lif1"):
        with pytest.raises(NumericError, match=want):
            mlif(x, P)


def test_mlif_on_a_time_axis_alone_gives_the_bits_of_one_neuron(rng):
    """A [T] input runs as the same input reshaped to [T, 1], forward and
    backward: each step's current and spike are 0-d views, not scalars."""
    x = (rng.standard_normal(9) * 2).astype(np.float32)
    g = rng.standard_normal(9).astype(np.float32)
    out = {}
    for shape in ((9,), (9, 1)):
        xt = ad.parameter(x.reshape(shape))
        with ad.tape() as t:
            y = mlif(xt, LifParams(tau=1.7))
        (gx,) = t.entries[-1].bwd(g.reshape(shape))
        assert y.data.shape == gx.shape == shape
        out[shape] = (y.data.tobytes(), gx.tobytes())
    assert out[(9,)] == out[(9, 1)]
    assert 0 < np.frombuffer(out[(9,)][0], np.float32).sum() < 9


def test_mlif_zero_input_zero_output():
    assert not mlif(ad.tensor(np.zeros((4, 3, 3))), P).data.any()


def test_mlif_needs_time_axis_and_finite_input():
    with pytest.raises(DimensionError):
        mlif(ad.tensor(np.zeros((0, 3))), P)
    with pytest.raises(NumericError):
        mlif(ad.tensor(np.array([[np.inf]])), P)


def test_state_isolation_between_samples(rng):
    # two consecutive calls behave like processing each sample alone
    x = rng.uniform(-1, 3, size=(4, 8))
    a = mlif(ad.tensor(x), P).data
    b = mlif(ad.tensor(x), P).data
    np.testing.assert_array_equal(a, b)


def test_single_step_firing_monotonicity(rng):
    # with v_reset=0 and fresh state, more current never unfires a neuron
    currents = np.sort(rng.uniform(-2, 4, size=64))
    spikes = mlif(ad.tensor(currents[None, :]), P).data[0]
    assert (np.diff(spikes) >= 0).all()


# ---------------------------------------------------------------------------
# backward vs the step-by-step chain-rule oracle


def test_mlif_backward_matches_chain_rule_oracle(rng):
    x = rng.uniform(-0.5, 2.5, size=(3, 40)).astype(np.float64)
    upstream = rng.standard_normal((3, 40))
    xt = ad.parameter(x.copy())
    with ad.tape() as t:
        out = mlif(xt, P)
        loss = ad.reduce_sum(ad.mul(out, ad.tensor(upstream.copy())))
    t.backward(loss)
    for j in range(40):
        want = scalar_lif_backward_reference(x[:, j], upstream[:, j], P)
        np.testing.assert_allclose(xt.grad[:, j], want, atol=1e-12)


def test_mlif_backward_nondefault_params(rng):
    p = LifParams(tau=3.0, v_threshold=0.7, v_reset=0.1, surrogate_alpha=1.5)
    x = rng.uniform(-0.5, 2.0, size=(5, 16)).astype(np.float64)
    upstream = rng.standard_normal((5, 16))
    xt = ad.parameter(x.copy())
    with ad.tape() as t:
        loss = ad.reduce_sum(ad.mul(mlif(xt, p), ad.tensor(upstream.copy())))
    t.backward(loss)
    for j in range(16):
        want = scalar_lif_backward_reference(x[:, j], upstream[:, j], p)
        np.testing.assert_allclose(xt.grad[:, j], want, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", LIF_CASES)
def test_lif_backward_matches_fresh_array_oracle_bit_for_bit(rng, p, dtype):
    """The in-place kernel keeps the bits of the fresh-array formulas, on
    membranes at the threshold, near it and far from it, on a -0.0
    upstream, and on one [T] neuron, whose planes are 0-d."""
    v_pre = rng.uniform(-1, 3, size=(6, 5, 7)).astype(dtype)
    v_pre[:, 0, :3] = [p.v_threshold, np.nextafter(dtype(p.v_threshold), dtype(-np.inf)), -0.0]
    g = rng.standard_normal(v_pre.shape).astype(dtype)
    g[:, 1] = -0.0
    for vp, up in ((v_pre, g), (v_pre[:, 2, 2], g[:, 2, 2])):
        want = lif_backward_reference(vp, up, p)
        got = lif_backward(vp, up, p)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("v_reset", RESETS)
def test_lif_backward_matches_fresh_array_oracle_on_extreme_membranes(rng, dtype, v_reset):
    """+-inf and NaN pre-reset membranes (the extreme-current resets): an
    infinite membrane's surrogate term is a signed zero and a NaN one's is
    NaN, and the kernel keeps the oracle's bits for both."""
    x, p = _extreme_currents(dtype, rng, v_reset)
    _, pres, _ = _where_oracle(x, p, np.zeros(x.shape[1], dtype))
    g = rng.standard_normal(x.shape).astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        want = lif_backward_reference(pres, g, p)
        got = lif_backward(pres, g, p)
    assert np.isnan(want).any() and got.tobytes() == want.tobytes()


def test_lif_backward_refuses_an_upstream_of_another_shape_or_dtype():
    """A [3, 1] upstream would broadcast against a [3, 4] v_pre, and a
    float64 one would be cast into float32 gradients: both are refused."""
    v_pre = np.zeros((3, 4), np.float32)
    for upstream in (np.ones((3, 1), np.float32), np.ones((3, 4), np.float64),
                     np.ones((2, 4), np.float32)):
        with pytest.raises(DimensionError, match=r"^lif_backward: upstream "):
            lif_backward(v_pre, upstream, P)
    assert lif_backward(v_pre, np.ones((3, 4), np.float32), P).shape == (3, 4)


def test_mlif_gradient_vanishes_far_from_threshold():
    # deeply subthreshold drive: surrogate tails make the gradient tiny
    x = ad.parameter(np.full((3, 4), -40.0))
    with ad.tape() as t:
        loss = ad.reduce_sum(mlif(x, P))
    t.backward(loss)
    assert np.abs(x.grad).max() < 1e-3
