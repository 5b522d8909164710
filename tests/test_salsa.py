import dataclasses
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sigcast.salsa
from sigcast.salsa import (
    ObservationMask,
    SalsaParams,
    _column,
    _per_row,
    adjoint,
    salsa_forecast,
    salsa_solve,
    soft_threshold,
    synthesize,
)


def dft_matrix(m_len, n_basis):
    """Direct O(N^2) evaluation of the synthesis operator."""
    m = np.arange(m_len)[:, None]
    n = np.arange(n_basis)[None, :]
    return np.exp(2j * np.pi * m * n / n_basis)


def make_tone_coeffs(n_basis, tones):
    """Coefficients for a real multi-tone signal on the dictionary grid."""
    c = np.zeros(n_basis, dtype=complex)
    for bin_idx, amp, phase in tones:
        c[bin_idx] = 0.5 * amp * np.exp(1j * phase)
        c[n_basis - bin_idx] = np.conj(c[bin_idx])
    return c


class TestSynthesize:
    def test_zero_coeffs(self):
        assert np.all(synthesize(np.zeros(16), 8) == 0)

    def test_dc_column_gives_ones(self):
        c = np.zeros(32, dtype=complex)
        c[0] = 1.0
        out = synthesize(c, 10)
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(3)
        n = 64
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        direct = dft_matrix(n, n) @ c
        assert np.allclose(synthesize(c, n), direct, rtol=0, atol=1e-9 * np.abs(direct).max())

    def test_truncated_matches_direct(self):
        rng = np.random.default_rng(4)
        m_len, n = 23, 57
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        direct = dft_matrix(m_len, n) @ c
        assert np.allclose(synthesize(c, m_len), direct, atol=1e-10 * np.abs(direct).max())

    def test_rejects_out_len_beyond_basis(self):
        with pytest.raises(ValueError):
            synthesize(np.zeros(8), 9)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: synthesize(3.0, 1), "c", id="synthesize"),
    pytest.param(lambda: adjoint(5.0, 8), "y", id="adjoint"),
])
def test_full_spectrum_operators_refuse_0d_input(call, name):
    # both work along the last axis, which a 0-d input does not have
    with pytest.raises(ValueError, match=f"^{name} must have a last axis"):
        call()


class TestAdjoint:
    def test_zeros(self):
        assert np.all(adjoint(np.zeros(5), 12) == 0)

    def test_adjoint_identity_direct_sums(self):
        rng = np.random.default_rng(5)
        m_len, n = 31, 80
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=m_len) + 1j * rng.normal(size=m_len)
        lhs = np.vdot(y, synthesize(c, m_len))  # <A c, y>
        rhs = np.vdot(adjoint(y, n), c)  # <c, A^H y>
        assert abs(lhs - rhs) < 1e-10 * (np.linalg.norm(c) * np.linalg.norm(y))

    def test_frame_identity(self):
        rng = np.random.default_rng(6)
        n = 50
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        back = synthesize(adjoint(y, n), n)
        assert np.max(np.abs(back - n * y)) < 1e-9 * np.linalg.norm(y)

    def test_rejects_signal_longer_than_basis(self):
        with pytest.raises(ValueError):
            adjoint(np.zeros(9), 8)


class TestSoftThreshold:
    def test_zero_input(self):
        assert soft_threshold(0.0, 2.5) == 0.0

    def test_zero_threshold_is_identity(self):
        x = np.array([1.0 + 2j, -0.5, 0.0])
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_worked_examples(self):
        assert soft_threshold(3.0, 1.0) == pytest.approx(2.0)
        assert soft_threshold(-3.0, 1.0) == pytest.approx(-2.0)
        assert soft_threshold(3j, 1.0) == pytest.approx(2j)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)
        # NaN fails every comparison, so the check is written to refuse it
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            soft_threshold(np.array([3.0, -2.0]), float("nan"))
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(np.ones((2, 3)), np.array([[0.5], [np.nan]]))

    @given(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=300)
    def test_nonexpansive(self, a, b, thr):
        fa = soft_threshold(a, thr)
        fb = soft_threshold(b, thr)
        assert abs(fa - fb) <= abs(a - b) + 1e-9

    @given(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=300)
    def test_magnitude_law(self, x, thr):
        # |soft(x, T)| + min(|x|, T) == |x|
        lhs = abs(soft_threshold(x, thr)) + min(abs(x), thr)
        assert lhs == pytest.approx(abs(x), abs=1e-12, rel=1e-12)

    def test_subnormal_magnitude_is_silent(self):
        # threshold / 5e-324 overflows; the scale still clamps to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = soft_threshold(np.array([5e-324 + 0j, 2.0]), 1.0)
        assert np.array_equal(out, [0.0, 1.0])


def float_mask_solve(masked, n_observed, params, track_cost=True):
    """The SALSA loop with a general observation mask, one SalsaParams for all rows.

    Unobserved samples are zeroed by np.where and the loop multiplies each
    synthesis by the float mask, as salsa_solve did before it read only the
    observed prefix. Returns (c, cost_history).
    """
    y = np.asarray(masked, dtype=complex)
    m_len = y.shape[-1]
    observed = np.arange(m_len) < n_observed
    obs = observed.astype(float)
    y = np.where(observed, y, 0.0)
    thresh = params.threshold_scale * params.lam / params.mu
    step = 1.0 / (params.mu + params.p_norm)
    c = adjoint(y, params.n_basis)
    d = np.zeros_like(c)
    cost = np.empty(y.shape[:-1] + (params.n_iter if track_cost else 0,))
    for i in range(params.n_iter):
        u = soft_threshold(c + d, thresh) - d
        d = step * adjoint(y - obs * synthesize(u, m_len), params.n_basis)
        c = d + u
        if track_cost:
            residual = y - synthesize(c, m_len)
            cost[..., i] = np.sum(np.abs(residual) ** 2, axis=-1) + params.lam * np.sum(
                np.abs(c), axis=-1
            )
    return c, cost


def complex_prefix_solve(masked, mask, params, track_cost=True):
    """The SALSA loop over the full complex spectrum, with one SalsaParams or one per row.

    This is salsa_solve as it was before its loop kept only the rfft bins:
    every iteration runs the full-length `synthesize`/`adjoint` pair on
    complex arrays. Returns (c, cost_history).
    """
    y = np.asarray(masked, dtype=complex)
    k, m_len = mask.n_observed, mask.total_len
    shared, rows = _per_row(params, y[..., 0].size)
    n_basis = shared.n_basis
    target = np.concatenate([y[..., :k], np.zeros_like(y[..., k:])], axis=-1)
    y = y[..., :k]
    c = adjoint(y, n_basis)
    d = np.zeros_like(c)
    column = y.shape[:-1] + (1,)
    thresh = _column([p.threshold_scale * p.lam / p.mu for p in rows], column)
    step = _column([1.0 / (p.mu + p.p_norm) for p in rows], column)
    lam = _column([p.lam for p in rows], y.shape[:-1])
    cost = np.empty(y.shape[:-1] + (shared.n_iter if track_cost else 0,))
    for i in range(shared.n_iter):
        u = soft_threshold(c + d, thresh) - d
        d = step * adjoint(y - synthesize(u, k), n_basis)
        c = d + u
        if track_cost:
            residual = target - synthesize(c, m_len)
            cost[..., i] = np.sum(np.abs(residual) ** 2, axis=-1) + lam * np.sum(
                np.abs(c), axis=-1
            )
    return c, cost


def float_or_column(values, shape):
    """The rows' values reshaped to `shape`, or one Python number when every row shares it.

    This is `_column` as it was before the loop took only arrays; the
    bitwise reference loops keep it, so they also pin that the solver's 0-d
    operands give the bits of Python numbers.
    """
    return values[0] if len(set(values)) == 1 else np.array(values).reshape(shape)


def hermitian(c, n_basis):
    """The full length-N spectrum whose bins 0..N//2 are c: bins N//2+1..N-1
    conjugate bins N-1-N//2..1, as salsa_solve rebuilt it before it returned
    the half spectrum."""
    return np.concatenate([c, np.conj(c[..., 1 : n_basis - n_basis // 2][..., ::-1])], axis=-1)


def _full_spectrum_forecast(history, horizon, params):
    """salsa_forecast as it was before the half spectrum ran from the solve to
    the forecast: the loop's inverse takes irfft's norm factor 1/N and scales
    the head by N, the full Hermitian spectrum is rebuilt from bins 0..N//2,
    and the forecast is the real part of its complex synthesis."""
    hist = np.asarray(history, dtype=float)
    k = hist.shape[-1]
    shared, rows = _per_row(params, hist[..., 0].size)
    n_basis = shared.n_basis
    thresh = float_or_column([p.threshold_scale * p.lam / p.mu for p in rows],
                             hist.shape[:-1] + (1,))
    step = float_or_column([1.0 / (p.mu + p.p_norm) for p in rows], hist.shape[:-1] + (1,))
    c = np.fft.rfft(hist, n=n_basis)
    d = np.zeros_like(c)
    for _ in range(shared.n_iter):
        u = soft_threshold(c + d, thresh) - d
        d = step * np.fft.rfft(hist - n_basis * np.fft.irfft(u, n_basis)[..., :k], n=n_basis)
        c = d + u
    return np.real(synthesize(hermitian(c, n_basis), k + horizon))[..., k:]


def _reference_rfft_solve(masked, mask, params, track_cost=True):
    """The half-spectrum SALSA loop through the public np.fft.rfft and irfft.

    This is salsa_solve as it was before its loop called the pocketfft
    kernels directly, with the inverse at norm factor 1 (norm="forward"),
    returning (c, cost_history) with c bins 0..N//2.
    """
    y = np.asarray(masked, dtype=float)
    k, m_len = mask.n_observed, mask.total_len
    shared, rows = _per_row(params, y[..., 0].size)
    n_basis = shared.n_basis
    target = np.concatenate([y[..., :k], np.zeros_like(y[..., k:])], axis=-1)
    y = y[..., :k]
    c = np.fft.rfft(y, n=n_basis)
    d = np.zeros_like(c)
    l1_weight = np.where(np.arange(c.shape[-1]) < n_basis - n_basis // 2, 2.0, 1.0)
    l1_weight[0] = 1.0
    column = y.shape[:-1] + (1,)
    thresh = float_or_column([p.threshold_scale * p.lam / p.mu for p in rows], column)
    step = float_or_column([1.0 / (p.mu + p.p_norm) for p in rows], column)
    lam = float_or_column([p.lam for p in rows], y.shape[:-1])
    cost = np.empty(y.shape[:-1] + (shared.n_iter if track_cost else 0,))
    for i in range(shared.n_iter):
        u = soft_threshold(c + d, thresh) - d
        d = step * np.fft.rfft(y - np.fft.irfft(u, n_basis, norm="forward")[..., :k], n=n_basis)
        c = d + u
        if track_cost:
            residual = target - np.fft.irfft(c, n_basis, norm="forward")[..., :m_len]
            cost[..., i] = np.sum(residual**2, axis=-1) + lam * np.sum(
                l1_weight * np.abs(c), axis=-1
            )
    return c, cost


def _allocating_solve(masked, mask, params, track_cost=True):
    """The half-spectrum SALSA loop on the pocketfft kernels, allocating every step.

    This is salsa_solve as it was before its loop wrote into work buffers:
    each iteration calls soft_threshold, with its check, and allocates the
    update's temporaries. The inverse takes norm factor 1. Returns
    (c, cost_history) with c bins 0..N//2.
    """
    kernels = sigcast.salsa._pocketfft
    y = np.asarray(masked, dtype=float)
    k, m_len = mask.n_observed, mask.total_len
    shared, rows = _per_row(params, y[..., 0].size)
    n_basis = shared.n_basis
    target = np.concatenate([y[..., :k], np.zeros_like(y[..., k:])], axis=-1)
    y = y[..., :k]
    forward = kernels.rfft_n_odd if n_basis % 2 else kernels.rfft_n_even
    spectrum = np.empty(y.shape[:-1] + (n_basis // 2 + 1,), dtype=complex)
    signal = np.empty(y.shape[:-1] + (n_basis,))
    c = forward(y, 1, out=np.empty_like(spectrum))
    d = np.zeros_like(c)
    l1_weight = np.where(np.arange(c.shape[-1]) < n_basis - n_basis // 2, 2.0, 1.0)
    l1_weight[0] = 1.0
    column = y.shape[:-1] + (1,)
    thresh = float_or_column([p.threshold_scale * p.lam / p.mu for p in rows], column)
    step = float_or_column([1.0 / (p.mu + p.p_norm) for p in rows], y.shape[:-1])
    lam = float_or_column([p.lam for p in rows], y.shape[:-1])
    cost = np.empty(y.shape[:-1] + (shared.n_iter if track_cost else 0,))
    for i in range(shared.n_iter):
        u = soft_threshold(c + d, thresh) - d
        kernels.irfft(u, 1.0, out=signal)
        d = forward(y - signal[..., :k], step, out=spectrum)
        c = d + u
        if track_cost:
            kernels.irfft(c, 1.0, out=signal)
            residual = target - signal[..., :m_len]
            cost[..., i] = np.sum(residual**2, axis=-1) + lam * np.sum(
                l1_weight * np.abs(c), axis=-1
            )
    return c, cost


def bits(a):
    """The array's bytes as int64, so that -0.0 and 0.0 differ and NaN equals itself."""
    return np.ascontiguousarray(a).view(np.int64)


class TestObservationMask:
    @pytest.mark.parametrize("n_observed", [0, 6])
    def test_observed_prefix_within_signal(self, n_observed):
        # at least one sample known: with none the solve would return all zeros
        message = "n_observed must be >= 1" if n_observed < 1 else "total_len must be >= 6, got 5"
        with pytest.raises(ValueError, match=message):
            ObservationMask.prefix(n_observed, 5)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from([(), (1,), (3,)]),
    m_len=st.integers(1, 30),
    extra_basis=st.integers(0, 20),
    mu=st.floats(0.05, 5.0),
    lam=st.floats(0.0, 5.0),
    n_iter=st.integers(1, 40),
    track_cost=st.booleans(),
)
def test_prefix_loop_matches_float_mask_loop(
    data, shape, m_len, extra_basis, mu, lam, n_iter, track_cost
):
    # the trailing samples hold nonzero values, which both loops must ignore
    masked = data.draw(arrays(np.float64, shape + (m_len,), elements=st.floats(-1e3, 1e3)))
    n_observed = data.draw(st.integers(1, m_len))
    params = SalsaParams(mu=mu, lam=lam, n_basis=m_len + extra_basis, n_iter=n_iter)
    mask = ObservationMask.prefix(n_observed, m_len)
    c, cost = complex_prefix_solve(masked, mask, params, track_cost)
    c_float, cost_float = float_mask_solve(masked, n_observed, params, track_cost)
    assert np.array_equal(c, c_float)
    assert np.array_equal(cost, cost_float)


@st.composite
def solve_inputs(draw):
    """(masked, mask, params) for a lone row or a stack of 1 or 3 rows,
    with one SalsaParams for every row or, on a stack, one per row."""
    rows = draw(st.sampled_from([None, 1, 3]))
    m_len = draw(st.integers(1, 30))
    # extra_basis 0 gives N == M, and its parity and m_len's give odd and even N
    n_basis = m_len + draw(st.integers(0, 21))
    n_iter = draw(st.integers(1, 40))
    shape = () if rows is None else (rows,)
    masked = draw(arrays(np.float64, shape + (m_len,), elements=st.floats(-1e3, 1e3)))
    mask = ObservationMask.prefix(draw(st.integers(1, m_len)), m_len)

    def draw_params():
        return SalsaParams(mu=draw(st.floats(0.05, 5.0)), lam=draw(st.floats(0.0, 5.0)),
                           n_basis=n_basis, n_iter=n_iter)

    per_row = rows is not None and draw(st.booleans())
    return masked, mask, [draw_params() for _ in range(rows)] if per_row else draw_params()


@settings(max_examples=150, deadline=None)
@given(inputs=solve_inputs(), track_cost=st.booleans())
def test_half_spectrum_solve_matches_complex_loop(inputs, track_cost):
    masked, mask, params = inputs
    state = salsa_solve(masked, mask, params, track_cost)
    c, cost = complex_prefix_solve(masked, mask, params, track_cost)
    shared = _per_row(params, masked[..., 0].size)[0]
    assert state.cost_history.shape == cost.shape == (
        masked.shape[:-1] + ((shared.n_iter,) if track_cost else (0,))
    )
    # rtol 1e-9, with a floor of 1e-9 times the row's squared observed data
    # norm, the cost of c = 0, for costs that a small lam lets fall near 0
    scale = np.sum(masked[..., : mask.n_observed] ** 2, axis=-1, keepdims=True)
    assert np.all(np.abs(state.cost_history - cost) <= 1e-9 * (np.abs(cost) + scale))
    # bins 0..N//2 of the complex loop's c, norm-relative 1e-9 per row, with
    # the observed data's norm as a floor
    c = c[..., : shared.n_basis // 2 + 1]
    assert state.c.shape == c.shape
    err = np.linalg.norm(state.c - c, axis=-1)
    ref = np.linalg.norm(c, axis=-1) + np.sqrt(scale[..., 0])
    assert np.all(err <= 1e-9 * ref)


# odd and even N, N == M, a stack of no rows, and per-row params passed as a
# generator, which the solve reads once; the forecast takes N from its state
@settings(max_examples=100, deadline=None)
@given(inputs=solve_inputs(), generator=st.booleans())
@example(inputs=(np.sin(np.arange(24.0)).reshape(2, 12), ObservationMask(9, 12),
                 SalsaParams(n_basis=17, n_iter=30)), generator=False)
@example(inputs=(80 + np.cos(np.arange(12.0)), ObservationMask(9, 12),
                 SalsaParams(n_basis=16, n_iter=30)), generator=False)
@example(inputs=(np.arange(12.0), ObservationMask(10, 12), SalsaParams(n_basis=12, n_iter=30)),
         generator=False)
@example(inputs=(np.zeros((0, 12)), ObservationMask(9, 12), SalsaParams(n_basis=16, n_iter=30)),
         generator=False)
@example(inputs=(np.sin(np.arange(36.0)).reshape(3, 12), ObservationMask(9, 12),
                 [SalsaParams(mu=mu, n_basis=19, n_iter=30) for mu in (0.1, 0.6, 2.0)]),
         generator=True)
def test_forecast_matches_full_spectrum_oracle(inputs, generator):
    masked, mask, params = inputs
    assume(mask.n_observed < mask.total_len)
    history, horizon = masked[..., : mask.n_observed], mask.total_len - mask.n_observed
    given_params = (p for p in params) if generator and isinstance(params, list) else params
    forecast = salsa_forecast(history, horizon, given_params)
    oracle = _full_spectrum_forecast(history, horizon, params)
    assert forecast.shape == oracle.shape == history.shape[:-1] + (horizon,)
    # norm-relative 1e-9 per row, with the observed data's norm as a floor
    err = np.linalg.norm(forecast - oracle, axis=-1)
    assert np.all(err <= 1e-9 * (np.linalg.norm(oracle, axis=-1) + np.linalg.norm(history, axis=-1)))


# the kernel's norm factor and numpy's complex-by-real product could differ
# only in the sign of a zero: all 0.0 and all -0.0 rows, and a constant stack
# with one params per row, whose transform is zero off bin 0
@settings(max_examples=150, deadline=None)
@given(inputs=solve_inputs(), track_cost=st.booleans())
@example(inputs=(np.zeros(12), ObservationMask(9, 12), SalsaParams(n_basis=16, n_iter=30)),
         track_cost=True)
@example(inputs=(np.full((1, 12), -0.0), ObservationMask(12, 12),
                 SalsaParams(lam=0.0, n_basis=17, n_iter=30)),
         track_cost=False)
@example(inputs=(np.full((3, 12), 2.5), ObservationMask(9, 12),
                 [SalsaParams(mu=mu, lam=lam, n_basis=20, n_iter=30)
                  for mu, lam in [(0.1, 0.0), (0.6, 1.0), (2.0, 5.0)]]),
         track_cost=True)
def test_kernel_solve_matches_np_fft_loop_bitwise(inputs, track_cost):
    masked, mask, params = inputs
    state = salsa_solve(masked, mask, params, track_cost)
    c, cost = _reference_rfft_solve(masked, mask, params, track_cost)
    assert np.array_equal(bits(state.c), bits(c))
    assert np.array_equal(bits(state.cost_history), bits(cost))


# the buffered loop runs soft_threshold's ufuncs on the same operands in the
# same order, so every path of the shrink keeps its bits: 0/0 of the
# exact-zero bins of a zero row at lam 0, and the divide's overflow on
# subnormal rows, at odd and even N, stacked with one params per row
@settings(max_examples=150, deadline=None)
@given(inputs=solve_inputs(), track_cost=st.booleans())
@example(inputs=(np.sin(np.arange(36.0)).reshape(3, 12), ObservationMask(9, 12),
                 [SalsaParams(mu=mu, n_basis=20, n_iter=30) for mu in (0.1, 0.6, 2.0)]),
         track_cost=True)
@example(inputs=(np.vstack([np.zeros(12), np.arange(12.0)]), ObservationMask(12, 12),
                 SalsaParams(lam=0.0, n_basis=17, n_iter=30)),
         track_cost=False)
@example(inputs=(np.vstack([np.full(12, 5e-324), np.arange(-6.0, 6.0) * 1e-310]),
                 ObservationMask(9, 12), SalsaParams(n_basis=17, n_iter=30)),
         track_cost=True)
@example(inputs=(np.arange(12.0) * -3e-320, ObservationMask(10, 12),
                 SalsaParams(lam=2.0, n_basis=16, n_iter=30)),
         track_cost=False)
# a threshold column with a 0-d step (rows share mu, not lam), a 0-d threshold
# with a step column (0.5 * lam / mu is 1.0 on both rows, mu differs), and a
# stack of no rows, whose columns have shape (0, 1) and (0,)
@example(inputs=(np.sin(np.arange(36.0)).reshape(3, 12), ObservationMask(9, 12),
                 [SalsaParams(mu=0.6, lam=lam, n_basis=20, n_iter=30) for lam in (0.0, 1.0, 3.0)]),
         track_cost=True)
@example(inputs=(np.cos(np.arange(24.0)).reshape(2, 12), ObservationMask(10, 12),
                 [SalsaParams(mu=mu, lam=lam, n_basis=17, n_iter=30)
                  for mu, lam in [(0.5, 1.0), (1.0, 2.0)]]),
         track_cost=True)
@example(inputs=(np.zeros((0, 12)), ObservationMask(9, 12), SalsaParams(n_basis=16, n_iter=30)),
         track_cost=True)
# rows whose inverse transform overflows, so the shrink's complex product
# makes 0 * inf: the scale held as s + 0j must give the cast's bits there too.
# The second stack observes one sample, since with more its first transform
# overflows before the loop's error state and the solve warns.
@example(inputs=(np.full((2, 12), 1e306), ObservationMask(12, 12),
                 SalsaParams(n_basis=16, n_iter=30)),
         track_cost=True)
@example(inputs=(np.full((2, 12), 1e306), ObservationMask(12, 12),
                 SalsaParams(n_basis=16, n_iter=30)),
         track_cost=False)
@example(inputs=(np.vstack([[1.7e308] * 12, np.arange(12) * 1e307]), ObservationMask(1, 12),
                 SalsaParams(lam=0.0, n_basis=17, n_iter=30)),
         track_cost=True)
@example(inputs=(np.vstack([[1.7e308] * 12, np.arange(12) * 1e307]), ObservationMask(1, 12),
                 SalsaParams(lam=0.0, n_basis=17, n_iter=30)),
         track_cost=False)
def test_buffered_loop_matches_allocating_loop_bitwise(inputs, track_cost):
    masked, mask, params = inputs
    state = salsa_solve(masked, mask, params, track_cost)
    # the reference's allocating steps warn of the overflows the loop ignores
    with np.errstate(over="ignore", invalid="ignore"):
        c, cost = _allocating_solve(masked, mask, params, track_cost)
    assert np.array_equal(bits(state.c), bits(c))
    assert np.array_equal(bits(state.cost_history), bits(cost))


def test_column_is_an_array_every_time():
    # the loop's operands are arrays: 0-d for a value every row shares
    shared = _column([0.25, 0.25, 0.25], (3, 1))
    assert isinstance(shared, np.ndarray) and shared.shape == () and shared == 0.25
    distinct = _column([0.25, 0.5, 1.0], (3, 1))
    assert distinct.shape == (3, 1)
    assert np.array_equal(distinct[:, 0], [0.25, 0.5, 1.0])
    assert _column([], (0, 1)).shape == (0, 1)


@pytest.mark.parametrize("n_basis", [1, 2, 7, 8, 199, 200])
def test_pocketfft_kernels_match_np_fft_bitwise(n_basis):
    # the calls salsa_solve makes, against the np.fft calls they replace
    kernels = sigcast.salsa._pocketfft
    forward = kernels.rfft_n_odd if n_basis % 2 else kernels.rfft_n_even
    rng = np.random.default_rng(n_basis)
    for shape in [(), (3,), (0,)]:
        for k in sorted({1, (n_basis + 1) // 2, n_basis}):
            # a strided view, as salsa_solve's observed prefix y[..., :k] is
            x = rng.normal(size=shape + (n_basis + 1,))[..., :k]
            spectrum = np.empty(shape + (n_basis // 2 + 1,), dtype=complex)
            assert forward(x, 1, out=spectrum) is spectrum
            assert np.array_equal(bits(spectrum), bits(np.fft.rfft(x, n=n_basis)))
        half = shape + (n_basis // 2 + 1,)
        u = rng.normal(size=half) + 1j * rng.normal(size=half)
        signal = np.empty(shape + (n_basis,))
        assert kernels.irfft(u, np.array(1.0), out=signal) is signal
        assert np.array_equal(bits(signal), bits(np.fft.irfft(u, n_basis, norm="forward")))


class TestSalsaSolve:
    @pytest.mark.parametrize("track_cost", [False, True])
    def test_zero_row_stack(self, track_cost):
        # run_experiment stacks no rows when no window is finite
        params = SalsaParams(n_basis=20, n_iter=5)
        mask = ObservationMask.prefix(9, 12)
        state = salsa_solve(np.zeros((0, 12)), mask, params, track_cost)
        c, cost = _reference_rfft_solve(np.zeros((0, 12)), mask, params, track_cost)
        assert state.c.shape == c.shape == (0, 11)
        assert state.cost_history.shape == cost.shape == (0, 5 if track_cost else 0)

    def test_state_names_its_basis_length(self):
        # N = 16 and N = 17 both keep bins 0..8; only n_basis tells them apart
        masked = np.sin(np.arange(12.0))
        mask = ObservationMask.prefix(9, 12)
        even, odd = (salsa_solve(masked, mask, SalsaParams(n_basis=n, n_iter=5)) for n in (16, 17))
        assert even.c.shape == odd.c.shape == (9,)
        assert (even.n_basis, odd.n_basis) == (16, 17)

    def test_zero_signal_fixed_point(self):
        params = SalsaParams(n_basis=64, n_iter=30)
        mask = ObservationMask.prefix(20, 25)
        state = salsa_solve(np.zeros(25), mask, params)
        assert np.all(state.c == 0)
        assert np.all(state.cost_history == 0)
        assert state.cost_history.size == 30

    def test_sparse_tone_reconstruction(self):
        # oracle: the generator coefficients themselves
        n = 200
        c_true = make_tone_coeffs(n, [(7, 1.0, 0.3), (19, 0.7, 1.1), (33, 0.5, 2.0)])
        signal = np.real(synthesize(c_true, n))
        params = SalsaParams(mu=0.6, lam=0.01, n_basis=n, n_iter=5000)
        state = salsa_solve(signal.astype(complex), ObservationMask.prefix(n, n), params)
        recon = np.real(synthesize(hermitian(state.c, n), n))
        rel = np.linalg.norm(recon - signal) / np.linalg.norm(signal)
        assert rel < 0.05

    def test_cost_endpoint_decreases_on_random_input(self):
        rng = np.random.default_rng(11)
        params = SalsaParams()  # mu=0.6, lam=1, N=200, 1000 iterations
        for _ in range(3):
            hist = rng.normal(size=91)
            masked = np.concatenate([hist, np.zeros(10)])
            state = salsa_solve(masked, ObservationMask.prefix(91, 101), params)
            assert state.cost_history[-1] <= state.cost_history[0]
            assert np.all(np.isfinite(state.cost_history))
            assert np.all(state.cost_history >= 0)

    def test_rejects_nonfinite(self):
        params = SalsaParams(n_basis=32)
        mask = ObservationMask.prefix(5, 10)
        bad = np.zeros(10)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            salsa_solve(bad, mask, params)

    def test_rejects_signal_longer_than_basis(self):
        params = SalsaParams(n_basis=8)
        with pytest.raises(ValueError):
            salsa_solve(np.zeros(9), ObservationMask.prefix(9, 9), params)

    def test_rejects_complex_input(self):
        masked = np.zeros(10, dtype=complex)
        masked[7] = 1e-300j  # even a tiny imaginary part, in an unobserved sample
        with pytest.raises(ValueError, match="masked signal must be real"):
            salsa_solve(masked, ObservationMask.prefix(5, 10), SalsaParams(n_basis=32))

    def test_loop_never_calls_soft_threshold(self, monkeypatch):
        # the loop shrinks in its own buffers; soft_threshold is for callers
        def refuse(x, threshold):
            raise AssertionError("salsa_solve called soft_threshold")

        monkeypatch.setattr(sigcast.salsa, "soft_threshold", refuse)
        history = np.random.default_rng(6).normal(size=(3, 40))
        salsa_forecast(history, 5, SalsaParams(n_basis=64, n_iter=7), track_cost=True)
        salsa_forecast(history, 5, [SalsaParams(mu=mu, n_basis=64, n_iter=7)
                                    for mu in (0.3, 0.6, 1.2)])

    @pytest.mark.parametrize("track_cost", [False, True])
    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -2e-310])
    def test_shrink_paths_are_silent_and_error_state_restored(self, value, track_cost):
        # zero rows divide 0/0 at lam 0 and T/0 otherwise; subnormal rows overflow
        mask = ObservationMask.prefix(9, 12)
        masked = np.full((2, 12), value)
        params = [SalsaParams(lam=lam, n_basis=16, n_iter=20) for lam in (0.0, 1.0)]
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            salsa_solve(masked, mask, params, track_cost)
            salsa_solve(masked[0], mask, params[1], track_cost)
        assert np.geterr() == before
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            raised = np.geterr()
            salsa_solve(masked, mask, params, track_cost)
            assert np.geterr() == raised
        assert np.geterr() == before

    def test_error_state_restored_after_input_error(self):
        before = np.geterr()
        with pytest.raises(ValueError, match="must have M = 12"):
            salsa_solve(np.zeros(11), ObservationMask.prefix(9, 12), SalsaParams(n_basis=16))
        assert np.geterr() == before

    def test_track_cost_off_gives_same_iterates(self):
        params = SalsaParams(n_basis=64, n_iter=40)
        mask = ObservationMask.prefix(20, 24)
        rng = np.random.default_rng(8)
        masked = np.concatenate([rng.normal(size=20), np.zeros(4)])
        full = salsa_solve(masked, mask, params, track_cost=True)
        bare = salsa_solve(masked, mask, params, track_cost=False)
        assert np.array_equal(full.c, bare.c)
        assert bare.cost_history.size == 0


class TestSalsaForecast:
    def test_zero_history(self):
        fc = salsa_forecast(np.zeros(91), 10, SalsaParams(n_iter=25))
        assert np.array_equal(fc, np.zeros(10))

    def test_on_grid_tone_continuation(self):
        # oracle: analytic continuation of the tone
        n, k_obs, h = 200, 91, 10
        c_true = make_tone_coeffs(n, [(8, 1.0, 0.7)])  # period 25 divides N
        full = np.real(synthesize(c_true, k_obs + h))
        params = SalsaParams(mu=0.6, lam=0.01, n_basis=n, n_iter=5000)
        fc = salsa_forecast(full[:k_obs], h, params)
        rel = np.linalg.norm(fc - full[k_obs:]) / np.linalg.norm(full[k_obs:])
        assert rel < 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        hist = rng.normal(80.0, 1.0, 91)
        params = SalsaParams(n_iter=200)
        a = salsa_forecast(hist, 7, params)
        b = salsa_forecast(hist.copy(), 7, params)
        assert np.array_equal(a, b)

    def test_rejects_complex_history(self):
        history = np.zeros(20, dtype=complex)
        history[3] = 1j
        with pytest.raises(ValueError, match="must be real"):
            salsa_forecast(history, 5, SalsaParams(n_basis=32, n_iter=3))

    def test_window_plus_horizon_must_fit_basis(self):
        with pytest.raises(ValueError):
            salsa_forecast(np.zeros(195), 10, SalsaParams(n_basis=200))

    def test_real_input_leaves_tiny_imaginary_part(self):
        n, k_obs, h = 200, 91, 10
        c_true = make_tone_coeffs(n, [(8, 1.0, 0.7)])
        full = np.real(synthesize(c_true, k_obs + h))
        params = SalsaParams(mu=0.6, lam=0.01, n_basis=n, n_iter=2000)
        masked = np.concatenate([full[:k_obs], np.zeros(h)])
        state = salsa_solve(masked, ObservationMask.prefix(k_obs, k_obs + h), params)
        synth = synthesize(hermitian(state.c, n), k_obs + h)
        assert np.max(np.abs(synth.imag)) < 1e-6 * np.linalg.norm(full[:k_obs])


class TestSalsaParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0},
            {"lam": -1.0},
            {"n_basis": 0},
            {"n_iter": 0},
            # NaN fails every comparison, so each bound is written to refuse it
            {"lam": float("nan")},
            # an infinite penalty or weight drives every coefficient to 0
            pytest.param({"mu": float("inf")}, id="mu_inf"),
            pytest.param({"lam": float("inf")}, id="lambda_inf"),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            SalsaParams(**kwargs)

    def test_only_four_knobs(self):
        assert list(inspect.signature(SalsaParams).parameters) == ["mu", "lam", "n_basis", "n_iter"]

    @pytest.mark.parametrize("name", ["threshold_scale", "p_norm", "cost_tol"])
    def test_fixed_fields_are_not_arguments(self, name):
        with pytest.raises(TypeError, match=name):
            SalsaParams(**{name: 1.0})

    def test_p_norm_defaults_to_n_basis(self):
        assert SalsaParams(n_basis=123).p_norm == 123.0
        assert dataclasses.replace(SalsaParams(), n_basis=300).p_norm == 300.0

    def test_record_keeps_seven_keys(self):
        # `sigcast forecast` prints this dict into forecast_params.json
        assert list(dataclasses.asdict(SalsaParams(n_basis=123)).items()) == [
            ("mu", 0.6), ("lam", 1.0), ("n_basis", 123), ("n_iter", 1000),
            ("threshold_scale", 0.5), ("p_norm", 123.0), ("cost_tol", None),
        ]

    def test_shipped_defaults(self):
        p = SalsaParams()
        assert (p.mu, p.lam, p.n_basis, p.n_iter, p.threshold_scale) == (0.6, 1.0, 200, 1000, 0.5)
        assert p.p_norm == 200.0
