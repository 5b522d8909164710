import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigcast.salsa import (
    ObservationMask,
    SalsaParams,
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
    track_cost = track_cost or params.cost_tol is not None
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
            if (
                params.cost_tol is not None
                and i > 0
                and np.all(
                    np.abs(cost[..., i] - cost[..., i - 1])
                    <= params.cost_tol * np.abs(cost[..., i - 1])
                )
            ):
                cost = cost[..., : i + 1]
                break
    return c, cost


class TestObservationMask:
    @pytest.mark.parametrize("n_observed", [0, 6])
    def test_observed_prefix_within_signal(self, n_observed):
        # at least one sample known: with none the solve would return all zeros
        with pytest.raises(ValueError, match="n_observed must lie in"):
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
    cost_tol=st.sampled_from([None, 1e-3]),
    track_cost=st.booleans(),
)
def test_prefix_loop_matches_float_mask_loop(
    data, shape, m_len, extra_basis, mu, lam, n_iter, cost_tol, track_cost
):
    # the trailing samples hold nonzero values, which both loops must ignore
    masked = data.draw(arrays(np.float64, shape + (m_len,), elements=st.floats(-1e3, 1e3)))
    n_observed = data.draw(st.integers(1, m_len))
    params = SalsaParams(mu=mu, lam=lam, n_basis=m_len + extra_basis, n_iter=n_iter,
                         cost_tol=cost_tol)
    state = salsa_solve(masked, ObservationMask.prefix(n_observed, m_len), params, track_cost)
    c, cost = float_mask_solve(masked, n_observed, params, track_cost)
    assert np.array_equal(state.c, c)
    assert np.array_equal(state.cost_history, cost)


class TestSalsaSolve:
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
        recon = np.real(synthesize(state.c, n))
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

    def test_cost_tol_early_stop(self):
        params = SalsaParams(n_basis=64, n_iter=500, cost_tol=1e-3)
        mask = ObservationMask.prefix(20, 24)
        rng = np.random.default_rng(2)
        masked = np.concatenate([rng.normal(size=20), np.zeros(4)])
        state = salsa_solve(masked, mask, params)
        assert state.cost_history.size < 500

    def test_cost_tol_stops_early_without_track_cost(self):
        params = SalsaParams(n_basis=64, n_iter=500, cost_tol=1e-3)
        mask = ObservationMask.prefix(20, 24)
        rng = np.random.default_rng(2)
        masked = np.concatenate([rng.normal(size=20), np.zeros(4)])
        state = salsa_solve(masked, mask, params, track_cost=False)
        assert 0 < state.cost_history.size < 500
        assert np.array_equal(state.c, salsa_solve(masked, mask, params).c)

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
        synth = synthesize(state.c, k_obs + h)
        assert np.max(np.abs(synth.imag)) < 1e-6 * np.linalg.norm(full[:k_obs])


class TestSalsaParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu": 0.0},
            {"lam": -1.0},
            {"n_basis": 0},
            {"n_iter": 0},
            {"threshold_scale": 0.0},
            {"p_norm": -5.0},
            {"cost_tol": -1e-3},
            # NaN fails every comparison, so each bound is written to refuse it
            {"lam": float("nan")},
            {"cost_tol": float("nan")},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            SalsaParams(**kwargs)

    def test_p_norm_defaults_to_n_basis(self):
        assert SalsaParams(n_basis=123).p_norm == 123.0

    def test_shipped_defaults(self):
        p = SalsaParams()
        assert (p.mu, p.lam, p.n_basis, p.n_iter, p.threshold_scale) == (0.6, 1.0, 200, 1000, 0.5)
        assert p.p_norm == 200.0
