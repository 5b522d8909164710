import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigcast.causal import (
    CausalParams,
    _operator,
    causal_fit,
    causal_forecast,
    gram_matrix,
    moving_average,
    qstar,
    regularized_solve,
    sinc,
    synthesize_causal,
)
from sigcast.series import Window

SMALL = CausalParams(n_harmonics=6)  # 13 coefficients, keeps brute force cheap


def _reference_causal_forecast(history, horizon, params=CausalParams(), presmoothed=None):
    """The causal pipeline one window at a time: moving average, window-mean
    centring, projection and regularized solve (causal_fit), synthesis past
    the window and tail-mean re-centring."""
    sm = moving_average(history, params.ma_width) if presmoothed is None else presmoothed
    fit = causal_fit(sm, params, t_start=1)
    k = params.window_len
    return synthesize_causal(fit, np.arange(k + 1, k + horizon + 1), params) + fit.tail_mean


def qstar_bruteforce(z, params, t_start):
    """Direct double-loop evaluation of the projection."""
    n = params.n_harmonics
    out = np.zeros(2 * n + 1)
    for ki, k in enumerate(range(-n, n + 1)):
        acc = 0.0
        for ti, zt in enumerate(z):
            t = t_start + ti
            acc += math.sin(k * math.pi + params.omega * t) / (k * math.pi + params.omega * t) * zt \
                if (k * math.pi + params.omega * t) != 0 else zt
        out[ki] = (params.omega / math.pi) * acc
    return out


def gram_bruteforce(window, params):
    n = params.n_harmonics
    size = 2 * n + 1
    out = np.zeros((size, size))
    ts = range(window.q, window.s + 1)
    for ki, k in enumerate(range(-n, n + 1)):
        for mi, m in enumerate(range(-n, n + 1)):
            acc = 0.0
            for t in ts:
                acc += float(sinc(k * math.pi + params.omega * t)) * float(
                    sinc(m * math.pi + params.omega * t)
                )
            out[ki, mi] = (params.omega / math.pi) ** 2 * acc
    return out


class TestSinc:
    def test_zero(self):
        assert sinc(0.0) == 1.0

    def test_pi(self):
        assert abs(sinc(math.pi)) < 1e-15

    def test_half_pi(self):
        assert sinc(math.pi / 2) == pytest.approx(2 / math.pi, rel=1e-14)

    def test_array(self):
        out = sinc(np.array([0.0, math.pi]))
        assert out[0] == 1.0 and abs(out[1]) < 1e-15


class TestMovingAverage:
    def test_constant_unchanged(self):
        z = np.full(10, 3.5)
        assert np.array_equal(moving_average(z, 5), z)

    def test_impulse_center(self):
        out = moving_average([0.0, 0, 0, 5, 0, 0, 0], 5)
        assert out[3] == 1.0

    def test_interior_matches_direct_mean(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=40)
        out = moving_average(z, 5)
        for i in range(2, 38):
            assert out[i] == pytest.approx(np.mean(z[i - 2 : i + 3]), rel=1e-14)

    def test_edges_use_truncated_window(self):
        z = np.arange(8.0)
        out = moving_average(z, 5)
        assert out[0] == pytest.approx(np.mean(z[:3]))
        assert out[1] == pytest.approx(np.mean(z[:4]))
        assert out[-1] == pytest.approx(np.mean(z[-3:]))

    def test_even_width_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.zeros(10), 4)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            moving_average(np.zeros(3), 5)


class TestQstar:
    def test_zero_window(self):
        out = qstar(np.zeros(20), SMALL, t_start=1)
        assert np.array_equal(out, np.zeros(13))

    def test_single_sample_at_origin_picks_k0(self):
        out = qstar([1.0], SMALL, t_start=0)
        expect = np.zeros(13)
        expect[6] = SMALL.omega / math.pi  # sinc(k*pi) = delta_k0
        assert np.allclose(out, expect, atol=1e-15)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=13)
        got = qstar(z, SMALL, t_start=1)
        want = qstar_bruteforce(z, SMALL, t_start=1)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_full_size_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        params = CausalParams()
        z = rng.normal(size=91)
        got = qstar(z, params, t_start=1)
        want = qstar_bruteforce(z, params, t_start=1)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-12)


class TestGramMatrix:
    def test_bitwise_symmetric(self):
        gram = gram_matrix(Window(1, 91), CausalParams())
        assert np.array_equal(gram, gram.T)

    def test_single_sample_rank_one(self):
        gram = gram_matrix(Window(0, 0), SMALL)
        expect = np.zeros((13, 13))
        expect[6, 6] = (SMALL.omega / math.pi) ** 2
        assert np.allclose(gram, expect, atol=1e-15)

    def test_matches_bruteforce(self):
        win = Window(1, 13)
        got = gram_matrix(win, SMALL)
        want = gram_bruteforce(win, SMALL)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-13)

    def test_psd_random_windows(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = int(rng.integers(-50, 50))
            length = int(rng.integers(1, 40))
            gram = gram_matrix(Window(q, q + length - 1), SMALL)
            assert np.linalg.eigvalsh(gram).min() >= -1e-10

    def test_cache_returns_consistent_values(self):
        # gram_matrix has no cache of its own; this checks that two builds
        # of the same window give the same bits.
        a = gram_matrix(Window(1, 20), SMALL)
        b = gram_matrix(Window(1, 20), SMALL)
        assert np.array_equal(a, b)


class TestRegularizedSolve:
    def test_zero_matrix(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(regularized_solve(np.zeros((3, 3)), 1.0, b), b)

    def test_identity_matrix(self):
        b = np.full(4, 2.0)
        got = regularized_solve(np.eye(4), 1.0, b)
        assert np.allclose(got, np.ones(4))

    def test_matches_independent_solver(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 30))
        gram = a.T @ a  # SPD-ish
        b = rng.normal(size=30)
        got = regularized_solve(gram, 0.1, b)
        want, *_ = np.linalg.lstsq(gram + 0.1 * np.eye(30), b, rcond=None)  # SVD route
        assert np.allclose(got, want, rtol=1e-8, atol=1e-10)

    def test_residual_bound(self):
        gram = gram_matrix(Window(1, 91), CausalParams())
        rng = np.random.default_rng(5)
        b = rng.normal(size=91)
        y = regularized_solve(gram, 0.1, b)
        resid = np.linalg.norm((gram + 0.1 * np.eye(91)) @ y - b)
        assert resid < 1e-8 * np.linalg.norm(b)

    def test_nonfinite_rejected(self):
        gram = np.eye(2)
        with pytest.raises(ValueError):
            regularized_solve(gram, 1.0, np.array([np.nan, 0.0]))

    def test_never_fails_on_real_window_grams(self):
        # nu >= 0.1 bounds the condition number for any window geometry
        rng = np.random.default_rng(10)
        params = CausalParams()
        for _ in range(10):
            q = int(rng.integers(-200, 200))
            length = int(rng.integers(1, 92))
            gram = gram_matrix(Window(q, q + length - 1), params)
            b = rng.normal(size=gram.shape[0])
            y = regularized_solve(gram, 0.1, b)
            assert np.all(np.isfinite(y))


class TestSynthesizeCausal:
    def test_zero_coeffs(self):
        fit = causal_fit(np.zeros(13), SMALL)
        out = synthesize_causal(fit, range(1, 5), SMALL)
        assert np.allclose(out, 0.0)

    def test_single_harmonic(self):
        from sigcast.causal import CausalCoefficients

        y = np.zeros(13)
        y[6] = 1.0  # k = 0
        coeffs = CausalCoefficients(y=y, window_mean=0.0, tail_mean=0.0)
        ts = np.array([0.0, 1.0, 2.0])
        got = synthesize_causal(coeffs, ts, SMALL)
        want = (SMALL.omega / math.pi) * sinc(SMALL.omega * ts)
        assert np.allclose(got, want, rtol=1e-14)

    def test_matches_direct_sum(self):
        from sigcast.causal import CausalCoefficients

        rng = np.random.default_rng(6)
        y = rng.normal(size=13)
        coeffs = CausalCoefficients(y=y, window_mean=0.0, tail_mean=0.0)
        ts = [2, 5, 9]
        got = synthesize_causal(coeffs, ts, SMALL)
        for out, t in zip(got, ts):
            direct = sum(
                y[ki] * (SMALL.omega / math.pi) * float(sinc(k * math.pi + SMALL.omega * t))
                for ki, k in enumerate(range(-6, 7))
            )
            assert out == pytest.approx(direct, rel=1e-12)


class TestCausalForecast:
    def test_constant_history_returns_level_exactly(self):
        fc = causal_forecast(np.full(91, 7.25), 5)
        assert np.array_equal(fc, np.full(5, 7.25))

    def test_constant_history_general_level(self):
        fc = causal_forecast(np.full(91, 23.1), 3)
        assert np.allclose(fc, 23.1, rtol=1e-12)

    def test_wrong_history_length(self):
        with pytest.raises(ValueError, match="91"):
            causal_forecast(np.zeros(90), 2)

    def test_level_equivariance(self):
        rng = np.random.default_rng(7)
        hist = rng.normal(20.0, 3.0, 91)
        base = causal_forecast(hist, 4)
        for shift in (-5.0, 0.125, 100.0):
            shifted = causal_forecast(hist + shift, 4)
            assert np.max(np.abs(shifted - base - shift)) < 1e-9

    def test_in_band_sinusoid_characterization(self):
        """Behavior on sin(0.1 t), t = 1..91: the shrinkage follows theory.

        Over all integers the Gram matrix is (omega/pi) * I, so the Tikhonov
        term leaves the relative error nu/(nu + omega/pi) on the centred,
        smoothed window: 0.2857 at the default nu = 0.1 (measured 0.28588)
        and 0.0385 at nu = 0.01 (measured 0.03877). Tracking the factor to
        1% at both shows the sinc basis spans the band and the error is the
        regularizer's alone. Against the raw history the error at nu = 0.01
        is 0.0498, the rest being the moving-average smoothing.
        """
        t = np.arange(1, 92, dtype=float)
        hist = np.sin(0.1 * t)
        smoothed = moving_average(hist, 5)

        for params in (CausalParams(), CausalParams(nu=0.01)):
            fit = causal_fit(smoothed, params)
            recon = synthesize_causal(fit, range(1, 92), params)
            centred = smoothed - fit.window_mean
            rel = np.linalg.norm(recon - centred) / np.linalg.norm(centred)
            factor = params.nu / (params.nu + params.omega / np.pi)
            assert rel == pytest.approx(factor, rel=0.01)

    def test_in_band_sinusoid_forecast_tracks_level(self):
        """Adding a level c to the history adds exactly c to the forecast.

        Centring at the window mean and re-centring at the tail mean make
        the two-step forecast of sin(0.1 t), t = 1..91, follow the level up
        to rounding (measured at most 1.4e-12 at c = 1000). Its error against
        the analytic continuation is pinned by acceptance criterion 5c.
        """
        t = np.arange(1, 92, dtype=float)
        hist = np.sin(0.1 * t)
        base = causal_forecast(hist, 2)
        for c in (-3.5, 80.0, 1000.0):
            shift = causal_forecast(hist + c, 2) - base
            assert np.max(np.abs(shift - c)) <= 1e-12 * (1 + abs(c))

    def test_operator_passes_level_through(self):
        # W 1 = 1: the fit term sees no level, and the tail mean carries it
        w = _operator(CausalParams(nu=1e-3), 5)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
        assert not w.flags.writeable

    def test_presmoothed_window_skips_internal_smoothing(self):
        rng = np.random.default_rng(8)
        hist = rng.normal(size=91)
        sm = moving_average(hist, 5)
        via_arg = causal_forecast(hist, 3, presmoothed=sm)
        direct = causal_forecast(hist, 3)
        assert np.array_equal(via_arg, direct)

        other = moving_average(np.concatenate([hist, [50.0] * 4]), 5)[:91]
        assert not np.array_equal(causal_forecast(hist, 3, presmoothed=other), direct)


class TestCausalParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega": 0.0},
            {"omega": 4.0},
            {"nu": 0.0},
            {"n_harmonics": 0},
            {"ma_width": 4},
            {"ma_width": -1},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            CausalParams(**kwargs)

    def test_code_defaults(self):
        p = CausalParams()
        assert p.omega == pytest.approx(math.pi / 4)
        assert p.nu == 0.1
        assert p.n_harmonics == 45
        assert p.ma_width == 5
        assert p.window_len == 91


@given(
    shift=st.floats(-50, 50, allow_nan=False),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_level_equivariance_property(shift, seed):
    rng = np.random.default_rng(seed)
    hist = rng.normal(0.0, 2.0, 91)
    base = causal_forecast(hist, 3)
    shifted = causal_forecast(hist + shift, 3)
    assert np.max(np.abs(shifted - base - shift)) < 1e-9


@st.composite
def causal_cases(draw):
    n_harmonics = draw(st.integers(1, 45))
    params = CausalParams(
        omega=draw(st.floats(1e-3, math.pi)),
        nu=draw(st.floats(1e-3, 10.0)),
        n_harmonics=n_harmonics,
        ma_width=draw(st.sampled_from([w for w in (1, 3, 5, 7, 9) if w <= 2 * n_harmonics + 1])),
    )
    shape = (draw(st.integers(1, 5)), params.window_len)
    values = st.floats(-1e3, 1e3, allow_nan=False)
    history = draw(arrays(np.float64, shape, elements=values))
    presmoothed = draw(st.none() | arrays(np.float64, shape, elements=values))
    return params, draw(st.integers(1, 10)), history, presmoothed


@given(case=causal_cases())
@example(
    case=(
        CausalParams(omega=1.0, nu=1.0, n_harmonics=1, ma_width=3),
        1,
        np.array([[2.2e-309, 0.0, 0.0]]),
        None,
    )
)
@settings(max_examples=60, deadline=None)
def test_operator_matches_per_window_pipeline(case):
    """The cached operator forecasts what the per-window pipeline does.

    Both apply the same linear map to the smoothed window s, in a different
    order: the pipeline solves (R + nu*I) y = b for each window, the operator
    solved it once for every column. A backward-stable solve is accurate to
    about kappa * eps relative, kappa the condition number of R + nu*I (at
    most 1 + (omega/pi)/nu <= 1001 here, since R <= (omega/pi) I), and the
    K-term sums add up to K * eps. So the forecasts must agree to
    K * eps * (|mean(s)| + kappa * ||s - mean(s)||), kept with a factor 4
    margin (the worst of 3,000 random rows reached 0.31 of the bound).
    Below the normal range rounding is absolute, not relative, so the bound
    has a floor of K * kappa subnormal steps: the pinned subnormal history
    gives forecasts one step (5e-324) apart with a relative bound of 0.
    """
    params, horizon, history, presmoothed = case
    got = causal_forecast(history, horizon, params, presmoothed)
    k = params.window_len
    kappa = np.linalg.cond(gram_matrix(Window(1, k), params) + params.nu * np.eye(k))
    smoothed = moving_average(history, params.ma_width) if presmoothed is None else presmoothed
    for i, row in enumerate(history):
        pre = None if presmoothed is None else presmoothed[i]
        want = _reference_causal_forecast(row, horizon, params, pre)
        mean = np.mean(smoothed[i])
        scale = abs(mean) + kappa * np.linalg.norm(smoothed[i] - mean)
        tiny = np.finfo(float).smallest_subnormal
        bound = max(4 * k * np.finfo(float).eps * scale, k * kappa * tiny)
        assert np.max(np.abs(got[i] - want)) <= bound
