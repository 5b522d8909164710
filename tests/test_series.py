import math
import re
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigcast.baselines import LinearParams, linear_forecast
from sigcast.causal import CausalParams, causal_forecast, moving_average, regularized_solve
from sigcast.cli import cmd_experiment, cmd_forecast, cmd_sweep
from sigcast.harness import ExperimentConfig
from sigcast.ingest import CsvSpec, read_csv_column
from sigcast.montecarlo import SimParams, SweepGrid, run_sweep
from sigcast.salsa import (
    ObservationMask,
    SalsaParams,
    adjoint,
    salsa_forecast,
    salsa_solve,
    synthesize,
)
from sigcast.series import (
    TimeSeries,
    Window,
    l2_residual,
    rolling_windows,
    summary_stats,
)

GOLDEN_PLOT = Path(__file__).parent / "data" / "golden_plot.csv"


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(values=np.array([]))

    def test_rejects_stack(self):
        # the forecasters take a (B, K) stack; a series is one row
        with pytest.raises(ValueError, match=r"values must be 1-D, got shape \(2, 3\)"):
            TimeSeries(values=np.zeros((2, 3)))

    def test_values_read_only(self):
        ts = TimeSeries(values=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0


class TestWindow:
    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Window(5, 4)


class TestSummaryStats:
    def test_constant_series(self):
        st_ = summary_stats([1.0, 1.0, 1.0, 1.0])
        assert (st_.min, st_.max, st_.mean, st_.std, st_.range) == (1, 1, 1, 0, 0)

    def test_two_point(self):
        st_ = summary_stats([0.0, 2.0])
        assert st_.mean == 1.0
        assert st_.range == 2.0
        assert st_.std == pytest.approx(math.sqrt(2.0), rel=1e-15)  # n-1 convention

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            summary_stats([])

    def test_single_sample_std_zero(self):
        assert summary_stats([5.0]).std == 0.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_range_is_exactly_max_minus_min(self, vals):
        st_ = summary_stats(vals)
        assert st_.range == st_.max - st_.min
        # mean can land an ulp outside [min, max] in float arithmetic
        tol = 1e-12 * max(1.0, abs(st_.mean))
        assert st_.min - tol <= st_.mean <= st_.max + tol


class TestL2Residual:
    def test_identical_is_zero(self):
        rep = l2_residual([3.0, -1.0, 2.0], [3.0, -1.0, 2.0])
        assert rep.total_l2 == 0.0 and rep.per_point == 0.0

    def test_worked_example(self):
        rep = l2_residual([1.0, 2.0], [0.0, 0.0])
        assert rep.total_l2 == 5.0
        assert rep.per_point == 2.5
        assert rep.n_points == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            l2_residual([1.0], [1.0, 2.0])

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty input"):
            l2_residual([], [])

    # values rounded so distinct entries differ by >= 1e-6 and their squared
    # differences cannot underflow to zero
    @given(
        st.lists(st.floats(-1e3, 1e3).map(lambda x: round(x, 6)), min_size=1, max_size=20),
        st.lists(st.floats(-1e3, 1e3).map(lambda x: round(x, 6)), min_size=1, max_size=20),
    )
    def test_symmetric_and_zero_iff_equal(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        fwd = l2_residual(a, b)
        rev = l2_residual(b, a)
        assert fwd.total_l2 == rev.total_l2
        assert (fwd.total_l2 == 0.0) == (a == b)

    def test_per_point_consistency(self):
        rep = l2_residual([1.0, 2.0, 4.0], [0.5, 1.0, 0.0])
        assert rep.per_point * rep.n_points == pytest.approx(rep.total_l2, rel=1e-12)


def _count_oracle(n, window_len, horizon, stride):
    """Enumerate start offsets directly."""
    count = 0
    q = 0
    while q + window_len + horizon <= n:
        count += 1
        q += stride
    return count


class TestRollingWindows:
    def test_single_window(self):
        ts = TimeSeries(values=np.arange(101.0))
        starts = rolling_windows(ts, 91, 10, 10)
        assert starts.dtype.kind == "i"
        assert starts.tolist() == [0]

    def test_count_matches_enumeration_1001(self):
        ts = TimeSeries(values=np.zeros(1001))
        assert len(rolling_windows(ts, 91, 10, 10)) == _count_oracle(1001, 91, 10, 10) == 91

    def test_count_matches_enumeration_345(self):
        ts = TimeSeries(values=np.zeros(345))
        assert len(rolling_windows(ts, 91, 2, 2)) == _count_oracle(345, 91, 2, 2) == 127

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            rolling_windows(TimeSeries(values=np.zeros(50)), 91, 10, 10)

    @given(
        n=st.integers(2, 300),
        window_len=st.integers(1, 120),
        horizon=st.integers(1, 20),
        stride=st.integers(1, 25),
    )
    @settings(max_examples=150)
    def test_windows_stay_inside_series(self, n, window_len, horizon, stride):
        ts = TimeSeries(values=np.arange(float(n)))
        if window_len + horizon > n:
            with pytest.raises(ValueError):
                rolling_windows(ts, window_len, horizon, stride)
            return
        starts = rolling_windows(ts, window_len, horizon, stride)
        assert len(starts) == _count_oracle(n, window_len, horizon, stride)
        assert len(starts) == (n - window_len - horizon) // stride + 1
        assert starts[0] == 0 and np.all(np.diff(starts) == stride)
        # the history [q, q + window_len - 1] and the truth after it fit inside
        assert starts[-1] + window_len + horizon <= n


def _grid(**kwargs):
    return SweepGrid(**{"mu_values": (0.6,), "n_basis_values": (64,), "horizon": 2, "window": 20,
                        **kwargs})


# (field, low, call, valid): call(value) reaches the field's count check; `valid` is a
# value the site accepts, or None for a command option, which argparse makes an int
COUNT_SITES = [
    pytest.param("n_basis", 1, lambda v: SalsaParams(n_basis=v), 64, id="SalsaParams.n_basis"),
    pytest.param("n_iter", 1, lambda v: SalsaParams(n_iter=v), 5, id="SalsaParams.n_iter"),
    pytest.param("horizon", 1,
                 lambda v: salsa_forecast(np.ones(8), v, SalsaParams(n_basis=16, n_iter=5)), 2,
                 id="salsa_forecast.horizon"),
    pytest.param("n_observed", 1, lambda v: ObservationMask(v, 4), 2,
                 id="ObservationMask.n_observed"),
    pytest.param("total_len", 1, lambda v: ObservationMask(1, v), 4,
                 id="ObservationMask.total_len"),
    pytest.param("out_len", 1, lambda v: synthesize(np.ones(8), v), 4, id="synthesize.out_len"),
    pytest.param("n_basis", 1, lambda v: adjoint(np.ones(4), v), 8, id="adjoint.n_basis"),
    pytest.param("n_harmonics", 1, lambda v: CausalParams(n_harmonics=v), 3,
                 id="CausalParams.n_harmonics"),
    pytest.param("ma_width", 1, lambda v: CausalParams(ma_width=v), 3,
                 id="CausalParams.ma_width"),
    pytest.param("width", 1, lambda v: moving_average(np.ones(9), v), 3,
                 id="moving_average.width"),
    pytest.param("horizon", 1,
                 lambda v: causal_forecast(np.ones(7), v, CausalParams(n_harmonics=3)), 2,
                 id="causal_forecast.horizon"),
    pytest.param("lookback", 1, lambda v: LinearParams(lookback=v, variant="two_point_span"),
                 2, id="LinearParams.lookback"),
    pytest.param("horizon", 1, lambda v: linear_forecast(np.arange(5.0), v), 2,
                 id="linear_forecast.horizon"),
    pytest.param("horizon", 1, lambda v: ExperimentConfig(horizon=v, methods=("linear",)), 2,
                 id="ExperimentConfig.horizon"),
    pytest.param("window_len", 1,
                 lambda v: ExperimentConfig(horizon=2, window_len=v, methods=("linear",)), 10,
                 id="ExperimentConfig.window_len"),
    pytest.param("stride", 1,
                 lambda v: ExperimentConfig(horizon=2, stride=v, methods=("linear",)), 2,
                 id="ExperimentConfig.stride"),
    pytest.param("window_len", 1, lambda v: rolling_windows(TimeSeries(np.zeros(20)), v, 2), 10,
                 id="rolling_windows.window_len"),
    pytest.param("horizon", 1, lambda v: rolling_windows(TimeSeries(np.zeros(20)), 10, v), 2,
                 id="rolling_windows.horizon"),
    pytest.param("stride", 1, lambda v: rolling_windows(TimeSeries(np.zeros(20)), 10, 2, v), 3,
                 id="rolling_windows.stride"),
    pytest.param("length", 2, lambda v: SimParams(length=v), 2, id="SimParams.length"),
    pytest.param("seed", 0, lambda v: SimParams(length=10, seed=v), 0, id="SimParams.seed"),
    pytest.param("trials", 1, lambda v: _grid(trials=v), 2, id="SweepGrid.trials"),
    pytest.param("horizon", 1, lambda v: _grid(horizon=v), 2, id="SweepGrid.horizon"),
    pytest.param("window", 1, lambda v: _grid(window=v), 20, id="SweepGrid.window"),
    pytest.param("n_basis", 1, lambda v: _grid(n_basis_values=(64, v)), 32,
                 id="SweepGrid.n_basis_values"),
    pytest.param("threads", 1, lambda v: run_sweep(_grid(), SimParams(length=22), threads=v), 1,
                 id="run_sweep.threads"),
    pytest.param("column", 1, lambda v: CsvSpec("series.csv", column=v), 2,
                 id="CsvSpec.column"),
    pytest.param("last", 1, lambda v: read_csv_column(CsvSpec(GOLDEN_PLOT, column="raw"), v), 3,
                 id="read_csv_column.last"),
    pytest.param("window", 1, lambda v: cmd_forecast(Namespace(window=v, horizon=2)), None,
                 id="forecast.window"),
    pytest.param("horizon", 1, lambda v: cmd_forecast(Namespace(window=10, horizon=v)), None,
                 id="forecast.horizon"),
    pytest.param("window", 1, lambda v: cmd_experiment(Namespace(window=v)), None,
                 id="experiment.window"),
    pytest.param("threads", 1, lambda v: cmd_sweep(Namespace(threads=v)), None,
                 id="sweep.threads"),
]


@pytest.mark.parametrize("name, low, call, valid", COUNT_SITES)
def test_count_rule(name, low, call, valid):
    # one rule at every count: an integer of at least `low`, never a float or a bool
    for value in (2.5, 2.0, True):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value}")):
            call(value)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be >= {low}, got {low - 1}")):
        call(low - 1)
    if valid is not None:
        call(np.int64(valid))


# (argument, call): call(values) passes the samples to the entry point as that
# argument; each call takes K = 7 samples and forecasts 2 more
SAMPLE_SITES = [
    pytest.param("values", lambda v: TimeSeries(v).values, id="TimeSeries"),
    pytest.param("history", lambda v: linear_forecast(v, 2), id="linear_forecast"),
    pytest.param("history", lambda v: causal_forecast(v, 2, CausalParams(n_harmonics=3)),
                 id="causal_forecast"),
    pytest.param("history", lambda v: salsa_forecast(v, 2, SalsaParams(n_basis=16, n_iter=5)),
                 id="salsa_forecast"),
    pytest.param("masked signal",
                 lambda v: salsa_solve(v, ObservationMask(5, 7),
                                       SalsaParams(n_basis=16, n_iter=5)).c,
                 id="salsa_solve"),
]

SAMPLES = 80 + np.sin(np.arange(7.0))


def _with(index, value, dtype=float):
    values = SAMPLES.astype(dtype)
    values[index] = value
    return values


# (values, message): samples every entry point refuses, and why
BAD_SAMPLES = [
    pytest.param(np.array(80.0), "must have shape", id="0-d"),
    pytest.param(SAMPLES.reshape(1, 1, 7), "must have shape", id="3-D"),
    pytest.param(np.zeros(0), "must have shape", id="K=0"),
    pytest.param(_with(2, np.nan), "must be finite", id="nan"),
    pytest.param(_with(2, np.inf), "must be finite", id="inf"),
    pytest.param(_with(2, -np.inf), "must be finite", id="-inf"),
    pytest.param(_with(2, None, object), "must be finite", id="None"),
    pytest.param(_with(6, SAMPLES[6] + 1e-300j, complex), "must be real", id="1e-300j"),
    pytest.param(_with(3, 1 + 1j, object), "must be real", id="object-1+1j"),
    pytest.param(np.array(["a", "b", "c"]), "must be real", id="strings"),
    pytest.param(np.array(["1.5", "2.5", "3.5"]), "must be real", id="numeric-strings"),
    pytest.param(np.array([b"1", b"2"]), "must be real", id="numeric-bytes"),
    pytest.param(_with(2, "2.5", object), "must be real", id="object-numeric-string"),
]


# (name, call, valid): call(value) reaches the scalar check of `name`; `valid` is a
# value the site accepts
REAL_SITES = [
    pytest.param("mu", lambda v: SalsaParams(mu=v), np.float64(0.6), id="SalsaParams.mu"),
    pytest.param("lam", lambda v: SalsaParams(lam=v), 1, id="SalsaParams.lam"),
    pytest.param("omega", lambda v: CausalParams(omega=v), np.float64(1.0),
                 id="CausalParams.omega"),
    pytest.param("nu", lambda v: CausalParams(nu=v), np.float32(0.1), id="CausalParams.nu"),
    pytest.param("nu", lambda v: regularized_solve(np.eye(3), v, np.ones(3)), 0.1,
                 id="regularized_solve.nu"),
    pytest.param("a_low", lambda v: SimParams(length=10, a_low=v), np.float64(0.0),
                 id="SimParams.a_low"),
    pytest.param("a_high", lambda v: SimParams(length=10, a_high=v), 1, id="SimParams.a_high"),
    pytest.param("noise_std", lambda v: SimParams(length=10, noise_std=v), np.int64(2),
                 id="SimParams.noise_std"),
    pytest.param("offset", lambda v: SimParams(length=10, offset=v), -3.5,
                 id="SimParams.offset"),
    pytest.param("mu", lambda v: _grid(mu_values=(0.6, v)), np.float64(0.5),
                 id="SweepGrid.mu_values"),
    pytest.param("lam", lambda v: _grid(lambda_values=(v,)), 2, id="SweepGrid.lambda_values"),
]


@pytest.mark.parametrize("name, call, valid", REAL_SITES)
def test_real_rule(name, call, valid):
    # one rule at every scalar parameter: one real number, never a bool, a string,
    # a complex number or an array
    for value in (True, np.True_, "0.6", b"1", None, 1j, np.array([0.1, 0.2])):
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} must be a real number, got {value!r}")):
            call(value)
    call(valid)


@pytest.mark.parametrize("values, message", BAD_SAMPLES)
@pytest.mark.parametrize("name, call", SAMPLE_SITES)
def test_sample_rule(name, call, values, message):
    # one rule at every entry point: real, finite, shape (K,) or (B, K) with K >= 1
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        call(values)


@pytest.mark.parametrize("name, call", SAMPLE_SITES)
def test_complex_samples_with_zero_imaginary_part_pass_as_real(name, call):
    assert call(SAMPLES.astype(complex)).tobytes() == call(SAMPLES).tobytes()


@pytest.mark.parametrize("name, call", SAMPLE_SITES[1:4])
def test_empty_stack_gives_empty_forecast(name, call):
    assert call(np.zeros((0, 7))).shape == (0, 2)
