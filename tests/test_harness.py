import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import sigcast.harness
from sigcast.baselines import LinearParams
from sigcast.causal import CausalParams
from sigcast.harness import (
    ExperimentConfig,
    render_plot_csv,
    render_report,
    run_experiment,
)
from sigcast.montecarlo import SimParams, generate_path
from sigcast.salsa import SalsaParams
from sigcast.series import TimeSeries, l2_residual

DATA_DIR = Path(__file__).parent / "data"

GOLDEN_CONFIG = ExperimentConfig(horizon=5, window_len=91, stride=5)
GOLDEN_SIM = SimParams(length=141, seed=20240915)


def _raise(exc_type):
    def fail(*args, **kwargs):
        raise exc_type("injected failure")

    return fail


def golden_result():
    return run_experiment(generate_path(GOLDEN_SIM), GOLDEN_CONFIG)


@pytest.fixture(scope="module")
def ar_result():
    return golden_result()


class TestRunExperiment:
    def test_constant_series_residuals(self):
        level = 40.0
        series = TimeSeries(values=np.full(120, level))
        config = ExperimentConfig(horizon=5, window_len=91, stride=5)
        result = run_experiment(series, config)
        # causal lands exactly on the level via tail-mean re-centering,
        # linear extrapolates the flat line exactly
        assert result.residuals["causal"].total_l2 == 0.0
        assert result.residuals["linear"].total_l2 == 0.0
        # SALSA carries the small l1 shrinkage bias on the flat level
        assert result.residuals["salsa"].per_point < 1e-6 * level

    def test_deterministic(self):
        series = generate_path(SimParams(length=130, seed=5))
        config = ExperimentConfig(horizon=3, stride=3, salsa=SalsaParams(n_iter=100))
        a = run_experiment(series, config)
        b = run_experiment(series, config)
        for m in config.methods:
            assert np.array_equal(a.tracks[m], b.tracks[m])
        assert render_report(a, "csv") == render_report(b, "csv")

    def test_track_alignment_invariant(self, ar_result):
        config = ar_result.config
        for i, idx in enumerate(ar_result.target_indices):
            expect = config.window_len + (i // config.horizon) * config.stride + (i % config.horizon)
            assert idx == expect

    def test_track_lengths(self, ar_result):
        for m in ar_result.config.methods:
            assert ar_result.tracks[m].size == ar_result.n_windows * ar_result.config.horizon

    def test_residuals_match_independent_recomputation(self, ar_result):
        for m in ar_result.config.methods:
            rep = l2_residual(ar_result.tracks[m], ar_result.truth_track)
            assert rep.total_l2 == ar_result.residuals[m].total_l2
            assert rep.per_point == ar_result.residuals[m].per_point

    def test_truth_stats_cover_forecast_span_only(self, ar_result):
        series = generate_path(GOLDEN_SIM)
        span = series.values[ar_result.target_indices]
        assert ar_result.truth_stats.min == span.min()
        assert ar_result.truth_stats.max == span.max()

    def test_method_failure_recorded_and_skipped(self, monkeypatch):
        # a causal solve that fails numerically fails every window, linear runs on
        monkeypatch.setattr(sigcast.harness, "causal_forecast", _raise(ArithmeticError))
        series = generate_path(SimParams(length=100, seed=9))
        config = ExperimentConfig(horizon=3, stride=3, methods=("causal", "linear"))
        result = run_experiment(series, config)
        assert result.failures["causal"] == list(range(result.n_windows))
        assert result.residuals["causal"] is None
        assert np.all(np.isnan(result.tracks["causal"]))
        assert result.failures["linear"] == []
        assert result.residuals["linear"] is not None

    @pytest.mark.parametrize("method", ["causal", "salsa", "linear"])
    def test_nonfinite_forecasts_are_failures(self, method):
        # finite history whose forecasts overflow: every window fails, none is scored
        series = TimeSeries(values=1.5e308 * (-1.0) ** np.arange(200))
        with np.errstate(all="ignore"):
            result = run_experiment(series, ExperimentConfig(horizon=5, methods=(method,)))
        assert result.failures[method] == list(range(result.n_windows))
        assert np.all(np.isnan(result.tracks[method]))
        assert result.residuals[method] is None and result.track_stats[method] is None

    def test_nonfinite_rows_fail_only_their_windows(self, monkeypatch):
        def linear_with_bad_rows(history, horizon, params):
            out = np.ones((len(history), horizon))
            out[1, 0], out[3, -1] = np.inf, np.nan
            return out

        monkeypatch.setattr(sigcast.harness, "linear_forecast", linear_with_bad_rows)
        series = generate_path(SimParams(length=120, seed=9))
        result = run_experiment(series, ExperimentConfig(horizon=3, methods=("linear",)))
        assert result.failures["linear"] == [1, 3]
        windows = result.tracks["linear"].reshape(result.n_windows, 3)
        assert np.all(np.isnan(windows[[1, 3]]))
        assert np.all(np.delete(windows, [1, 3], axis=0) == 1.0)
        assert result.residuals["linear"].n_points == 3 * (result.n_windows - 2)

    def test_unexpected_exception_propagates(self, monkeypatch):
        # a TypeError is a bug, not a failed window
        monkeypatch.setattr(sigcast.harness, "linear_forecast", _raise(TypeError))
        series = generate_path(SimParams(length=100, seed=9))
        with pytest.raises(TypeError):
            run_experiment(series, ExperimentConfig(horizon=3, methods=("linear",)))

    def test_lookahead_smoothing_differs_from_leak_free(self):
        series = generate_path(SimParams(length=130, seed=5))
        base = ExperimentConfig(horizon=3, stride=3, methods=("causal",))
        leaky = ExperimentConfig(horizon=3, stride=3, methods=("causal",), lookahead_smoothing=True)
        track_a = run_experiment(series, base).tracks["causal"]
        track_b = run_experiment(series, leaky).tracks["causal"]
        # smoothing across window edges sees neighbouring samples, so the
        # windows after the first must differ
        assert not np.array_equal(track_a, track_b)

    def test_wall_time_recorded(self, ar_result):
        for m in ar_result.config.methods:
            assert ar_result.wall_time[m] > 0.0


class TestExperimentConfig:
    def test_stride_defaults_to_horizon(self):
        assert ExperimentConfig(horizon=7).stride == 7

    def test_no_methods_rejected(self):
        with pytest.raises(ValueError, match="no methods"):
            ExperimentConfig(horizon=2, methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig(horizon=2, methods=("salsa", "arima"))

    def test_methods_normalized_to_table_order(self):
        config = ExperimentConfig(horizon=2, methods=("linear", "salsa", "causal"))
        assert config.methods == ("causal", "salsa", "linear")

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(methods=("causal",), causal=CausalParams(n_harmonics=10)), r"2\*n_harmonics\+1 = 21"),
            (dict(methods=("salsa",), salsa=SalsaParams(n_basis=50)), "n_basis = 50"),
            (dict(methods=("linear",), window_len=1), "at least 2"),
            (dict(methods=("linear",), window_len=3,
                  linear=LinearParams(lookback=3, variant="two_point_span")), "at least 4"),
        ],
        ids=["causal_window", "salsa_n_basis", "code_slope_window", "two_point_span_window"],
    )
    def test_impossible_window_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(horizon=2, **kwargs)

    def test_disabled_method_not_checked(self):
        # n_basis 50 cannot hold a 91-sample window, but SALSA is not run
        config = ExperimentConfig(horizon=2, methods=("linear",), salsa=SalsaParams(n_basis=50))
        assert config.methods == ("linear",)


class TestRenderReport:
    def test_text_columns_ordered(self, ar_result):
        text = render_report(ar_result, "text")
        header = text.splitlines()[1]
        assert header.index("Raw Data") < header.index("Causal Forecast")
        assert header.index("Causal Forecast") < header.index("Salsa Forecast")
        assert header.index("Salsa Forecast") < header.index("Linear Forecast")
        for label in ("Min", "Max", "Mean", "STD", "Range", "Total L2 residual"):
            assert label in text

    def test_unsupported_format(self, ar_result):
        with pytest.raises(ValueError, match="unsupported format"):
            render_report(ar_result, "yaml")

    def test_csv_reimport_full_precision(self, ar_result):
        text = render_report(ar_result, "csv")
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        salsa_col = header.index("Salsa Forecast")
        by_label = {row[0]: row for row in body}
        assert float(by_label["Min"][salsa_col]) == ar_result.track_stats["salsa"].min
        assert float(by_label["Total L2 residual"][salsa_col]) == ar_result.residuals["salsa"].total_l2

    def test_json_structure(self, ar_result):
        payload = json.loads(render_report(ar_result, "json"))
        assert payload["n_windows"] == ar_result.n_windows
        assert payload["columns"][0] == "Raw Data"
        assert payload["rows"]["Range"]["Raw Data"] == ar_result.truth_stats.range

    def test_golden_report_bit_exact(self):
        golden = (DATA_DIR / "golden_report.txt").read_text()
        assert render_report(golden_result(), "text") == golden

    def test_golden_plot_bit_exact(self):
        golden = (DATA_DIR / "golden_plot.csv").read_text()
        assert render_plot_csv(golden_result()) == golden


class TestRenderPlotCsv:
    def test_header_and_alignment(self, ar_result):
        rows = list(csv.reader(io.StringIO(render_plot_csv(ar_result))))
        assert rows[0] == ["index", "raw", "smoothed", "causal", "salsa", "linear"]
        assert len(rows) - 1 == ar_result.n_windows * ar_result.config.horizon
        first = rows[1]
        assert int(first[0]) == ar_result.target_indices[0]
        assert float(first[1]) == ar_result.truth_track[0]

    def test_failed_windows_leave_empty_cells(self, monkeypatch):
        monkeypatch.setattr(sigcast.harness, "causal_forecast", _raise(ArithmeticError))
        series = generate_path(SimParams(length=100, seed=9))
        config = ExperimentConfig(horizon=3, stride=3, methods=("causal", "linear"))
        result = run_experiment(series, config)
        rows = list(csv.reader(io.StringIO(render_plot_csv(result))))
        causal_col = rows[0].index("causal")
        assert all(row[causal_col] == "" for row in rows[1:])
