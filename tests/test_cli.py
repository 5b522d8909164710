import csv
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import strict_json
from hypothesis import given, settings
from hypothesis import strategies as st

import sigcast.cli
import sigcast.harness
from sigcast import ingest
from sigcast.baselines import LinearParams, linear_forecast
from sigcast.causal import CausalParams, causal_forecast
from sigcast.cli import _method_params, _sim_params, build_parser, main
from sigcast.harness import METHOD_ORDER, ExperimentConfig
from sigcast.ingest import CsvSpec, read_csv_column, write_csv
from sigcast.montecarlo import SimParams, SweepGrid, generate_path
from sigcast.salsa import SalsaParams, salsa_forecast, synthesize


def run(*argv):
    return main(list(argv))


def write_series_csv(path, values):
    from sigcast.series import TimeSeries

    write_csv(TimeSeries(values=np.asarray(values, dtype=float)), path)


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--length", "200", "--seed", "77", "--output-dir", str(a)) == 0
        assert run("simulate", "--length", "200", "--seed", "77", "--output-dir", str(b)) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()

    def test_zero_length_is_validation_error(self, tmp_path):
        assert run("simulate", "--length", "0", "--output-dir", str(tmp_path)) == 1

    def test_default_process_mean_near_offset(self, tmp_path):
        assert run("simulate", "--length", "10000", "--seed", "123",
                   "--output-dir", str(tmp_path)) == 0
        ts = read_csv_column(CsvSpec(path=tmp_path / "series.csv", column="value"))
        assert len(ts) == 10000
        assert 70.0 <= float(np.mean(ts.values)) <= 90.0

    def test_unallocatable_length_is_validation_error(self, tmp_path, capsys):
        # 10**14 float64 samples are 728 TiB, so numpy's allocation is refused at once
        assert run("simulate", "--length", str(10**14), "--seed", "1",
                   "--output-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("sigcast: Unable to allocate 728. TiB") and "Traceback" not in err
        assert not (tmp_path / "series.csv").exists()

    def test_seed_generated_and_printed_when_omitted(self, tmp_path, capsys):
        assert run("simulate", "--length", "10", "--output-dir", str(tmp_path)) == 0
        assert "seed:" in capsys.readouterr().err

    def test_params_failing_every_path_are_validation_error(self, tmp_path, capsys):
        assert run("simulate", "--length", "10", "--seed", "1", "--a-high", "inf",
                   "--output-dir", str(tmp_path)) == 1
        assert "a_high - a_low must be finite" in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()

    def test_format_option_is_usage_error(self, tmp_path, capsys):
        assert run("simulate", "--length", "10", "--seed", "1", "--format", "json",
                   "--output-dir", str(tmp_path)) == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()


class TestForecast:
    @pytest.mark.parametrize("method", ["linear", "causal"])
    def test_unallocatable_horizon_is_validation_error(self, tmp_path, capsys, method):
        # 10**14 float64 steps are 728 TiB, so numpy's allocation is refused at once
        src = tmp_path / "input.csv"
        write_series_csv(src, np.linspace(0.0, 1.0, 120))
        out = tmp_path / "out"
        assert run("forecast", "--input", str(src), "--column", "value", "--method", method,
                   "--horizon", str(10**14), "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("sigcast: Unable to allocate 728. TiB") and "Traceback" not in err
        assert not list(out.glob("forecast*"))

    def test_constant_series_linear(self, tmp_path):
        src = tmp_path / "input.csv"
        write_series_csv(src, np.full(120, 6.5))
        out = tmp_path / "out"
        code = run("forecast", "--input", str(src), "--column", "value",
                   "--method", "linear", "--window", "20", "--horizon", "4",
                   "--format", "csv", "--output-dir", str(out))
        assert code == 0
        rows = list(csv.reader((out / "forecast.csv").read_text().splitlines()))
        assert rows[0] == ["step", "value"]
        assert [float(r[1]) for r in rows[1:]] == [6.5] * 4
        meta = strict_json((out / "forecast_params.json").read_text())
        assert meta["method"] == "linear"

    def test_causal_takes_its_harmonic_count_from_the_window(self, tmp_path):
        src = tmp_path / "input.csv"
        write_series_csv(src, generate_path(SimParams(length=120, seed=4)).values)
        out = tmp_path / "out"
        assert run("forecast", "--input", str(src), "--column", "value", "--method", "causal",
                   "--window", "61", "--output-dir", str(out)) == 0
        meta = strict_json((out / "forecast_params.json").read_text())
        assert (meta["window"], meta["params"]["n_harmonics"]) == (61, 30)

    @pytest.mark.parametrize("command", [
        ("forecast", "--method", "causal"),
        ("experiment", "--methods", "causal", "--horizon", "7"),
    ], ids=["forecast", "experiment"])
    @pytest.mark.parametrize("window, usable", [("90", 91), ("1", 3)])
    def test_causal_window_not_2N_plus_1(self, tmp_path, capsys, command, window, usable):
        assert run(*command, "--input", str(tmp_path / "input.csv"), "--window", window,
                   "--output-dir", str(tmp_path / "out")) == 1
        assert (f"causal needs a window of 2*n_harmonics+1 = {usable}; got window {window}"
                in capsys.readouterr().err)

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("forecast", "--input", str(tmp_path / "nope.csv"),
                   "--method", "linear", "--output-dir", str(tmp_path)) == 2

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        write_series_csv(src, np.linspace(0.0, 1.0, 120))
        out = tmp_path / "out"
        (out / "forecast.txt").mkdir(parents=True)  # os.replace cannot move a file onto it
        assert run("forecast", "--input", str(src), "--column", "value", "--method", "linear",
                   "--output-dir", str(out)) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert not list(out.glob("*.tmp"))

    @pytest.mark.parametrize(
        "method, library",
        [("salsa", salsa_forecast), ("causal", causal_forecast), ("linear", linear_forecast)],
        ids=["salsa", "causal", "linear"],
    )
    def test_cli_matches_library_exactly(self, tmp_path, method, library):
        # 91 = 2N+1 samples, the window the default causal method needs
        n = 200
        c = np.zeros(n, dtype=complex)
        c[8] = 0.5
        c[n - 8] = 0.5
        tone = np.real(synthesize(c, 101))
        src = tmp_path / "tone.csv"
        write_series_csv(src, tone[:91])
        out = tmp_path / "out"
        code = run("forecast", "--input", str(src), "--column", "value",
                   "--method", method, "--window", "91", "--horizon", "10",
                   "--format", "csv", "--output-dir", str(out))
        assert code == 0
        rows = list(csv.reader((out / "forecast.csv").read_text().splitlines()))
        got = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(got, library(tone[:91], 10))

    def test_json_format_writes_one_file(self, tmp_path):
        src = tmp_path / "input.csv"
        write_series_csv(src, 80.0 + np.sin(np.arange(120.0) / 5))
        out = tmp_path / "out"
        assert run("forecast", "--input", str(src), "--column", "value", "--method", "linear",
                   "--window", "50", "--horizon", "4", "--format", "json",
                   "--output-dir", str(out)) == 0
        # the parameters travel inside forecast.json, with no forecast_params.json beside it
        assert sorted(path.name for path in out.iterdir()) == ["forecast.json"]
        record = strict_json((out / "forecast.json").read_text())
        assert set(record) == {"method", "window", "horizon", "params", "forecast"}
        assert (record["method"], record["window"], record["horizon"]) == ("linear", 50, 4)
        assert record["params"] == json.loads(json.dumps(asdict(LinearParams())))
        history = read_csv_column(CsvSpec(path=src, column="value")).values[-50:]
        assert record["forecast"] == linear_forecast(history, 4).tolist()

    @pytest.mark.parametrize(
        "column", [["--column", "Close"], ["--column", "1", "--skip-header"]],
        ids=["by_name", "by_index_skip_header"],
    )
    def test_byte_order_mark_ignored(self, tmp_path, column):
        closes = [10.5, 10.75, 11.0, 10.25, 10.5, 10.875]
        src = tmp_path / "prices.csv"
        src.write_text("\ufeffClose,Volume\n" + "".join(f"{c},100\n" for c in closes),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run("forecast", "--input", str(src), *column, "--method", "linear",
                   "--window", "6", "--horizon", "2", "--format", "csv",
                   "--output-dir", str(out)) == 0
        rows = list(csv.reader((out / "forecast.csv").read_text().splitlines()))
        got = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(got, linear_forecast(np.array(closes), 2))

    def test_oversized_field_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "input.csv"
        src.write_text("value,note\n1.0,ok\n2.0," + "x" * (csv.field_size_limit() + 1) + "\n")
        assert run("forecast", "--input", str(src), "--column", "value",
                   "--method", "linear", "--output-dir", str(tmp_path / "out")) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["salsa", "causal", "linear"])
    def test_nonfinite_forecast_is_failure(self, tmp_path, capsys, method):
        src = tmp_path / "huge.csv"
        write_series_csv(src, 1.5e308 * (-1.0) ** np.arange(120))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = run("forecast", "--input", str(src), "--column", "value",
                       "--method", method, "--output-dir", str(out))
        assert code == 1
        assert f"{method} forecast is not finite" in capsys.readouterr().err
        assert not (out / "forecast.txt").exists()

    def test_arithmetic_error_is_failure(self, tmp_path, capsys, monkeypatch):
        def failed_solve(*args, **kwargs):
            raise ArithmeticError("regularized solve residual 1.0e+00 exceeds 1e-8 * ||b||")

        monkeypatch.setattr(sigcast.harness, "causal_forecast", failed_solve)
        src = tmp_path / "input.csv"
        write_series_csv(src, np.arange(100.0))
        assert run("forecast", "--input", str(src), "--column", "value",
                   "--method", "causal", "--output-dir", str(tmp_path / "out")) == 1
        assert "regularized solve residual" in capsys.readouterr().err

    def test_window_longer_than_series_is_validation_error(self, tmp_path):
        src = tmp_path / "short.csv"
        write_series_csv(src, np.arange(10.0))
        assert run("forecast", "--input", str(src), "--column", "value",
                   "--method", "linear", "--window", "50",
                   "--output-dir", str(tmp_path)) == 1

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_nonpositive_window_is_validation_error(self, tmp_path, window):
        src = tmp_path / "input.csv"
        write_series_csv(src, np.arange(30.0))
        out = tmp_path / "out"
        assert run("forecast", "--input", str(src), "--column", "value",
                   "--method", "linear", "--window", window,
                   "--output-dir", str(out)) == 1
        assert not (out / "forecast.txt").exists()

    def test_other_methods_options_not_built(self, tmp_path):
        # --nu 0 is no valid causal regularizer, but salsa never reads it
        src = tmp_path / "input.csv"
        write_series_csv(src, generate_path(SimParams(length=120, seed=4)).values)
        assert run("forecast", "--input", str(src), "--column", "value", "--method", "salsa",
                   "--n-iter", "20", "--nu", "0", "--output-dir", str(tmp_path / "out")) == 0
        assert run("forecast", "--input", str(src), "--column", "value", "--method", "causal",
                   "--nu", "0", "--output-dir", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("options", [
        ["--method", "causal", "--window", "50"],
        ["--method", "causal", "--window", "3", "--ma-width", "5", "--horizon", "2"],
        ["--method", "salsa", "--window", "191", "--horizon", "10"],
    ], ids=["causal_not_2N+1", "causal_ma_width_beyond_window", "salsa_beyond_n_basis"])
    def test_window_checked_before_reading(self, tmp_path, capsys, monkeypatch, options):
        calls = []
        monkeypatch.setattr(sigcast.cli, "read_csv_column", lambda *a: calls.append(a))
        assert run("forecast", "--input", str(tmp_path / "input.csv"), *options,
                   "--output-dir", str(tmp_path / "out")) == 1
        assert calls == []
        assert "got window" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_horizon_checked_before_reading(self, tmp_path, capsys, monkeypatch, horizon):
        def never_read(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(sigcast.cli, "read_csv_column", never_read)
        assert run("forecast", "--input", str(tmp_path / "missing.csv"), "--method", "linear",
                   "--horizon", horizon, "--output-dir", str(tmp_path / "out")) == 1
        assert f"horizon must be >= 1, got {horizon}" in capsys.readouterr().err


def _long_csv(path, cells, newline="\n"):
    """An index,value CSV of the given value cells, several tail blocks long."""
    rows = ["index,value"] + [f"{i},{cell}" for i, cell in enumerate(cells)]
    path.write_bytes(newline.join(rows).encode() + newline.encode())
    return path


class TestForecastReadsTail:
    """forecast reads its file from the end; experiment reads all of it."""

    values = generate_path(SimParams(length=3000, seed=6)).values
    cells = [repr(v) for v in values.tolist()]

    def forecast_text(self, src, out, code=0):
        assert run("forecast", "--input", str(src), "--column", "value", "--method", "causal",
                   "--output-dir", str(out)) == code
        return (out / "forecast.txt").read_bytes() if code == 0 else None

    def test_bad_first_row_not_read(self, tmp_path, capsys):
        assert len(_long_csv(tmp_path / "a.csv", self.cells).read_bytes()) > 2 * ingest._TAIL_BLOCK
        clean = self.forecast_text(tmp_path / "a.csv", tmp_path / "a")
        bad = _long_csv(tmp_path / "bad.csv", ["bogus"] + self.cells[1:])
        assert self.forecast_text(bad, tmp_path / "bad") == clean
        assert run("experiment", "--input", str(bad), "--column", "value", "--horizon", "5",
                   "--output-dir", str(tmp_path / "ex")) == 1
        assert "unparseable value 'bogus' at data row 1" in capsys.readouterr().err

    def test_bad_row_in_tail_named_as_full_read_does(self, tmp_path, capsys):
        bad = _long_csv(tmp_path / "bad.csv", self.cells[:2980] + ["bogus"] + self.cells[2981:])
        self.forecast_text(bad, tmp_path / "out", code=1)
        assert "unparseable value 'bogus' at data row 2981" in capsys.readouterr().err

    @pytest.mark.parametrize("cells, newline", [
        ("plain", "\n"), ("plain", "\r\n"), ("plain", "\r"), ("quoted", "\n")])
    def test_same_bytes_as_full_read(self, tmp_path, cells, newline):
        cells = self.cells if cells == "plain" else [f'"{c}"' for c in self.cells]
        src = _long_csv(tmp_path / "in.csv", cells, newline)
        full = read_csv_column(CsvSpec(path=src, column="value"))
        assert np.array_equal(full.values, self.values)
        expected = "".join(f"{v!r}\n" for v in causal_forecast(full.values[-91:], 10).tolist())
        assert self.forecast_text(src, tmp_path / "out") == expected.encode()


class TestExperiment:
    def test_window_count_reported(self, tmp_path):
        src = tmp_path / "input.csv"
        write_series_csv(src, generate_path(SimParams(length=345, seed=4)).values)
        out = tmp_path / "out"
        code = run("experiment", "--input", str(src), "--column", "value",
                   "--methods", "linear", "--window", "91", "--horizon", "2",
                   "--stride", "2", "--format", "json", "--output-dir", str(out))
        assert code == 0
        payload = strict_json((out / "report.json").read_text())
        assert payload["n_windows"] == 127

    def test_report_column_order(self, tmp_path):
        src = tmp_path / "input.csv"
        write_series_csv(src, generate_path(SimParams(length=120, seed=4)).values)
        out = tmp_path / "out"
        code = run("experiment", "--input", str(src), "--column", "value",
                   "--horizon", "5", "--n-iter", "50", "--format", "csv",
                   "--output-dir", str(out))
        assert code == 0
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "Data Type,Raw Data,Causal Forecast,Salsa Forecast,Linear Forecast"
        assert (out / "plot_data.csv").exists()

    def test_deterministic_reports(self, tmp_path):
        src = tmp_path / "input.csv"
        write_series_csv(src, generate_path(SimParams(length=120, seed=8)).values)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run("experiment", "--input", str(src), "--column", "value",
                       "--horizon", "5", "--n-iter", "50", "--format", "csv",
                       "--output-dir", str(out)) == 0
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "options",
        [
            ("--window", "90"),
            ("--n-basis", "50"),
            ("--methods", "linear", "--window", "1"),
            ("--methods", "linear", "--window", "3", "--lookback", "3",
             "--linear-variant", "two_point_span"),
        ],
        ids=["causal_window", "salsa_n_basis", "code_slope_window", "two_point_span_window"],
    )
    def test_impossible_window_is_validation_error(self, tmp_path, capsys, options):
        src = tmp_path / "input.csv"
        write_series_csv(src, generate_path(SimParams(length=120, seed=4)).values)
        out = tmp_path / "out"
        assert run("experiment", "--input", str(src), "--column", "value",
                   "--horizon", "5", *options, "--output-dir", str(out)) == 1
        assert "needs" in capsys.readouterr().err
        assert not (out / "report.txt").exists()

    @pytest.mark.parametrize("options, message", [
        (("--horizon", "0"), "horizon must be >= 1, got 0"),
        (("--horizon", "5", "--stride", "0"), "stride must be >= 1, got 0"),
        (("--horizon", "5", "--window", "0"), "window must be >= 1, got 0"),
        (("--horizon", "5", "--nu", "0"), "nu must be positive and finite, got 0.0"),
        (("--horizon", "5", "--nu", "inf"), "nu must be positive and finite, got inf"),
        (("--horizon", "5", "--methods", "linear,bogus"), "unknown methods: ['bogus']"),
    ], ids=["horizon", "stride", "window", "method_option", "nu_inf", "method_name"])
    def test_config_checked_before_reading(self, tmp_path, capsys, monkeypatch, options,
                                           message):
        def never_read(*args):
            raise AssertionError("input read")

        monkeypatch.setattr(sigcast.cli, "read_csv_column", never_read)
        out = tmp_path / "out"
        assert run("experiment", "--input", str(tmp_path / "missing.csv"), *options,
                   "--output-dir", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_disabled_methods_options_not_built(self, tmp_path):
        # --n-basis 0 is no valid SALSA dictionary and --nu 0 no causal regularizer, but
        # linear alone reads neither; --ma-width still draws plot_data.csv's smoothed column
        src = tmp_path / "input.csv"
        write_series_csv(src, generate_path(SimParams(length=120, seed=4)).values)
        args = ("experiment", "--input", str(src), "--column", "value", "--methods", "linear",
                "--horizon", "5", "--output-dir", str(tmp_path / "out"))
        assert run(*args, "--n-basis", "0") == 0
        assert run(*args, "--nu", "0") == 0
        assert run(*args, "--ma-width", "0") == 1
        assert run(*args, "--ma-width", "4") == 1

    def test_series_shorter_than_ma_width_smoothed(self, tmp_path):
        # without causal, --ma-width draws only the smoothed column, whose
        # windows are all truncated to the 3 samples there are
        src = tmp_path / "s.csv"
        write_series_csv(src, np.array([1.0, 2.0, 3.0]))
        out = tmp_path / "out"
        assert run("experiment", "--input", str(src), "--column", "value", "--methods", "linear",
                   "--window", "2", "--horizon", "1", "--output-dir", str(out)) == 0
        rows = list(csv.reader((out / "plot_data.csv").read_text().splitlines()))
        assert rows[0][:3] == ["index", "raw", "smoothed"]
        assert [row[:3] for row in rows[1:]] == [["2", "3.0", "2.0"]]

    def test_values_that_are_not_finite_are_empty_cells(self, tmp_path):
        # finite samples near 1e307: sums and squares overflow, so the means, the
        # residuals and every causal forecast (centred at the window mean) are not
        # finite; the smoothed curve sums five samples at a time and stays finite
        src = tmp_path / "input.csv"
        values = 1e307 + np.random.default_rng(0).normal(0.0, 1e306, 200)
        write_series_csv(src, values)
        out = tmp_path / "out"
        args = ("experiment", "--input", str(src), "--column", "value", "--horizon", "5",
                "--stride", "1", "--methods", "linear,causal", "--output-dir", str(out))
        assert run(*args, "--format", "json") == 0
        rows = strict_json((out / "report.json").read_text())["rows"]
        assert rows["Mean"] == {"Raw Data": None, "Causal Forecast": None, "Linear Forecast": None}
        assert rows["Total L2 residual"]["Linear Forecast"] is None
        assert rows["Max"]["Linear Forecast"] > rows["Min"]["Linear Forecast"] > 1e306
        plot = list(csv.reader((out / "plot_data.csv").read_text().splitlines()))[1:]
        assert {row[3] for row in plot} == {""}
        for row in plot:
            index = int(row[0])
            window = values[max(index - 2, 0) : index + 3]
            assert window.min() <= float(row[2]) <= window.max()
        assert all(float(row[4]) > 1e306 for row in plot)
        assert run(*args, "--format", "text") == 0
        text = (out / "report.txt").read_text().lower()
        assert "inf" not in text and "nan" not in text

    def test_report_matches_direct_library_call(self, tmp_path):
        from sigcast.harness import ExperimentConfig, render_report, run_experiment
        from sigcast.salsa import SalsaParams as SP

        series = generate_path(SimParams(length=120, seed=8))
        src = tmp_path / "input.csv"
        write_series_csv(src, series.values)
        out = tmp_path / "out"
        assert run("experiment", "--input", str(src), "--column", "value",
                   "--horizon", "5", "--n-iter", "50", "--format", "csv",
                   "--output-dir", str(out)) == 0
        config = ExperimentConfig(horizon=5, salsa=SP(n_iter=50))
        want = render_report(run_experiment(series, config), "csv")
        assert (out / "report.csv").read_text() == want


# a partial run of two cells, and the options it is resumed with
SWEEP = ("sweep", "--mu-values", "0.4,0.8", "--trials", "2", "--window", "40", "--horizon", "2",
         "--seed", "31")


class _Cut(Exception):
    """Stands for an interruption of a sweep."""


def sweep_cut_after(cells, *argv):
    """Run `sigcast sweep`, stopping it once `cells` finished cells are saved.

    Returns the exit code, or None when the run was cut.
    """
    real = sigcast.cli.run_sweep

    def stop_after(*args, on_row, **kwargs):
        saved = []

        def record(row):
            if len(saved) == cells:
                raise _Cut
            on_row(row)
            saved.append(row)

        return real(*args, on_row=record, **kwargs)

    with mock.patch.object(sigcast.cli, "run_sweep", stop_after):
        try:
            return main(list(argv))
        except _Cut:
            return None


def sweep_files(out):
    return [(out / name).read_bytes() for name in ("sweep.csv", "sweep.json")]


class TestSweep:
    def test_single_cell(self, tmp_path):
        out = tmp_path / "out"
        code = run("sweep", "--mu-values", "0.6", "--trials", "1",
                   "--window", "40", "--horizon", "2", "--seed", "9",
                   "--output-dir", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "mu,lambda,n_basis,mean_residual_per_point,trials_run"
        assert len(lines) == 2

    def test_rows_in_mu_order(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--mu-values", "0.1:0.4:0.1", "--trials", "1",
                   "--window", "40", "--horizon", "2", "--seed", "9",
                   "--output-dir", str(out)) == 0
        mus = [float(line.split(",")[0])
               for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert mus == [0.1, 0.2, 0.3, 0.4]

    def test_resume_matches_uninterrupted(self, tmp_path, capsys):
        args = ["--mu-values", "0.4,0.8,1.2", "--trials", "2", "--window", "40",
                "--horizon", "2", "--seed", "31"]
        full_dir = tmp_path / "full"
        assert run("sweep", *args, "--output-dir", str(full_dir)) == 0
        record = strict_json((full_dir / "sweep.json").read_text())

        # an interrupted run's record: the first finished cell, and no sweep.csv,
        # which resume never reads
        resume_dir = tmp_path / "resumed"
        resume_dir.mkdir()
        partial = dict(record, cells=record["cells"][:1])
        (resume_dir / "sweep.json").write_text(json.dumps(partial, indent=2) + "\n")
        assert run("sweep", *args, "--resume", "--output-dir", str(resume_dir)) == 0
        assert "resuming: 1 cells already done" in capsys.readouterr().err
        assert sweep_files(resume_dir) == sweep_files(full_dir)

    @settings(max_examples=25, deadline=None)
    @given(
        n_mu=st.integers(1, 3),
        n_lambda=st.integers(1, 2),
        offset=st.sampled_from(["80", "1e307"]),
        seed=st.integers(0, 3),
        data=st.data(),
    )
    def test_resume_after_any_cut_matches_uninterrupted(self, n_mu, n_lambda, offset, seed,
                                                        data):
        # at offset 1e307 every cell fails, and its error text must survive the cut
        argv = ["sweep", "--mu-values", "0.4,0.8,1.6"[: 4 * n_mu - 1],
                "--lambda-values", "1,2"[: 2 * n_lambda - 1], "--trials", "2",
                "--window", "20", "--horizon", "2", "--seed", str(seed), "--offset", offset]
        n_cells = n_mu * n_lambda
        cut = data.draw(st.integers(0, n_cells), label="cells saved before the cut")
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
            full, part = Path(tmp, "full"), Path(tmp, "part")
            assert main([*argv, "--output-dir", str(full)]) == 0
            cells = strict_json((full / "sweep.json").read_text())["cells"]
            assert all(cell["error"] for cell in cells) == (offset == "1e307")

            code = sweep_cut_after(cut, *argv, "--output-dir", str(part))
            assert code == (0 if cut == n_cells else None)
            # a run cut before its first cell leaves no record; resume starts afresh
            record = part / "sweep.json"
            assert record.exists() == (cut > 0)
            if cut:
                assert strict_json(record.read_text())["cells"] == cells[:cut]
            assert main([*argv, "--resume", "--output-dir", str(part)]) == 0
            assert sweep_files(part) == sweep_files(full)

    def test_failed_cell_kept_with_its_text(self, tmp_path):
        # a failure is deterministic for a fixed run: resume keeps it, not re-runs it
        full, part = tmp_path / "full", tmp_path / "part"
        assert run(*SWEEP, "--output-dir", str(full)) == 0
        record = strict_json((full / "sweep.json").read_text())
        failed = dict(record["cells"][0], mean_residual_per_point=None, trials_run=0,
                      error="recorded failure")
        part.mkdir()
        (part / "sweep.json").write_text(json.dumps(dict(record, cells=[failed])))
        assert run(*SWEEP, "--resume", "--output-dir", str(part)) == 0
        assert strict_json((part / "sweep.json").read_text())["cells"] == [
            failed, record["cells"][1]
        ]
        assert (part / "sweep.csv").read_text().splitlines()[1] == "0.4,1.0,200,,0"

    def test_rows_saved_as_each_cell_finishes(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        saved = []
        real_run_sweep = sigcast.cli.run_sweep

        def spy(*args, on_row, **kwargs):
            def record(row):
                on_row(row)
                saved.append([(out / name).read_text() for name in ("sweep.csv", "sweep.json")])
            return real_run_sweep(*args, on_row=record, **kwargs)

        monkeypatch.setattr(sigcast.cli, "run_sweep", spy)
        assert run("sweep", "--mu-values", "0.4,0.8", "--trials", "1", "--window", "40",
                   "--horizon", "2", "--seed", "9", "--output-dir", str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines(keepends=True)
        assert [table for table, _ in saved] == ["".join(lines[:2]), "".join(lines)]
        cells = strict_json((out / "sweep.json").read_text())["cells"]
        assert [strict_json(record)["cells"] for _, record in saved] == [cells[:1], cells]

    @pytest.mark.parametrize(
        "change, named",
        [
            (("--seed", "32"), "seed 31 there, 32 here"),
            (("--trials", "5"), "trials 2 there, 5 here"),
            (("--window", "41"), "window 40 there, 41 here"),
            (("--mu-values", "0.4,0.9"), "mu_values [0.4, 0.8] there, [0.4, 0.9] here"),
            (("--offset", "0"), "offset 80.0 there, 0.0 here"),
            (("--trials", "5", "--offset", "0"), "trials 2 there, 5 here"),
        ],
        ids=["seed", "trials", "window", "grid_value", "offset", "trials_and_offset"],
    )
    def test_resume_of_another_run_is_refused(self, tmp_path, capsys, change, named):
        out = tmp_path / "out"
        assert sweep_cut_after(1, *SWEEP, "--output-dir", str(out)) is None
        before = sweep_files(out)
        assert run(*SWEEP, *change, "--resume", "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert f"sweep record of another run: {named}" in err
        assert "Traceback" not in err
        assert sweep_files(out) == before

    def test_resume_truncated_row_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*SWEEP, "--output-dir", str(out)) == 0
        text = (out / "sweep.json").read_text()
        # cut inside the second cell, as a write that did not finish would
        (out / "sweep.json").write_text(text[: text.rindex('"mean_residual_per_point"')])
        before = sweep_files(out)
        assert run(*SWEEP, "--resume", "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "malformed sweep record" in err
        assert "Traceback" not in err
        assert sweep_files(out) == before

    def test_resume_malformed_record_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*SWEEP, "--output-dir", str(out)) == 0
        text = (out / "sweep.json").read_text()
        record = strict_json(text)
        first, second = record["cells"]
        mean = repr(first["mean_residual_per_point"])
        cell_error = "sweep record cell is not one this run can write"
        garbled = {
            "\x00not json": "malformed sweep record",
            # the sweep.json of earlier versions
            json.dumps(record["cells"]): 'the file is not a {"run", "cells"} record',
            "5": 'the file is not a {"run", "cells"} record',
            text.replace(mean, "NaN", 1): "NaN is not JSON",
            text.replace(mean, "1e400", 1): cell_error,
            json.dumps(dict(record, cells=[{k: first[k] for k in list(first)[:5]}])):
                "KeyError('error')",
            json.dumps(dict(record, cells=[dict(first, mu=0.5)])): cell_error,
            json.dumps(dict(record, cells=[first, second, first])): cell_error,
            json.dumps(dict(record, cells=[dict(first, trials_run=1)])): cell_error,
            # trial counts equal to the run's by value only
            json.dumps(dict(record, cells=[dict(first, trials_run=2.0)])): cell_error,
            json.dumps(dict(record, cells=[dict(first, mean_residual_per_point=None,
                                                trials_run=False, error="failed")])): cell_error,
        }
        cases = [(SWEEP, bad, named) for bad, named in garbled.items()]
        # the same record at --trials 1, whose done cells hold the trial count 1
        at_one = dict(record, run=dict(record["run"], trials=1))
        cases.append(((*SWEEP[:4], "1", *SWEEP[5:]),
                      json.dumps(dict(at_one, cells=[dict(first, trials_run=True)])), cell_error))
        for args, bad, named in cases:
            (out / "sweep.json").write_text(bad)
            before = sweep_files(out)
            assert run(*args, "--resume", "--output-dir", str(out)) == 1
            err = capsys.readouterr().err
            assert named in err
            assert "Traceback" not in err
            assert sweep_files(out) == before

    def test_resume_without_seed_is_validation_error(self, tmp_path, capsys):
        # a fresh seed is never the recorded one
        out = tmp_path / "out"
        args = ["--mu-values", "0.6", "--trials", "1", "--window", "40",
                "--horizon", "2", "--output-dir", str(out)]
        assert run("sweep", *args, "--seed", "9") == 0
        before = sweep_files(out)
        assert run("sweep", *args, "--resume") == 1
        assert "sweep record of another run: seed 9 there" in capsys.readouterr().err
        assert sweep_files(out) == before

    @pytest.mark.parametrize(
        "grid, named",
        [
            (("--n-basis-values", "0"), "got 0"),
            (("--n-basis-values", "200,20"), "n_basis = 20"),
            (("--mu-values", "0.6,0"), "got 0.0"),
            (("--mu-values", "0.5,0.5"), "mu_values repeats a value"),
            (("--lambda-values", "nan"), "lam must be nonnegative and finite, got nan"),
            (("--a-high", "inf"), "a_high - a_low must be finite"),
            (("--mu-values", "inf"), "mu must be positive and finite, got inf"),
            (("--lambda-values", "inf"), "lam must be nonnegative and finite, got inf"),
            (("--n-basis-values", "60.7"), "n_basis must be an integer, got 60.7"),
            (("--mu-values", "0.5:1.0:0"), "range step must be positive"),
            (("--mu-values", "0.5:1.0:-0.1"), "range step must be positive"),
            (("--mu-values", "1.0:0.5:0.1"), "empty range '1.0:0.5:0.1'"),
        ],
        ids=["n_basis_zero", "n_basis_below_window", "mu_zero", "mu_repeated", "lambda_nan",
             "a_high_inf", "mu_inf", "lambda_inf", "n_basis_fractional", "range_step_zero",
             "range_step_negative", "range_empty"],
    )
    def test_invalid_grid_is_validation_error(self, tmp_path, capsys, grid, named):
        out = tmp_path / "out"
        assert run("sweep", *grid, "--trials", "1", "--window", "40", "--horizon", "2",
                   "--seed", "9", "--output-dir", str(out)) == 1
        assert named in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_nonpositive_threads_is_validation_error(self, tmp_path, capsys):
        # refused before the output directory is made or a drawn seed printed
        for seed in (["--seed", "9"], []):
            assert run("sweep", "--mu-values", "0.6", "--trials", "1", "--window", "40",
                       "--horizon", "2", *seed, "--threads", "0",
                       "--output-dir", str(tmp_path / "out")) == 1
            err = capsys.readouterr().err
            assert "threads must be >= 1, got 0" in err
            assert "seed:" not in err
            assert not (tmp_path / "out").exists()

    def test_json_output(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--mu-values", "0.6", "--trials", "1", "--window", "40",
                   "--horizon", "2", "--seed", "9", "--threads", "2",
                   "--output-dir", str(out)) == 0
        record = strict_json((out / "sweep.json").read_text())
        assert record["run"] == {
            "mu_values": [0.6], "lambda_values": [1.0], "n_basis_values": [200], "trials": 1,
            "horizon": 2, "window": 40, "length": 42, "a_low": 0.0, "a_high": 1.0,
            "noise_std": 1.0, "offset": 80.0, "seed": 9,
        }
        assert record["cells"][0]["mu"] == 0.6
        assert (out / "sweep.csv").read_text().splitlines()[1].startswith("0.6,1.0,200,")

    def test_integral_n_basis_range(self, tmp_path):
        # a range's values are floats; the integral ones are the n_basis integers
        out = tmp_path / "out"
        assert run("sweep", "--mu-values", "0.6", "--n-basis-values", "30:40:10", "--trials", "1",
                   "--window", "20", "--horizon", "2", "--seed", "9",
                   "--output-dir", str(out)) == 0
        assert strict_json((out / "sweep.json").read_text())["run"]["n_basis_values"] == [30, 40]
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["30", "40"]

    def test_range_runs_no_value_past_stop(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--mu-values", "0.5:1.0:0.3", "--lambda-values", "1e-14:3e-14:1e-14",
                   "--trials", "1", "--window", "40", "--horizon", "2", "--seed", "1",
                   "--output-dir", str(out)) == 0
        rows = [row.split(",")[:2] for row in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert rows == [[mu, lam] for lam in ("1e-14", "2e-14", "3e-14") for mu in ("0.5", "0.8")]

    def test_format_option_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", "--mu-values", "0.6", "--trials", "1", "--window", "40",
                   "--horizon", "2", "--seed", "9", "--format", "json",
                   "--output-dir", str(out)) == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_non_finite_cells_fail_in_both_files(self, tmp_path):
        # paths near 1e307: every forecast's squared error overflows
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            assert run("sweep", "--mu-values", "0.6", "--trials", "2", "--window", "20",
                       "--horizon", "2", "--seed", "1", "--offset", "1e307",
                       "--output-dir", str(out)) == 0
        assert (out / "sweep.csv").read_text().splitlines()[1] == "0.6,1.0,200,,0"
        [cell] = strict_json((out / "sweep.json").read_text())["cells"]
        assert cell["error"] == "squared forecast error is not finite"


class TestParsing:
    def test_unknown_subcommand_is_validation_error(self):
        assert run("frobnicate") == 1

    def test_help_shows_defaults(self, capsys):
        assert main(["forecast", "--help"]) == 0
        text = capsys.readouterr().out
        for token in ("0.6", "200", "1000", "0.1"):
            assert token in text

    @pytest.mark.parametrize("command", ["forecast", "experiment", "sweep", "simulate"])
    def test_help_of_every_command(self, capsys, command):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert [line.split()[0] for line in text.splitlines()
                if line.lstrip().startswith("--output-dir")] == ["--output-dir"]
        assert "--n-harmonics" not in text

    def test_defaults_are_the_library_defaults(self):
        parser = build_parser()
        spec = CsvSpec("input.csv")
        for argv in (["forecast", "--method", "salsa"], ["experiment", "--horizon", "7"]):
            args = parser.parse_args([*argv, "--input", "input.csv"])
            assert (args.column, args.skip_header, args.missing_policy) == (
                spec.column, spec.skip_header, spec.missing_policy)
            assert args.window == ExperimentConfig(horizon=7).window_len
            assert _method_params(args, METHOD_ORDER) == {
                "salsa": SalsaParams(), "causal": CausalParams(), "linear": LinearParams()}
        sweep = parser.parse_args(["sweep", "--seed", "0"])
        grid = SweepGrid(mu_values=(0.6,))
        assert (sweep.window, sweep.horizon) == (grid.window, grid.horizon)
        for args in (sweep, parser.parse_args(["simulate", "--length", "10", "--seed", "0"])):
            assert _sim_params(args, 10) == SimParams(length=10)

    def test_module_entry_point(self):
        src = Path(sigcast.cli.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "sigcast.cli"]
        done = subprocess.run([*command, "--help"], env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0
        assert "forecast" in done.stdout
        done = subprocess.run([*command, "frobnicate"], env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 1
        assert "invalid choice: 'frobnicate'" in done.stderr

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_options_of_one_call_do_not_reach_the_next(self, tmp_path):
        src = tmp_path / "input.csv"
        write_series_csv(src, np.arange(120.0))
        args = ("forecast", "--input", str(src), "--column", "value", "--method", "linear",
                "--output-dir", str(tmp_path))
        for options, window in ((("--window", "50"), 50), ((), 91)):
            assert run(*args, *options) == 0
            assert json.loads((tmp_path / "forecast_params.json").read_text())["window"] == window

    @pytest.mark.parametrize("text, values", [
        ("0.5:1.0:0.3", (0.5, 0.8)),
        ("0:1:0.6", (0.0, 0.6)),
        ("1e-14:3e-14:1e-14", (1e-14, 2e-14, 3e-14)),
        ("0.1:2.0:0.1", tuple(round(0.1 * i, 1) for i in range(1, 21))),
        ("100:300:50", (100.0, 150.0, 200.0, 250.0, 300.0)),
        ("0:1:0.4", (0.0, 0.4, 0.8)),
        ("0.3:0.9:0.3", (0.3, 0.6, 0.9)),
        ("2:2:1", (2.0,)),
        ("0:0.1234567890126:0.1234567890126", (0.0, 0.1234567890126)),
    ], ids=["past_stop", "past_stop_from_zero", "small_values", "stop_kept", "integral",
            "step_not_dividing", "float_steps", "one_value", "stop_of_13_digits"])
    def test_grid_range_is_inclusive_and_never_past_stop(self, text, values):
        from sigcast.cli import _parse_grid_values

        assert _parse_grid_values(text) == values

    def test_grid_range_syntax(self):
        from sigcast.cli import _parse_grid_values

        assert _parse_grid_values("0.1:0.5:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5)
        assert _parse_grid_values("1,2,5") == (1.0, 2.0, 5.0)
        with pytest.raises(ValueError):
            _parse_grid_values("1:2")
