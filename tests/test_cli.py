import csv
import json

import numpy as np
import pytest

import sigcast.harness
from sigcast.baselines import linear_forecast
from sigcast.causal import causal_forecast
from sigcast.cli import main
from sigcast.ingest import CsvSpec, read_csv_column, write_csv
from sigcast.montecarlo import SimParams, generate_path
from sigcast.salsa import salsa_forecast, synthesize


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

    def test_seed_generated_and_printed_when_omitted(self, tmp_path, capsys):
        assert run("simulate", "--length", "10", "--output-dir", str(tmp_path)) == 0
        assert "seed:" in capsys.readouterr().err

    def test_format_option_is_usage_error(self, tmp_path, capsys):
        assert run("simulate", "--length", "10", "--seed", "1", "--format", "json",
                   "--output-dir", str(tmp_path)) == 1
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()


class TestForecast:
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
        meta = json.loads((out / "forecast_params.json").read_text())
        assert meta["method"] == "linear"

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("forecast", "--input", str(tmp_path / "nope.csv"),
                   "--method", "linear", "--output-dir", str(tmp_path)) == 2

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


class TestExperiment:
    def test_window_count_reported(self, tmp_path):
        src = tmp_path / "input.csv"
        write_series_csv(src, generate_path(SimParams(length=345, seed=4)).values)
        out = tmp_path / "out"
        code = run("experiment", "--input", str(src), "--column", "value",
                   "--methods", "linear", "--window", "91", "--horizon", "2",
                   "--stride", "2", "--format", "json", "--output-dir", str(out))
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
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
            ("--n-harmonics", "10"),
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

    def test_resume_matches_uninterrupted(self, tmp_path):
        args = ["--mu-values", "0.4,0.8,1.2", "--trials", "2", "--window", "40",
                "--horizon", "2", "--seed", "31"]
        full_dir = tmp_path / "full"
        assert run("sweep", *args, "--output-dir", str(full_dir)) == 0
        full = (full_dir / "sweep.csv").read_text()

        resume_dir = tmp_path / "resumed"
        resume_dir.mkdir()
        # simulate an interrupted run: header plus the first completed cell
        partial = "\n".join(full.splitlines()[:2]) + "\n"
        (resume_dir / "sweep.csv").write_text(partial)
        assert run("sweep", *args, "--resume", "--output-dir", str(resume_dir)) == 0
        assert (resume_dir / "sweep.csv").read_text() == full

    def test_rows_saved_as_each_cell_finishes(self, tmp_path, monkeypatch):
        import sigcast.cli

        out = tmp_path / "out"
        saved = []
        real_run_sweep = sigcast.cli.run_sweep

        def spy(*args, on_row, **kwargs):
            def record(row):
                on_row(row)
                saved.append((out / "sweep.csv").read_text())
            return real_run_sweep(*args, on_row=record, **kwargs)

        monkeypatch.setattr(sigcast.cli, "run_sweep", spy)
        assert run("sweep", "--mu-values", "0.4,0.8", "--trials", "1", "--window", "40",
                   "--horizon", "2", "--seed", "9", "--output-dir", str(out)) == 0
        lines = (out / "sweep.csv").read_text().splitlines(keepends=True)
        assert saved == ["".join(lines[:2]), "".join(lines)]

    def test_resume_truncated_row_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        header = "mu,lambda,n_basis,mean_residual_per_point,trials_run\n"
        (out / "sweep.csv").write_text(header + "0.5,1.0,20")
        assert run("sweep", "--mu-values", "0.5", "--trials", "1", "--window", "10",
                   "--horizon", "2", "--seed", "9", "--resume",
                   "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "Traceback" not in err

    def test_resume_malformed_csv_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        header = "mu,lambda,n_basis,mean_residual_per_point,trials_run\n"
        (out / "sweep.csv").write_text(header + "0.5,1.0,20," + "9" * 200_000 + ",1\n")
        assert run("sweep", "--mu-values", "0.5", "--trials", "1", "--window", "10",
                   "--horizon", "2", "--seed", "9", "--resume",
                   "--output-dir", str(out)) == 1
        err = capsys.readouterr().err
        assert "malformed sweep table row at line 2" in err
        assert "Traceback" not in err

    def test_resume_without_seed_is_validation_error(self, tmp_path):
        out = tmp_path / "out"
        args = ["--mu-values", "0.6", "--trials", "1", "--window", "40",
                "--horizon", "2", "--output-dir", str(out)]
        assert run("sweep", *args, "--seed", "9") == 0
        before = (out / "sweep.csv").read_text()
        assert run("sweep", *args, "--resume") == 1
        assert (out / "sweep.csv").read_text() == before

    @pytest.mark.parametrize(
        "grid, named",
        [
            (("--n-basis-values", "0"), "got 0"),
            (("--n-basis-values", "200,20"), "n_basis = 20"),
            (("--mu-values", "0.6,0"), "got 0.0"),
            (("--mu-values", "0.5,0.5"), "mu_values repeats a value"),
        ],
        ids=["n_basis_zero", "n_basis_below_window", "mu_zero", "mu_repeated"],
    )
    def test_invalid_grid_is_validation_error(self, tmp_path, capsys, grid, named):
        out = tmp_path / "out"
        assert run("sweep", *grid, "--trials", "1", "--window", "40", "--horizon", "2",
                   "--seed", "9", "--output-dir", str(out)) == 1
        assert named in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_json_output(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--mu-values", "0.6", "--trials", "1", "--window", "40",
                   "--horizon", "2", "--seed", "9", "--format", "json",
                   "--output-dir", str(out)) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload[0]["mu"] == 0.6


class TestParsing:
    def test_unknown_subcommand_is_validation_error(self):
        assert run("frobnicate") == 1

    def test_help_shows_defaults(self, capsys):
        assert main(["forecast", "--help"]) == 0
        text = capsys.readouterr().out
        for token in ("0.6", "200", "1000", "0.1"):
            assert token in text

    def test_grid_range_syntax(self):
        from sigcast.cli import _parse_grid_values

        assert _parse_grid_values("0.1:0.5:0.1") == (0.1, 0.2, 0.3, 0.4, 0.5)
        assert _parse_grid_values("1,2,5") == (1.0, 2.0, 5.0)
        with pytest.raises(ValueError):
            _parse_grid_values("1:2")
