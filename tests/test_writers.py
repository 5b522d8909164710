"""Every CSV writer against the per-cell writer it replaced.

The `_reference_*` functions are the earlier writers, which formatted each
cell by hand (repr of a float, "" for a missing value). The properties
check that the writers built on `ingest.csv_text` give the same bytes,
including for NaN (failed) track cells, -0.0, subnormals, +-1e308 and
integral floats, and that the written files read back bit for bit.
"""

import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import sigcast.cli
from sigcast.harness import (
    METHOD_ORDER,
    ExperimentConfig,
    ExperimentResult,
    _table_cells,
    render_plot_csv,
    render_report,
)
from sigcast.ingest import CsvSpec, read_csv_column, write_csv
from sigcast.montecarlo import SweepRow, SweepTable
from sigcast.series import ResidualReport, SummaryStats, TimeSeries


def _reference_render_report_csv(result):
    header, rows = _table_cells(result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            ["" if v is None else (repr(v) if isinstance(v, float) else v) for v in row]
        )
    return buf.getvalue()


def _reference_render_plot_csv(result):
    methods = result.config.methods
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "raw", "smoothed"] + list(methods))
    smoothed = result.smoothed_series
    for i, idx in enumerate(result.target_indices):
        row = [int(idx), repr(float(result.truth_track[i])), repr(float(smoothed[idx]))]
        for m in methods:
            v = result.tracks[m][i]
            row.append("" if np.isnan(v) else repr(float(v)))
        writer.writerow(row)
    return buf.getvalue()


def _reference_sweep_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mu", "lambda", "n_basis", "mean_residual_per_point", "trials_run"])
    for row in table.rows:
        mean = "" if row.mean_residual_per_point is None else repr(row.mean_residual_per_point)
        writer.writerow([repr(row.mu), repr(row.lam), row.n_basis, mean, row.trials_run])
    return buf.getvalue()


def _reference_write_csv(series, path, value_header="value"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", value_header])
        for i, v in enumerate(series.values):
            writer.writerow([i, repr(float(v))])


def _reference_forecast_text(values, fmt):
    lines = [repr(float(v)) for v in values]
    if fmt == "csv":
        lines = ["step,value"] + [f"{j + 1},{v}" for j, v in enumerate(lines)]
    return "\n".join(lines) + "\n"


_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 80.0, -80.0, 1e16, 1e22, 0.1, 1 / 3,
]
finite = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))
# a scalar statistic may overflow to inf (squared residuals near the float limit)
scalar = st.one_of(finite, st.sampled_from([np.inf, -np.inf]))


def _stats(draw):
    lo, hi, mean, std, rng = (draw(scalar) for _ in range(5))
    return SummaryStats(min=lo, max=hi, mean=mean, std=std, range=rng)


@st.composite
def results(draw):
    """An ExperimentResult with arbitrary values; track cells NaN where failed."""
    methods = tuple(m for m in METHOD_ORDER if draw(st.booleans())) or ("linear",)
    config = ExperimentConfig(horizon=2, methods=methods)
    n = draw(st.integers(1, 30))
    smoothed = np.array(draw(st.lists(finite, min_size=1, max_size=40)))
    tracks, residuals, track_stats = {}, {}, {}
    for m in methods:
        cells = draw(st.lists(st.one_of(finite, st.just(np.nan)), min_size=n, max_size=n))
        tracks[m] = np.array(cells)
        if draw(st.booleans()):
            residuals[m], track_stats[m] = None, None
        else:
            residuals[m] = ResidualReport(total_l2=draw(scalar), per_point=draw(scalar), n_points=n)
            track_stats[m] = _stats(draw)
    return ExperimentResult(
        config=config,
        n_windows=n,
        target_indices=np.array(draw(st.lists(
            st.integers(0, smoothed.size - 1), min_size=n, max_size=n)), dtype=np.int64),
        truth_track=np.array(draw(st.lists(finite, min_size=n, max_size=n))),
        tracks=tracks,
        residuals=residuals,
        track_stats=track_stats,
        truth_stats=_stats(draw),
        wall_time={m: 0.0 for m in methods},
        failures={m: [] for m in methods},
        smoothed_series=smoothed,
    )


sweep_rows = st.builds(
    SweepRow,
    mu=finite,
    lam=finite,
    n_basis=st.integers(1, 10**6),
    mean_residual_per_point=st.one_of(st.none(), scalar, st.just(np.nan)),
    trials_run=st.integers(0, 10**6),
)


@settings(max_examples=150, deadline=None)
@given(results())
def test_plot_csv_matches_per_cell_writer(result):
    assert render_plot_csv(result) == _reference_render_plot_csv(result)


@settings(max_examples=150, deadline=None)
@given(results())
def test_report_csv_matches_per_cell_writer(result):
    assert render_report(result, "csv") == _reference_render_report_csv(result)


@settings(max_examples=150, deadline=None)
@given(st.lists(sweep_rows, max_size=20))
def test_sweep_csv_matches_per_cell_writer(rows):
    table = SweepTable(rows=rows)
    assert table.to_csv() == _reference_sweep_csv(table)


@settings(max_examples=150, deadline=None)
@given(st.lists(sweep_rows, max_size=20))
def test_sweep_csv_round_trip(rows):
    back = SweepTable.from_csv(SweepTable(rows=rows).to_csv()).rows

    def cells(row):  # repr tells -0.0 from 0.0 and matches NaN with NaN
        return repr((row.mu, row.lam, row.n_basis, row.mean_residual_per_point, row.trials_run))

    assert [cells(r) for r in back] == [cells(r) for r in rows]
    assert [r.error is None for r in back] == [r.mean_residual_per_point is not None for r in rows]


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, min_size=1, max_size=50))
def test_write_csv_matches_per_cell_writer_and_round_trips(values):
    series = TimeSeries(values=np.array(values))
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp, "new.csv"), Path(tmp, "old.csv")
        write_csv(series, new)
        _reference_write_csv(series, old)
        assert new.read_bytes() == old.read_bytes()
        back = read_csv_column(CsvSpec(path=new, column="value"))
    assert back.values.tobytes() == series.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(finite, min_size=1, max_size=12), st.sampled_from(["text", "csv"]))
def test_forecast_files_match_per_cell_writer(values, fmt):
    forecast = np.array(values)
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp, "in.csv")
        src.write_text("value\n" + "1.0\n" * 5)
        with mock.patch.object(sigcast.cli, "forecast", return_value=forecast):
            assert sigcast.cli.main([
                "forecast", "--input", str(src), "--column", "value", "--method", "linear",
                "--window", "5", "--horizon", str(forecast.size), "--format", fmt,
                "--output-dir", tmp,
            ]) == 0
        written = Path(tmp, f"forecast.{'txt' if fmt == 'text' else 'csv'}").read_bytes()
    assert written == _reference_forecast_text(forecast, fmt).encode()
