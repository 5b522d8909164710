"""Every CSV writer against the per-cell writer it replaced.

The `_reference_*` functions are the earlier writers, which formatted each
cell by hand (repr of a float, "" for a missing value). The properties
check that the writers built on `ingest.csv_text` give the same bytes,
including for NaN (failed) track cells, +-inf, -0.0, subnormals, +-1e308
and integral floats, and that the written files read back bit for bit.
`csv_text` itself, which takes a table column by column and joins
all-string tables without `csv.writer`, is checked against a plain
`csv.writer` over the rows of the columns, on cells that need quoting.
"""

import csv
import io
import tempfile
from dataclasses import astuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigcast.cli
import sigcast.harness
import sigcast.ingest
from sigcast.baselines import linear_forecast
from sigcast.harness import (
    METHOD_ORDER,
    ExperimentConfig,
    ExperimentResult,
    _table_cells,
    render_plot_csv,
    render_report,
    run_experiment,
)
from sigcast.ingest import CsvSpec, csv_text, read_csv_column, write_csv
from sigcast.montecarlo import SimParams, SweepGrid, SweepRow, SweepTable, generate_path
from sigcast.series import ResidualReport, SummaryStats, TimeSeries


def _reference_csv_text(header, columns):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


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
    def cell(v):
        return repr(float(v)) if np.isfinite(v) else ""

    methods = result.config.methods
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "raw", "smoothed"] + list(methods))
    smoothed = result.smoothed_series
    for i, idx in enumerate(result.target_indices):
        row = [int(idx), cell(result.truth_track[i]), cell(smoothed[idx])]
        row += [cell(result.tracks[m][i]) for m in methods]
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
# a plot value: +-inf is an empty cell, and -0.0 keeps its sign
plot_value = st.one_of(finite, st.sampled_from([np.inf, -np.inf, -0.0]))


def _stats(draw):
    lo, hi, mean, std, rng = (draw(scalar) for _ in range(5))
    return SummaryStats(min=lo, max=hi, mean=mean, std=std, range=rng)


@st.composite
def results(draw):
    """An ExperimentResult with arbitrary values; track cells NaN where failed.

    The raw series is read either at arbitrary indices, which repeat and
    come in any order, or at the targets of overlapping windows, as
    run_experiment lays them out; its values include +-inf and -0.0.
    """
    methods = tuple(m for m in METHOD_ORDER if draw(st.booleans())) or ("linear",)
    config = ExperimentConfig(horizon=2, methods=methods)
    if draw(st.booleans()):
        horizon = draw(st.integers(2, 6))
        stride = draw(st.integers(1, horizon - 1))
        window = draw(st.integers(1, 5))
        series = np.array(draw(st.lists(plot_value, min_size=window + horizon, max_size=40)))
        starts = np.arange(0, series.size - window - horizon + 1, stride)
        target_indices = (starts[:, None] + window + np.arange(horizon)).reshape(-1)
    else:
        series = np.array(draw(st.lists(plot_value, min_size=1, max_size=40)))
        target_indices = np.array(draw(st.lists(
            st.integers(0, series.size - 1), min_size=1, max_size=30)), dtype=np.int64)
    smoothed = np.array(draw(st.lists(plot_value, min_size=series.size, max_size=series.size)))
    n = target_indices.size
    tracks, residuals, track_stats = {}, {}, {}
    for m in methods:
        cells = draw(st.lists(st.one_of(plot_value, st.just(np.nan)), min_size=n, max_size=n))
        tracks[m] = np.array(cells)
        if draw(st.booleans()):
            residuals[m], track_stats[m] = None, None
        else:
            residuals[m] = ResidualReport(total_l2=draw(scalar), per_point=draw(scalar), n_points=n)
            track_stats[m] = _stats(draw)
    return ExperimentResult(
        config=config,
        n_windows=n,
        target_indices=target_indices,
        tracks=tracks,
        residuals=residuals,
        track_stats=track_stats,
        truth_stats=_stats(draw),
        wall_time={m: 0.0 for m in methods},
        failures={m: [] for m in methods},
        raw_series=series,
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


def test_plot_csv_of_stride_one_run_with_a_failed_window(monkeypatch):
    def one_failed_window(history, horizon, params):
        fc = linear_forecast(history, horizon, params).copy()
        fc[3, 1] = np.nan
        return fc

    monkeypatch.setattr(sigcast.harness, "linear_forecast", one_failed_window)
    series = generate_path(SimParams(length=120, seed=5))
    config = ExperimentConfig(horizon=5, stride=1, methods=("causal", "linear"))
    result = run_experiment(series, config)
    assert result.failures == {"causal": [], "linear": [3]}
    expected = _reference_render_plot_csv(result)
    # every plot cell is a string, so the table is joined without csv.writer
    with mock.patch.object(sigcast.ingest.csv, "writer", side_effect=AssertionError):
        text = render_plot_csv(result)
    assert text == expected
    rows = text.splitlines()[1:]
    assert len(rows) == 25 * 5
    assert [i for i, row in enumerate(rows) if row.endswith(",")] == list(range(15, 20))


_plain_cell = st.text(st.characters(blacklist_characters=',"\r\n'), max_size=4)
# cells the writer quotes or formats
_odd_cell = st.one_of(
    st.sampled_from([",", "a,b", " , ", '"', 'a"b', "\r", "\n", "a\r\nb", ",\n"]),
    st.sampled_from([0, -7, 0.5, float("nan"), None]),
    st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a"]), max_size=4),
    st.integers(), st.floats(),
)


@st.composite
def tables(draw):
    """A header and 1-4 columns of 0-5 rows, each column a tuple or a list.

    The cells are strings without a comma, quote or line break, with up to
    three, header cells included, swapped for a cell the writer quotes or
    formats.
    """
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 5))
    table = [draw(st.lists(_plain_cell, min_size=size, max_size=size))
             for size in [width] + [n_rows] * width]
    for odd in draw(st.lists(_odd_cell, max_size=3)):
        cells = draw(st.sampled_from(table))
        if cells:
            cells[draw(st.integers(0, len(cells) - 1))] = odd
    header, *columns = table
    return header, [draw(st.sampled_from([tuple, list]))(column) for column in columns]


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [["a,b"], ["c"]]),
    (["a"], [["a,b"]]),
    (["a", "b"], [['"'], [""]]),
    (["a", "b"], [["\r"], [""]]),
    (["a", "b"], [["a\nb"], [""]]),
    (["a"], [[""]]),
    ([], []),
    ([""], [[]]),
    (["a", "b"], [[1, None], [0.5, "x"]]),
    (["a,b", "c"], [["x"], ["y"]]),
    (['a"', "c"], [["x"], ["y"]]),
    (["a\r", "c"], [["x"], ["y"]]),
    (["a", "\n"], [["x"], ["y"]]),
    (["a", 1], [["x"], ["y"]]),
    (["a"], [["x", "y", ""]]),
    (["a", "b"], [[], []]),
    (("a", "b"), (("x", "y"), ["", "z"])),
    (["step", "value"], (range(1, 3), [0.5, -0.0])),
], ids=["comma_in_narrow_row", "comma_in_one_cell_row", "quote", "cr", "lf",
        "one_empty_cell", "empty_row", "one_empty_header_cell", "not_strings",
        "comma_in_header", "quote_in_header", "cr_in_header", "lf_in_header",
        "header_not_string", "one_column", "zero_rows", "tuple_and_list_columns",
        "range_column"])
def test_csv_text_near_misses_match_csv_writer(header, columns):
    assert csv_text(header, columns) == _reference_csv_text(header, columns)


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [["x"], ["y", "z"]]),
    (["a", "b"], [["x", "y"], []]),
    (["a", "b", "c"], [["x"], ["y"]]),
    (["a"], [["x"], ["y"]]),
    (["a"], []),
    ([], [["x"]]),
], ids=["longer_second_column", "empty_second_column", "wider_header", "narrower_header",
        "header_without_columns", "columns_without_header"])
def test_csv_text_refuses_a_ragged_table(header, columns):
    with pytest.raises(ValueError, match="one column per header cell"):
        csv_text(header, columns)


@settings(max_examples=500, deadline=None)
@given(tables())
def test_csv_text_matches_csv_writer(table):
    header, columns = table
    expected = _reference_csv_text(header, columns)
    assert csv_text(header, columns) == expected
    cells = [*header, *(cell for column in columns for cell in column)]
    if len(columns) > 1 and all(isinstance(c, str) and not set(c) & set(',"\r\n')
                                for c in cells):
        # a table the writer would not quote is joined without it
        with mock.patch.object(sigcast.ingest.csv, "writer", side_effect=AssertionError):
            assert csv_text(header, columns) == expected


@settings(max_examples=150, deadline=None)
@given(results())
def test_report_csv_matches_per_cell_writer(result):
    assert render_report(result, "csv") == _reference_render_report_csv(result)


@settings(max_examples=150, deadline=None)
@given(st.lists(sweep_rows, max_size=20))
def test_sweep_csv_matches_per_cell_writer(rows):
    table = SweepTable(rows=rows)
    assert table.to_csv() == _reference_sweep_csv(table)


@st.composite
def sweep_records(draw):
    """A grid, AR settings, and rows of a record for them: some cells, in any order."""
    grid = SweepGrid(
        mu_values=tuple(draw(st.lists(st.floats(5e-324, 1e308), min_size=1, max_size=3,
                                      unique=True))),
        lambda_values=tuple(draw(st.lists(st.floats(0.0, 1e308) | st.just(-0.0), min_size=1,
                                          max_size=2, unique=True))),
        n_basis_values=tuple(draw(st.lists(st.integers(2, 10**6), min_size=1, max_size=2,
                                           unique=True))),
        trials=draw(st.integers(1, 10**6)), horizon=1, window=1,
    )
    sim = SimParams(length=2, offset=draw(finite), seed=draw(st.integers(0, 2**64)))
    cells = draw(st.permutations(grid.cells()))[: draw(st.integers(0, len(grid.cells())))]
    rows = [
        draw(st.builds(SweepRow, st.just(mu), st.just(lam), st.just(n_basis), finite,
                       st.just(grid.trials))
             | st.builds(SweepRow, st.just(mu), st.just(lam), st.just(n_basis), st.none(),
                         st.just(0), st.text()))
        for mu, lam, n_basis in cells
    ]
    return grid, sim, rows


@settings(max_examples=150, deadline=None)
@given(sweep_records())
def test_sweep_record_round_trip(record):
    grid, sim, rows = record
    text = SweepTable(rows=rows).to_json(grid, sim)
    back = SweepTable.from_json(text, grid, sim)
    assert back.to_json(grid, sim) == text
    assert back.to_csv() == SweepTable(rows=rows).to_csv()

    def cells(row):  # repr tells -0.0 from 0.0
        return repr(astuple(row))

    assert [cells(r) for r in back.rows] == [cells(r) for r in rows]


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
