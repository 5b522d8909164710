"""Rolling-window comparative forecasting experiments.

Slides a history window across a series, forecasts the next `horizon`
samples with each enabled method, concatenates the forecasts into aligned
tracks, and reports L2 residuals plus the five-number summary of every track
against the raw truth over the same span.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .baselines import LinearParams, linear_forecast
from .causal import CausalParams, causal_forecast, moving_average
from .ingest import csv_text, float_cells
from .salsa import SalsaParams, salsa_forecast
from .series import (
    ResidualReport,
    SummaryStats,
    TimeSeries,
    check_count,
    l2_residual,
    rolling_windows,
    summary_stats,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "render_report",
    "render_plot_csv",
]

# column titles of the comparison tables, in column order after the raw data
_DISPLAY = {"causal": "Causal Forecast", "salsa": "Salsa Forecast", "linear": "Linear Forecast"}
METHOD_ORDER = tuple(_DISPLAY)


def forecast(method: str, history, horizon: int, params) -> np.ndarray:
    """Forecast `horizon` samples past a history of shape (K,) or (B, K).

    Row i of a (B, horizon) result equals the call on row i alone. `params`
    is the method's parameter object. This is the one place that dispatches
    on a method name; the forecasters are module globals looked up on every
    call, so rebinding them here (perfbench's tracer does) takes effect.
    """
    if method == "salsa":
        return salsa_forecast(history, horizon, params)
    if method == "causal":
        return causal_forecast(history, horizon, params)
    if method == "linear":
        return linear_forecast(history, horizon, params)
    raise ValueError(f"unknown method: {method!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Rolling-window experiment settings.

    stride defaults to the horizon (non-overlapping forecast segments).
    lookahead_smoothing smooths the entire series once up front, so each
    window's smoothed values can see neighbouring (including future)
    samples, and the causal method forecasts those windows with ma_width 1;
    the default smooths strictly within each window.
    """

    horizon: int
    window_len: int = 91
    stride: int | None = None
    methods: tuple[str, ...] = METHOD_ORDER
    salsa: SalsaParams = SalsaParams()
    causal: CausalParams = CausalParams()
    linear: LinearParams = LinearParams()
    lookahead_smoothing: bool = False

    def __post_init__(self):
        check_count("horizon", self.horizon)
        check_count("window_len", self.window_len)
        if self.stride is None:
            object.__setattr__(self, "stride", self.horizon)
        check_count("stride", self.stride)
        # a string would be read as its letters
        if not isinstance(self.methods, (tuple, list)):
            raise ValueError(f"methods must be a tuple or list, got {self.methods!r}")
        methods = tuple(self.methods)
        if not methods:
            raise ValueError("no methods")
        unknown = set(methods) - set(METHOD_ORDER)
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        # canonical table order regardless of how they were passed in
        object.__setattr__(
            self, "methods", tuple(m for m in METHOD_ORDER if m in methods)
        )
        # each enabled method's window rule, so no run fails on every window
        for method in self.methods:
            getattr(self, method).check_window(self.window_len, self.horizon)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    n_windows: int
    target_indices: np.ndarray
    tracks: dict[str, np.ndarray]
    residuals: dict[str, ResidualReport | None]
    track_stats: dict[str, SummaryStats | None]
    truth_stats: SummaryStats
    wall_time: dict[str, float]
    failures: dict[str, list[int]]
    raw_series: np.ndarray
    smoothed_series: np.ndarray

    @property
    def truth_track(self) -> np.ndarray:
        """The raw truth at every target index, aligned with the tracks."""
        return self.raw_series[self.target_indices]


# overflow in smoothing, forecasts or scores gives values that are not
# finite; those are failures or empty cells, so numpy need not warn of them
@np.errstate(over="ignore", invalid="ignore")
def run_experiment(series: TimeSeries, config: ExperimentConfig) -> ExperimentResult:
    """Run every enabled method over all rolling windows of the series.

    The windows are stacked and each method forecasts its finite windows in
    one call. A window whose history or forecast has a non-finite value is a
    failure: it is recorded in result.failures and its track values are NaN,
    so scoring skips it. A method whose call fails with a ValueError or
    ArithmeticError has every window failed; a method with no window left
    has residuals and track statistics None. Any other exception
    propagates. Statistics and residuals that overflow are kept as they
    are; the renderers leave them empty.
    """
    starts = rolling_windows(series, config.window_len, config.horizon, config.stride)
    n_win = len(starts)
    horizon = config.horizon
    target_idx = starts[:, None] + config.window_len + np.arange(horizon)

    # presentation curve, and the smoothed source for lookahead mode
    full_smoothed = moving_average(series.values, config.causal.ma_width)
    # the windows are copied from strided views; an index array would be as large
    raw = sliding_window_view(series.values, config.window_len)[starts]
    inputs = {m: (raw, getattr(config, m)) for m in config.methods}
    if config.lookahead_smoothing and "causal" in inputs:
        # the once-smoothed windows, which a moving average of width 1 leaves as they are
        inputs["causal"] = (sliding_window_view(full_smoothed, config.window_len)[starts],
                            replace(config.causal, ma_width=1))
    truth_track = series.values[target_idx].reshape(-1)

    tracks, failures, wall, residuals, track_stats = {}, {}, {}, {}, {}
    for method, (history, params) in inputs.items():
        t0 = time.perf_counter()
        fc = np.full((n_win, horizon), np.nan)
        # a window the once-smoothed series overflowed in fails alone
        finite = np.isfinite(history).all(axis=1)
        rows = slice(None) if finite.all() else finite
        try:
            fc[rows] = forecast(method, history[rows], horizon, params)
        except (ValueError, ArithmeticError):
            pass
        failed = ~np.isfinite(fc).all(axis=1)
        failures[method] = np.flatnonzero(failed).tolist()
        fc[failed] = np.nan
        track = fc.reshape(n_win * horizon)
        wall[method] = time.perf_counter() - t0
        ok = ~np.isnan(track)
        residuals[method] = l2_residual(track[ok], truth_track[ok]) if ok.any() else None
        track_stats[method] = summary_stats(track[ok]) if ok.any() else None
        tracks[method] = track

    return ExperimentResult(
        config=config,
        n_windows=n_win,
        target_indices=target_idx.reshape(-1),
        tracks=tracks,
        residuals=residuals,
        track_stats=track_stats,
        truth_stats=summary_stats(truth_track),
        wall_time=wall,
        failures=failures,
        raw_series=series.values,
        smoothed_series=full_smoothed,
    )


def _cell(obj, attr: str):
    """obj.attr as a table cell: None (empty) if obj is None or the value is not finite."""
    if obj is None or not math.isfinite(getattr(obj, attr)):
        return None
    return getattr(obj, attr)


def _table_cells(result: ExperimentResult) -> tuple[list[str], list[list]]:
    """Header and rows of the comparison table, raw data column first."""
    methods = result.config.methods
    header = ["Data Type", "Raw Data"] + [_DISPLAY[m] for m in methods]
    stats = [result.truth_stats] + [result.track_stats[m] for m in methods]
    reports = [None] + [result.residuals[m] for m in methods]
    rows = [
        [label] + [_cell(st, attr) for st in stats]
        for label, attr in (
            ("Min", "min"), ("Max", "max"), ("Mean", "mean"), ("STD", "std"), ("Range", "range")
        )
    ]
    rows += [
        [label] + [_cell(rep, attr) for rep in reports]
        for label, attr in (
            ("Total L2 residual", "total_l2"), ("Total L2 residual per point", "per_point")
        )
    ]
    return header, rows


def render_report(result: ExperimentResult, fmt: str = "text") -> str:
    """Comparison table in text, csv or json form.

    Rows: Min/Max/Mean/STD/Range and the total / per-point L2 residuals.
    Columns: raw truth over the forecast span, then one per method. A value
    that is not finite is no result: an empty cell (null in JSON).
    """
    header, rows = _table_cells(result)

    if fmt == "text":
        def show(v):
            if v is None:
                return ""
            return f"{v:.6g}" if isinstance(v, float) else str(v)

        cells = [header] + [[show(v) for v in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        lines = []
        for r_idx, row in enumerate(cells):
            lines.append(
                "  ".join(col.ljust(widths[i]) for i, col in enumerate(row)).rstrip()
            )
            if r_idx == 0:
                lines.append("  ".join("-" * widths[i] for i in range(len(widths))))
        meta = (
            f"windows={result.n_windows} horizon={result.config.horizon} "
            f"stride={result.config.stride} window_len={result.config.window_len}"
        )
        return "\n".join([meta] + lines) + "\n"

    if fmt == "csv":
        columns = list(zip(*rows))
        return csv_text(header, columns)

    if fmt == "json":
        payload = {
            "n_windows": result.n_windows,
            "horizon": result.config.horizon,
            "stride": result.config.stride,
            "window_len": result.config.window_len,
            "columns": header[1:],
            "rows": {
                row[0]: {col: row[i + 1] for i, col in enumerate(header[1:])}
                for row in rows
            },
            "failures": {m: result.failures[m] for m in result.config.methods},
            "wall_time_s": result.wall_time,
        }
        return json.dumps(payload, indent=2) + "\n"

    raise ValueError(f"unsupported format: {fmt!r}")


def render_plot_csv(result: ExperimentResult) -> str:
    """Plot-ready curves, one column each, aligned on the truth indices.

    Columns: series index, raw truth, the smoothed series at that index,
    then one forecast-track column per method. Failed windows, and any
    other value that is not finite, leave empty cells. At a stride below
    the horizon a series sample is the target of several windows, so the
    index, raw and smoothed cells are formatted once per distinct sample.
    Every cell reaches :func:`csv_text` as a string, so the table is joined
    directly.
    """
    methods = result.config.methods
    samples, where = np.unique(result.target_indices, return_inverse=True)
    shared = np.array([
        list(map(str, samples.tolist())),
        float_cells(result.raw_series[samples]),
        float_cells(result.smoothed_series[samples]),
    ], dtype=object)[:, where]
    columns = [*shared.tolist(), *(float_cells(result.tracks[m]) for m in methods)]
    return csv_text(["index", "raw", "smoothed", *methods], columns)
