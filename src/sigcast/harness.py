"""Rolling-window comparative forecasting experiments.

Slides a history window across a series, forecasts the next `horizon`
samples with each enabled method, concatenates the forecasts into aligned
tracks, and reports L2 residuals plus the five-number summary of every track
against the raw truth over the same span.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .baselines import LinearParams, linear_forecast
from .causal import CausalParams, causal_forecast, moving_average
from .ingest import csv_text
from .salsa import SalsaParams, salsa_forecast
from .series import (
    ResidualReport,
    SummaryStats,
    TimeSeries,
    l2_residual,
    rolling_windows,
    summary_stats,
)

__all__ = [
    "METHOD_ORDER",
    "ExperimentConfig",
    "ExperimentResult",
    "forecast",
    "run_experiment",
    "render_report",
    "render_plot_csv",
]

# column titles of the comparison tables, in column order after the raw data
_DISPLAY = {"causal": "Causal Forecast", "salsa": "Salsa Forecast", "linear": "Linear Forecast"}
METHOD_ORDER = tuple(_DISPLAY)


def forecast(method: str, history, horizon: int, params, presmoothed=None) -> np.ndarray:
    """Forecast `horizon` samples past a history of shape (K,) or (B, K).

    Row i of a (B, horizon) result equals the call on row i alone. `params`
    is the method's parameter object; `presmoothed`, shaped like `history`,
    goes to the causal method only (see :func:`causal_forecast`). This is
    the one place that dispatches on a method name; the forecasters are
    module globals looked up on every call, so rebinding them here
    (perfbench's tracer does) takes effect.
    """
    if method == "salsa":
        return salsa_forecast(history, horizon, params)
    if method == "causal":
        return causal_forecast(history, horizon, params, presmoothed)
    if method == "linear":
        return linear_forecast(history, horizon, params)
    raise ValueError(f"unknown method: {method!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Rolling-window experiment settings.

    stride defaults to the horizon (non-overlapping forecast segments).
    lookahead_smoothing smooths the entire series once up front, so each
    window's smoothed values can see neighbouring (including future)
    samples; the default smooths strictly within each window.
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
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.window_len < 1:
            raise ValueError(f"window_len must be >= 1, got {self.window_len}")
        if self.stride is None:
            object.__setattr__(self, "stride", self.horizon)
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
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
        # each enabled method's length precondition, so no run fails on every window
        window, horizon = self.window_len, self.horizon
        for method, ok, need in (
            ("causal", window == self.causal.window_len,
             f"a window of 2*n_harmonics+1 = {self.causal.window_len}"),
            ("salsa", window + horizon <= self.salsa.n_basis,
             f"window + horizon <= n_basis = {self.salsa.n_basis}"),
            ("linear", window >= self.linear.min_history,
             f"a window of at least {self.linear.min_history}"),
        ):
            if method in self.methods and not ok:
                raise ValueError(f"{method} needs {need}; got window {window}, horizon {horizon}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    n_windows: int
    target_indices: np.ndarray
    truth_track: np.ndarray
    tracks: dict[str, np.ndarray]
    residuals: dict[str, ResidualReport | None]
    track_stats: dict[str, SummaryStats | None]
    truth_stats: SummaryStats
    wall_time: dict[str, float]
    failures: dict[str, list[int]]
    smoothed_series: np.ndarray


def run_experiment(series: TimeSeries, config: ExperimentConfig) -> ExperimentResult:
    """Run every enabled method over all rolling windows of the series.

    The windows are stacked and each method forecasts the whole stack in one
    call. A window whose forecast has a non-finite value is a failure: it is
    recorded in result.failures and its track values are NaN, so scoring
    skips it. A method whose call fails with a ValueError or ArithmeticError
    has every window failed; a method with no window left has residuals and
    track statistics None. Any other exception propagates.
    """
    starts = rolling_windows(series, config.window_len, config.horizon, config.stride)
    n_win = len(starts)
    horizon = config.horizon
    target_idx = starts[:, None] + config.window_len + np.arange(horizon)

    # presentation curve, and the smoothed source for lookahead mode
    full_smoothed = moving_average(series.values, config.causal.ma_width)
    # the windows are copied from strided views; an index array would be as large
    histories = sliding_window_view(series.values, config.window_len)[starts]
    presmoothed = (
        sliding_window_view(full_smoothed, config.window_len)[starts]
        if config.lookahead_smoothing else None
    )
    truth_track = series.values[target_idx].reshape(-1)

    tracks, failures, wall, residuals, track_stats = {}, {}, {}, {}, {}
    for method in config.methods:
        t0 = time.perf_counter()
        try:
            fc = forecast(method, histories, horizon, getattr(config, method), presmoothed)
        except (ValueError, ArithmeticError):
            fc = np.full((n_win, horizon), np.nan)
        failed = ~np.isfinite(fc).all(axis=1)
        failures[method] = np.flatnonzero(failed).tolist()
        track = np.where(failed[:, None], np.nan, fc).reshape(n_win * horizon)
        wall[method] = time.perf_counter() - t0
        ok = ~np.isnan(track)
        residuals[method] = l2_residual(track[ok], truth_track[ok]) if ok.any() else None
        track_stats[method] = summary_stats(track[ok]) if ok.any() else None
        tracks[method] = track

    return ExperimentResult(
        config=config,
        n_windows=n_win,
        target_indices=target_idx.reshape(-1),
        truth_track=truth_track,
        tracks=tracks,
        residuals=residuals,
        track_stats=track_stats,
        truth_stats=summary_stats(truth_track),
        wall_time=wall,
        failures=failures,
        smoothed_series=full_smoothed,
    )


def _table_cells(result: ExperimentResult) -> tuple[list[str], list[list]]:
    """Header and rows of the comparison table, raw data column first."""
    methods = result.config.methods
    header = ["Data Type", "Raw Data"] + [_DISPLAY[m] for m in methods]

    def stat_row(label, attr):
        row = [label, getattr(result.truth_stats, attr)]
        for m in methods:
            st = result.track_stats[m]
            row.append(None if st is None else getattr(st, attr))
        return row

    rows = [
        stat_row("Min", "min"),
        stat_row("Max", "max"),
        stat_row("Mean", "mean"),
        stat_row("STD", "std"),
        stat_row("Range", "range"),
    ]
    res_total = ["Total L2 residual", None]
    res_pp = ["Total L2 residual per point", None]
    for m in methods:
        rep = result.residuals[m]
        res_total.append(None if rep is None else rep.total_l2)
        res_pp.append(None if rep is None else rep.per_point)
    rows.append(res_total)
    rows.append(res_pp)
    return header, rows


def render_report(result: ExperimentResult, fmt: str = "text") -> str:
    """Comparison table in text, csv or json form.

    Rows: Min/Max/Mean/STD/Range and the total / per-point L2 residuals.
    Columns: raw truth over the forecast span, then one per method.
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
        return csv_text(header, rows)

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
    then one forecast-track column per method. Failed windows leave empty
    cells.
    """
    methods = result.config.methods
    idx = result.target_indices
    columns = [idx.tolist(), result.truth_track.tolist(), result.smoothed_series[idx].tolist()]
    for m in methods:
        track = result.tracks[m]
        columns.append(np.where(np.isnan(track), None, track).tolist())
    return csv_text(["index", "raw", "smoothed", *methods], zip(*columns))
