"""Core time-series containers, summary statistics and residual metrics.

Everything downstream (the forecasting engines, the rolling-window harness,
the CLI) passes data around as :class:`TimeSeries` or bare float arrays and
scores forecasts with :func:`l2_residual`.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeSeries",
    "Window",
    "SummaryStats",
    "ResidualReport",
    "summary_stats",
    "l2_residual",
    "rolling_windows",
]


def check_count(name: str, value, low: int = 1) -> None:
    """The one count rule: raise ValueError unless `value` is an integer
    (Python or numpy, never a float or a bool) of at least `low`."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_real(name: str, value) -> None:
    """The one scalar rule: raise ValueError unless `value` is one real
    number (a Python or numpy integer or float, never a bool, a string, a
    complex number or an array). Range checks are the caller's."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_samples(name: str, values) -> np.ndarray:
    """The one sample rule: `values` as a float64 array of shape (K,) or
    (B, K) with K >= 1, every value finite and real (a complex array passes
    as its real part when every imaginary part is zero, and strings or bytes
    never pass); ValueError naming `name` otherwise. A float64 array is
    returned as it is, not copied."""
    vals = np.asarray(values)
    # numpy would parse numeric strings and bytes as numbers
    if vals.dtype.kind in "US" or (
        vals.dtype == object and any(isinstance(v, (str, bytes)) for v in vals.flat)
    ):
        raise ValueError(f"{name} must be real")
    if np.iscomplexobj(vals):
        if np.any(vals.imag != 0):
            raise ValueError(f"{name} must be real")
        vals = vals.real
    try:
        vals = np.asarray(vals, dtype=float)
    except (TypeError, ValueError):
        # an object array holding a complex number
        raise ValueError(f"{name} must be real") from None
    if vals.ndim not in (1, 2) or vals.shape[-1] < 1:
        raise ValueError(f"{name} must have shape (K,) or (B, K) with K >= 1, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must be finite")
    return vals


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued sequence.

    values : finite samples, stored as a read-only float64 array
    """

    values: np.ndarray

    def __post_init__(self):
        vals = check_samples("values", self.values)
        if vals.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {vals.shape}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Window:
    """Inclusive index range [q, s] marking one history window."""

    q: int
    s: int

    def __post_init__(self):
        if self.q > self.s:
            raise ValueError(f"window start {self.q} exceeds end {self.s}")


@dataclass(frozen=True)
class SummaryStats:
    """Min/Max/Mean/STD/Range of a sample, in series units.

    std uses the sample convention (n-1 denominator); a length-1 sample
    reports std 0.
    """

    min: float
    max: float
    mean: float
    std: float
    range: float


@dataclass(frozen=True)
class ResidualReport:
    """Sum of squared forecast errors and its per-point average."""

    total_l2: float
    per_point: float
    n_points: int


def summary_stats(values) -> SummaryStats:
    """Five-number summary (min, max, mean, sample std, range) of a 1-D array-like.

    Raises on empty input.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("empty input")
    lo = float(np.min(vals))
    hi = float(np.max(vals))
    std = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
    return SummaryStats(min=lo, max=hi, mean=float(np.mean(vals)), std=std, range=hi - lo)


def l2_residual(forecast, actual) -> ResidualReport:
    """Sum of squared differences between forecast and actual (no square root).

    per_point is total_l2 divided by the number of points.
    """
    fc = np.asarray(forecast, dtype=float)
    ac = np.asarray(actual, dtype=float)
    if fc.shape != ac.shape:
        raise ValueError(f"length mismatch: forecast {fc.shape} vs actual {ac.shape}")
    if fc.size == 0:
        raise ValueError("empty input")
    total = float(np.sum((fc - ac) ** 2))
    return ResidualReport(total_l2=total, per_point=total / fc.size, n_points=int(fc.size))


def rolling_windows(
    series: TimeSeries, window_len: int, horizon: int, stride: int = 1
) -> np.ndarray:
    """Start offsets of the history windows, as an int array.

    Windows start at offsets 0, stride, 2*stride, ... for as long as the
    horizon-length truth segment still fits inside the series, giving
    floor((len - window_len - horizon) / stride) + 1 windows. The window
    starting at q covers [q, q + window_len - 1] and its truth is the next
    `horizon` samples.
    """
    check_count("window_len", window_len)
    check_count("horizon", horizon)
    check_count("stride", stride)
    n = len(series)
    if window_len + horizon > n:
        raise ValueError(
            f"series too short: need >= {window_len + horizon} samples, have {n}"
        )
    return np.arange(0, n - window_len - horizon + 1, stride)
