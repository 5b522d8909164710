"""Linear extrapolation baselines.

Two variants of the trend line through the window's end:

* two_point_span: slope from the endpoints of an A-point lookback,
  slope = (z[t0] - z[t0 - A]) / A
* code_slope: one-step difference spread over the horizon,
  slope = (z[t0] - z[t0 - 1]) / horizon

Both forecast z[t0] + slope * j for j = 1..horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import check_count, check_samples

__all__ = ["LinearParams", "linear_forecast"]

VARIANTS = ("two_point_span", "code_slope")


@dataclass(frozen=True)
class LinearParams:
    lookback: int = 1
    variant: str = "code_slope"

    def __post_init__(self):
        check_count("lookback", self.lookback)
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    def check_window(self, window: int, horizon: int) -> None:
        """Raise ValueError unless the variant can extrapolate from `window` samples."""
        need = self.lookback + 1 if self.variant == "two_point_span" else 2
        if window < need:
            raise ValueError(
                f"linear needs a window of at least {need}; got window {window}, horizon {horizon}"
            )


def linear_forecast(history, horizon: int, params: LinearParams = LinearParams()) -> np.ndarray:
    """Forecast `horizon` samples past a history of shape (K,) or (B, K).

    Each row is extrapolated on its own; a stack gives a (B, horizon) result.
    A history that is not finite raises ValueError.
    """
    hist = check_samples("history", history)
    check_count("horizon", horizon)
    params.check_window(hist.shape[-1], horizon)
    if params.variant == "two_point_span":
        slope = (hist[..., -1] - hist[..., -1 - params.lookback]) / params.lookback
    else:
        slope = (hist[..., -1] - hist[..., -2]) / horizon
    return hist[..., -1:] + np.multiply.outer(slope, np.arange(1, horizon + 1, dtype=float))
