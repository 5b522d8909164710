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

__all__ = ["LinearParams", "linear_forecast", "VARIANTS"]

VARIANTS = ("two_point_span", "code_slope")


@dataclass(frozen=True)
class LinearParams:
    lookback: int = 1
    variant: str = "code_slope"

    def __post_init__(self):
        if self.lookback < 1:
            raise ValueError(f"lookback must be >= 1, got {self.lookback}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def min_history(self) -> int:
        """Shortest history the variant can extrapolate from."""
        return self.lookback + 1 if self.variant == "two_point_span" else 2


def linear_forecast(history, horizon: int, params: LinearParams = LinearParams()) -> np.ndarray:
    """Forecast `horizon` samples past a history of shape (K,) or (B, K).

    Each row is extrapolated on its own; a stack gives a (B, horizon) result.
    """
    hist = np.asarray(history, dtype=float)
    if hist.ndim not in (1, 2):
        raise ValueError("history must have shape (K,) or (B, K)")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if hist.shape[-1] < params.min_history:
        raise ValueError(
            f"{params.variant} needs at least {params.min_history} samples, "
            f"have {hist.shape[-1]}"
        )
    if params.variant == "two_point_span":
        slope = (hist[..., -1] - hist[..., -1 - params.lookback]) / params.lookback
    else:
        slope = (hist[..., -1] - hist[..., -2]) / horizon
    return hist[..., -1:] + np.multiply.outer(slope, np.arange(1, horizon + 1, dtype=float))
