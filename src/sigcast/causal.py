"""Causal band-limited smoothing extrapolation.

A smoothed, mean-centered history window z(t), t = q..s, is projected onto
sinc harmonics with band limit omega:

    b_k = (omega/pi) * sum_t sinc(k*pi + omega*t) z(t),      k = -N..N
    R_km = (omega/pi)^2 * sum_t sinc(k*pi + omega*t) sinc(m*pi + omega*t)

The spectral weights solve the Tikhonov-regularized Gram system
(R + nu*I) y = b, and the fitted function

    xhat(t) = (omega/pi) * sum_k y_k sinc(k*pi + omega*t)

is evaluated past the window edge to extrapolate. Forecast values are
re-centered with the mean of the last three smoothed window samples, which
tracks the local level of wandering series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import Window

__all__ = [
    "CausalParams",
    "CausalCoefficients",
    "sinc",
    "moving_average",
    "qstar",
    "gram_matrix",
    "regularized_solve",
    "synthesize_causal",
    "causal_fit",
    "causal_forecast",
]

TAIL_MEAN_SAMPLES = 3


@dataclass(frozen=True)
class CausalParams:
    """Band limit, regularizer and window geometry.

    omega       : band limit in (0, pi]
    nu          : Tikhonov regularizer added to the Gram diagonal (> 0)
    n_harmonics : N; harmonics are indexed k = -N..N (2N+1 coefficients)
    ma_width    : odd width of the moving-average pre-smoother
    """

    omega: float = math.pi / 4
    nu: float = 0.1
    n_harmonics: int = 45
    ma_width: int = 5

    def __post_init__(self):
        if not 0 < self.omega <= math.pi:
            raise ValueError(f"omega must lie in (0, pi], got {self.omega}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.n_harmonics < 1:
            raise ValueError(f"n_harmonics must be >= 1, got {self.n_harmonics}")
        if self.ma_width < 1 or self.ma_width % 2 == 0:
            raise ValueError(f"ma_width must be odd and positive, got {self.ma_width}")

    @property
    def window_len(self) -> int:
        """History length the forecasting pipeline expects (2N+1)."""
        return 2 * self.n_harmonics + 1


@dataclass(frozen=True)
class CausalCoefficients:
    """Solved spectral weights plus the means used for re-centering.

    window_mean : mean of the smoothed window, subtracted before fitting
    tail_mean   : mean of the last 3 smoothed window samples (pre-centering),
                  added back to forecast values
    """

    y: np.ndarray
    window_mean: float
    tail_mean: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float).copy()
        y.flags.writeable = False
        object.__setattr__(self, "y", y)


def sinc(u):
    """Unnormalized sinc: sin(u)/u with sinc(0) = 1."""
    return np.sinc(np.asarray(u, dtype=float) / np.pi)


def moving_average(values, width: int) -> np.ndarray:
    """Centered `width`-point mean; edges use the truncated window that fits."""
    vals = np.asarray(values, dtype=float)
    if width < 1 or width % 2 == 0:
        raise ValueError(f"width must be odd and positive, got {width}")
    n = vals.size
    if n < width:
        raise ValueError(f"series length {n} shorter than width {width}")
    half = width // 2
    csum = np.concatenate(([0.0], np.cumsum(vals)))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _sinc_design(t: np.ndarray, n_harmonics: int, omega: float) -> np.ndarray:
    """Matrix S[t_i, k] = sinc(k*pi + omega*t_i), k = -N..N."""
    k = np.arange(-n_harmonics, n_harmonics + 1, dtype=float)
    return sinc(k[None, :] * np.pi + omega * t[:, None])


def qstar(z, params: CausalParams, t_start: int = 0) -> np.ndarray:
    """Project window data onto the sinc harmonics.

    b_k = (omega/pi) * sum_t sinc(k*pi + omega*t) z(t) over the window's
    time axis t = t_start .. t_start + len(z) - 1.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 1:
        raise ValueError("window must be a nonempty 1-D sequence")
    t = np.arange(t_start, t_start + z.size, dtype=float)
    s_mat = _sinc_design(t, params.n_harmonics, params.omega)
    return (params.omega / np.pi) * (s_mat.T @ z)


@lru_cache(maxsize=32)
def _gram_cached(q: int, s: int, n_harmonics: int, omega: float) -> np.ndarray:
    t = np.arange(q, s + 1, dtype=float)
    s_mat = _sinc_design(t, n_harmonics, omega)
    prod = (omega / np.pi) ** 2 * (s_mat.T @ s_mat)
    # mirror the upper triangle so the result is bitwise symmetric
    gram = np.triu(prod) + np.triu(prod, 1).T
    gram.flags.writeable = False
    return gram


def gram_matrix(window: Window, params: CausalParams) -> np.ndarray:
    """Gram matrix R_km of the sinc harmonics over the window's time axis.

    Symmetric by construction (one triangle computed and mirrored) and
    positive semidefinite. Cached per (window, harmonics, omega); the
    returned array is read-only.
    """
    return _gram_cached(window.q, window.s, params.n_harmonics, params.omega)


def regularized_solve(gram, nu: float, b) -> np.ndarray:
    """Solve the Tikhonov system (R + nu*I) y = b."""
    gram = np.asarray(gram, dtype=float)
    b = np.asarray(b, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram must be square, got shape {gram.shape}")
    if b.shape != (gram.shape[0],):
        raise ValueError(f"rhs length {b.shape} does not match matrix {gram.shape}")
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in linear system")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    y = np.linalg.solve(gram + nu * np.eye(gram.shape[0]), b)
    norm_b = np.linalg.norm(b)
    if norm_b > 0:
        resid = np.linalg.norm((gram + nu * np.eye(gram.shape[0])) @ y - b)
        if resid >= 1e-8 * norm_b:
            raise ArithmeticError(
                f"regularized solve residual {resid:.3e} exceeds 1e-8 * ||b||"
            )
    return y


def synthesize_causal(coeffs: CausalCoefficients, t_range, params: CausalParams) -> np.ndarray:
    """Evaluate xhat(t) = (omega/pi) * sum_k y_k sinc(k*pi + omega*t).

    No mean re-centering is applied; callers add window_mean (in-window) or
    tail_mean (forecasts) as the pipeline requires.
    """
    t = np.asarray(list(t_range) if isinstance(t_range, range) else t_range, dtype=float)
    t = np.atleast_1d(t)
    s_mat = _sinc_design(t, params.n_harmonics, params.omega)
    return (params.omega / np.pi) * (s_mat @ coeffs.y)


def causal_fit(smoothed, params: CausalParams, t_start: int = 1) -> CausalCoefficients:
    """Fit spectral weights to an already-smoothed window.

    Subtracts the window mean, projects with :func:`qstar` on the local time
    axis t = t_start.., and solves the regularized Gram system.
    """
    sm = np.asarray(smoothed, dtype=float)
    if sm.ndim != 1 or sm.size < TAIL_MEAN_SAMPLES:
        raise ValueError(f"smoothed window must have >= {TAIL_MEAN_SAMPLES} samples")
    window_mean = float(np.mean(sm))
    tail_mean = float(np.mean(sm[-TAIL_MEAN_SAMPLES:]))
    centered = sm - window_mean
    b = qstar(centered, params, t_start=t_start)
    gram = gram_matrix(Window(t_start, t_start + sm.size - 1), params)
    y = regularized_solve(gram, params.nu, b)
    return CausalCoefficients(y=y, window_mean=window_mean, tail_mean=tail_mean)


def causal_forecast(
    history,
    horizon: int,
    params: CausalParams = CausalParams(),
    presmoothed=None,
) -> np.ndarray:
    """Forecast `horizon` samples past a length-(2N+1) history window.

    Pipeline: moving-average smoothing, window-mean centering, sinc
    projection, regularized solve, synthesis at t = window_len + 1 .. + h,
    then tail-mean re-centering of the forecast values.

    `presmoothed` substitutes an externally smoothed window (same length)
    and skips the internal moving average; the experiment harness uses it to
    emulate smoothing the full series at once.
    """
    hist = np.asarray(history, dtype=float)
    expected = params.window_len
    if hist.ndim != 1 or hist.size != expected:
        raise ValueError(
            f"history must have exactly {expected} samples (2*n_harmonics+1), got {hist.size}"
        )
    if not np.all(np.isfinite(hist)):
        raise ValueError("history must be finite")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    if presmoothed is None:
        sm = moving_average(hist, params.ma_width)
    else:
        sm = np.asarray(presmoothed, dtype=float)
        if sm.shape != hist.shape:
            raise ValueError("presmoothed window must match history length")

    coeffs = causal_fit(sm, params, t_start=1)
    t_fc = np.arange(expected + 1, expected + horizon + 1)
    return synthesize_causal(coeffs, t_fc, params) + coeffs.tail_mean
