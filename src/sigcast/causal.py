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

Every step after the smoothing is linear in the smoothed window and uses the
same time axis t = 1..2N+1, so :func:`causal_forecast` applies one cached
matrix to all windows; :func:`causal_fit` and :func:`synthesize_causal` are
the same pipeline one window at a time.
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
    """Centered `width`-point mean along the last axis; edges use the
    truncated window that fits. The result is C-contiguous."""
    vals = np.asarray(values, dtype=float)
    if width < 1 or width % 2 == 0:
        raise ValueError(f"width must be odd and positive, got {width}")
    n = vals.shape[-1]
    if n < width:
        raise ValueError(f"series length {n} shorter than width {width}")
    half = width // 2
    csum = np.zeros(vals.shape[:-1] + (n + 1,))
    np.cumsum(vals, axis=-1, out=csum[..., 1:])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    # np.take keeps C order, where csum[..., hi] would be Fortran-ordered;
    # the in-place steps hold one temporary fewer at a time
    out = np.take(csum, hi, axis=-1)
    out -= np.take(csum, lo, axis=-1)
    out /= hi - lo
    return out


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


def gram_matrix(window: Window, params: CausalParams) -> np.ndarray:
    """Gram matrix R_km of the sinc harmonics over the window's time axis.

    Symmetric by construction (one triangle computed and mirrored, so R
    equals its transpose bit for bit) and positive semidefinite. The
    returned array is read-only.
    """
    t = np.arange(window.q, window.s + 1, dtype=float)
    s_mat = _sinc_design(t, params.n_harmonics, params.omega)
    prod = (params.omega / np.pi) ** 2 * (s_mat.T @ s_mat)
    gram = np.triu(prod) + np.triu(prod, 1).T
    gram.flags.writeable = False
    return gram


def regularized_solve(gram, nu: float, b) -> np.ndarray:
    """Solve the Tikhonov system (R + nu*I) y = b for b of shape (n,) or (n, m).

    Each right-hand side must be solved to a residual below 1e-8 * ||b||,
    or ArithmeticError is raised.
    """
    gram = np.asarray(gram, dtype=float)
    b = np.asarray(b, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram must be square, got shape {gram.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != gram.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix {gram.shape}")
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in linear system")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    system = gram + nu * np.eye(gram.shape[0])
    y = np.linalg.solve(system, b)
    resid = np.linalg.norm(system @ y - b, axis=0)
    if np.any((resid > 0) & (resid >= 1e-8 * np.linalg.norm(b, axis=0))):
        raise ArithmeticError(
            f"regularized solve residual {np.max(resid):.3e} exceeds 1e-8 * ||b||"
        )
    return y


def synthesize_causal(coeffs: CausalCoefficients, t_range, params: CausalParams) -> np.ndarray:
    """Evaluate xhat(t) = (omega/pi) * sum_k y_k sinc(k*pi + omega*t).

    No mean re-centering is applied; callers add window_mean (in-window) or
    tail_mean (forecasts) as the pipeline requires.
    """
    t = np.atleast_1d(np.asarray(t_range, dtype=float))
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


@lru_cache(maxsize=32)
def _operator(params: CausalParams, horizon: int) -> np.ndarray:
    """The read-only (horizon, K) matrix W of the forecast s_mean + W (s - s_mean).

    With K = 2N+1 window samples at t = 1..K, forecast times t_f = K+1..K+h
    and tau putting 1/3 on the last three samples,

        W = (omega/pi)^2 S_f (R + nu*I)^-1 S^T (I - 11^T/K) + 1 tau^T,

    where S and S_f are the sinc designs at t and t_f. The first term is the
    centred fit extrapolated by :func:`synthesize_causal`, the second the
    tail-mean re-centring, so W 1 = 1. Built with one solve over the K
    columns; every column meets the residual rule of :func:`regularized_solve`.
    """
    k = params.window_len
    scale = params.omega / np.pi
    s_mat = _sinc_design(np.arange(1, k + 1, dtype=float), params.n_harmonics, params.omega)
    rhs = scale * (s_mat - s_mat.mean(axis=0)).T  # (omega/pi) S^T (I - 11^T/K)
    y = regularized_solve(gram_matrix(Window(1, k), params), params.nu, rhs)
    t_fc = np.arange(k + 1, k + horizon + 1, dtype=float)
    w = scale * (_sinc_design(t_fc, params.n_harmonics, params.omega) @ y)
    w[:, -TAIL_MEAN_SAMPLES:] += 1 / TAIL_MEAN_SAMPLES
    w.flags.writeable = False
    return w


# rows smoothed and centred at a time, so the temporaries stay at 64 x K
# floats however many windows are stacked
_ROW_BLOCK = 64


def causal_forecast(
    history,
    horizon: int,
    params: CausalParams = CausalParams(),
    presmoothed=None,
) -> np.ndarray:
    """Forecast `horizon` samples past histories of shape (K,) or (B, K), K = 2N+1.

    The window is smoothed by the moving average, and the forecast is
    s_mean + W (s - s_mean) for the smoothed window s with mean s_mean: the
    sinc fit of the mean-centred window, extrapolated to t = K+1 .. K+h and
    re-centred at the mean of the last three smoothed samples. W is built
    once per (params, horizon) and cached (see :func:`_operator`). Row i of
    a (B, horizon) result equals the call on row i alone.

    `presmoothed` substitutes externally smoothed windows (same shape) and
    skips the internal moving average; the experiment harness uses it to
    emulate smoothing the full series at once.
    """
    hist = np.asarray(history, dtype=float)
    expected = params.window_len
    if hist.ndim not in (1, 2) or hist.shape[-1] != expected:
        raise ValueError(
            f"history must have exactly {expected} samples (2*n_harmonics+1) per row, "
            f"got shape {hist.shape}"
        )
    if not np.all(np.isfinite(hist)):
        raise ValueError("history must be finite")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if presmoothed is not None and np.shape(presmoothed) != hist.shape:
        raise ValueError("presmoothed window must match history shape")

    w = _operator(params, horizon)
    rows = np.atleast_2d(hist)
    out = np.empty((len(rows), horizon))
    for lo in range(0, len(rows), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        if presmoothed is None:
            sm = moving_average(rows[block], params.ma_width)
        else:
            sm = np.ascontiguousarray(np.atleast_2d(presmoothed)[block], dtype=float)
        # a C-contiguous stack and one sum per step keep every row's rounding
        # independent of B, so row i equals the 1-D call bit for bit
        mean = np.mean(sm, axis=-1)
        centred = sm - mean[:, None]
        for j in range(horizon):
            out[block, j] = mean + np.sum(centred * w[j], axis=-1)
    return out if hist.ndim == 2 else out[0]
