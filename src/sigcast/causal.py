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

Every step, the moving average included, is linear in the raw window and
uses the same time axis t = 1..2N+1, so :func:`causal_forecast` applies one
cached matrix to the centred raw windows; :func:`moving_average`,
:func:`causal_fit` and :func:`synthesize_causal` are the same pipeline one
window at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .series import Window, check_count, check_real, check_samples

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
        check_real("omega", self.omega)
        check_real("nu", self.nu)
        if not 0 < self.omega <= math.pi:
            raise ValueError(f"omega must lie in (0, pi], got {self.omega}")
        if not 0 < self.nu < math.inf:
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        check_count("n_harmonics", self.n_harmonics)
        check_count("ma_width", self.ma_width)
        if self.ma_width % 2 == 0:
            raise ValueError(f"ma_width must be odd, got {self.ma_width}")

    @property
    def window_len(self) -> int:
        """History length the forecasting pipeline expects (2N+1)."""
        return 2 * self.n_harmonics + 1

    def check_window(self, window: int, horizon: int) -> None:
        """Raise ValueError unless `window` is the 2N+1 samples the pipeline
        expects and holds one moving-average width."""
        if window != self.window_len:
            raise ValueError(
                f"causal needs a window of 2*n_harmonics+1 = {self.window_len}; "
                f"got window {window}, horizon {horizon}"
            )
        if window < self.ma_width:
            raise ValueError(
                f"causal needs window >= ma_width = {self.ma_width}; "
                f"got window {window}, horizon {horizon}"
            )


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
    truncated window that fits, every window when the series is shorter
    than `width`. Each mean is its own window's samples summed
    in order and divided by their count, so it depends on no other sample
    and every row and memory order rounds alike. The result is
    C-contiguous; width 1 returns a copy of the values, exactly."""
    vals = np.asarray(values, dtype=float)
    check_count("width", width)
    if width % 2 == 0:
        raise ValueError(f"width must be odd, got {width}")
    n = vals.shape[-1]
    half = width // 2
    padded = np.zeros(vals.shape[:-1] + (n + 2 * half,))
    padded[..., half : half + n] = vals
    out = padded[..., :n].copy()
    for lo in range(1, width):
        out += padded[..., lo : lo + n]
    idx = np.arange(n)
    out /= np.minimum(idx + half + 1, n) - np.maximum(idx - half, 0)
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


@np.errstate(over="ignore", invalid="ignore")
def regularized_solve(gram, nu: float, b) -> np.ndarray:
    """Solve the Tikhonov system (R + nu*I) y = b for b of shape (n,) or (n, m).

    Each right-hand side must be solved to a residual below 1e-8 * ||b||, or
    ArithmeticError is raised without a numpy warning; a y that is not finite
    leaves a residual that is not, and fails. Both norms are taken of each
    column divided by max(||b||_inf, 1), so squaring entries above about
    1e154 cannot overflow the rule.
    """
    gram = np.asarray(gram, dtype=float)
    b = np.asarray(b, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError(f"gram must be square, got shape {gram.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != gram.shape[0]:
        raise ValueError(f"rhs shape {b.shape} does not match matrix {gram.shape}")
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries in linear system")
    check_real("nu", nu)
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")
    system = gram + nu * np.eye(gram.shape[0])
    y = np.linalg.solve(system, b)
    scale = np.max(np.abs(b), axis=0, initial=1.0)
    resid = np.linalg.norm((system @ y - b) / scale, axis=0)
    if not np.all((resid == 0) | (resid < 1e-8 * np.linalg.norm(b / scale, axis=0))):
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


def causal_fit(smoothed, params: CausalParams) -> CausalCoefficients:
    """Fit spectral weights to an already-smoothed window.

    Subtracts the window mean, projects with :func:`qstar` on the local time
    axis t = 1.., and solves the regularized Gram system.
    """
    sm = np.asarray(smoothed, dtype=float)
    if sm.ndim != 1 or sm.size < TAIL_MEAN_SAMPLES:
        raise ValueError(f"smoothed window must have >= {TAIL_MEAN_SAMPLES} samples")
    window_mean = float(np.mean(sm))
    tail_mean = float(np.mean(sm[-TAIL_MEAN_SAMPLES:]))
    centered = sm - window_mean
    b = qstar(centered, params, t_start=1)
    gram = gram_matrix(Window(1, sm.size), params)
    y = regularized_solve(gram, params.nu, b)
    return CausalCoefficients(y=y, window_mean=window_mean, tail_mean=tail_mean)


@lru_cache(maxsize=32)
def _operator(params: CausalParams, horizon: int) -> np.ndarray:
    """The read-only (horizon, K) matrix V of the forecast x_mean + V (x - x_mean).

    With K = 2N+1 window samples at t = 1..K, forecast times t_f = K+1..K+h
    and tau putting 1/3 on the last three samples,

        W = (omega/pi)^2 S_f (R + nu*I)^-1 S^T (I - 11^T/K) + 1 tau^T,
        V = W M,

    where S and S_f are the sinc designs at t and t_f and M is the moving
    average of width ma_width. The first term of W is the centred fit of the
    smoothed window extrapolated by :func:`synthesize_causal`, the second the
    tail-mean re-centring, so W 1 = 1; M 1 = 1 too, so V 1 = 1. Built with
    one solve over the K columns; every column meets the residual rule of
    :func:`regularized_solve`.
    """
    k = params.window_len
    scale = params.omega / np.pi
    s_mat = _sinc_design(np.arange(1, k + 1, dtype=float), params.n_harmonics, params.omega)
    rhs = scale * (s_mat - s_mat.mean(axis=0)).T  # (omega/pi) S^T (I - 11^T/K)
    y = regularized_solve(gram_matrix(Window(1, k), params), params.nu, rhs)
    t_fc = np.arange(k + 1, k + horizon + 1, dtype=float)
    w = scale * (_sinc_design(t_fc, params.n_harmonics, params.omega) @ y)
    w[:, -TAIL_MEAN_SAMPLES:] += 1 / TAIL_MEAN_SAMPLES
    # row i of the moving average of I is column i of M, each entry 1/count rounded once
    v = w @ moving_average(np.eye(k), params.ma_width).T
    v.flags.writeable = False
    return v


def causal_forecast(history, horizon: int, params: CausalParams = CausalParams()) -> np.ndarray:
    """Forecast `horizon` samples past histories of shape (K,) or (B, K), K = 2N+1.

    The forecast is x_mean + V (x - x_mean) for the raw window x with mean
    x_mean, where V = W M folds the moving average M into the map W of the
    smoothed window: the sinc fit of the smoothed, mean-centred window,
    extrapolated to t = K+1 .. K+h and re-centred at the mean of the last
    three smoothed samples. V 1 = 1, so centring the raw window changes
    nothing in exact arithmetic and keeps constant histories exact. V is
    built once per (params, horizon) and cached (see :func:`_operator`).
    Row i of a (B, horizon) result equals the call on row i alone.
    """
    hist = check_samples("history", history)
    check_count("horizon", horizon)
    params.check_window(hist.shape[-1], horizon)
    v = _operator(params, horizon)
    # a C-contiguous stack and one sum per step keep every row's rounding
    # independent of B and of the memory order, so row i equals the 1-D call
    # bit for bit
    rows = np.ascontiguousarray(hist)
    mean = np.mean(rows, axis=-1)
    centred = rows - mean[..., None]
    out = np.empty(rows.shape[:-1] + (horizon,))
    for j in range(horizon):
        out[..., j] = mean + np.sum(centred * v[j], axis=-1)
    return out
