"""Sparse signal recovery over a truncated oversampled Fourier dictionary.

A length-M signal y is modelled as the first M outputs of an unnormalized
inverse DFT of a length-N coefficient vector c (N >= M):

    (A c)(m) = sum_n c(n) * exp(+2j*pi*m*n/N),   m = 0..M-1

The adjoint A^H is the forward DFT of the zero-padded signal, so the frame
operator satisfies A A^H = N I. Forecasting masks the trailing samples of y
and asks the l1-regularized least-squares solver to fill them in; the solver
is the split augmented Lagrangian shrinkage (SALSA) iteration with the
soft-threshold proximal step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SalsaParams",
    "ObservationMask",
    "SalsaState",
    "synthesize",
    "adjoint",
    "soft_threshold",
    "salsa_solve",
    "salsa_forecast",
]


@dataclass(frozen=True)
class SalsaParams:
    """SALSA hyperparameters.

    mu              : ADMM penalty parameter (> 0)
    lam             : l1 regularization weight, the noise level knob (>= 0)
    n_basis         : dictionary length N (>= signal length M)
    n_iter          : number of iterations
    threshold_scale : multiplier on lam/mu inside the shrinkage threshold
    p_norm          : penalty normalization constant; None means n_basis,
                      which is exact because A A^H = N I
    cost_tol        : optional relative cost-change stopping tolerance;
                      None (default) runs all n_iter iterations
    """

    mu: float = 0.6
    lam: float = 1.0
    n_basis: int = 200
    n_iter: int = 1000
    threshold_scale: float = 0.5
    p_norm: float | None = None
    cost_tol: float | None = None

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.n_basis < 1:
            raise ValueError(f"n_basis must be positive, got {self.n_basis}")
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be positive, got {self.n_iter}")
        if not self.threshold_scale > 0:
            raise ValueError(f"threshold_scale must be positive, got {self.threshold_scale}")
        if self.p_norm is None:
            object.__setattr__(self, "p_norm", float(self.n_basis))
        elif not self.p_norm > 0:
            raise ValueError(f"p_norm must be positive, got {self.p_norm}")
        if self.cost_tol is not None and self.cost_tol < 0:
            raise ValueError(f"cost_tol must be nonnegative, got {self.cost_tol}")


@dataclass(frozen=True)
class ObservationMask:
    """Which samples of a length-M signal are known."""

    total_len: int
    observed: np.ndarray

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=bool)
        if obs.ndim != 1 or obs.size != self.total_len:
            raise ValueError(
                f"observed must be a length-{self.total_len} boolean sequence"
            )
        obs = obs.copy()
        obs.flags.writeable = False
        object.__setattr__(self, "observed", obs)

    @classmethod
    def prefix(cls, n_observed: int, total_len: int) -> "ObservationMask":
        """First n_observed samples known, the trailing ones masked."""
        if not 0 <= n_observed <= total_len:
            raise ValueError(f"n_observed must lie in [0, {total_len}]")
        obs = np.zeros(total_len, dtype=bool)
        obs[:n_observed] = True
        return cls(total_len=total_len, observed=obs)


@dataclass(frozen=True)
class SalsaState:
    """Final coefficient iterate c and the per-iteration cost trace."""

    c: np.ndarray
    cost_history: np.ndarray


def synthesize(c, out_len: int) -> np.ndarray:
    """First `out_len` samples of the unnormalized inverse DFT of c.

    (A c)(m) = sum_{n=0}^{N-1} c(n) exp(+2j*pi*m*n/N) for m = 0..out_len-1.
    Requires out_len <= len(c).
    """
    c = np.asarray(c, dtype=complex)
    n_basis = c.size
    if not 1 <= out_len <= n_basis:
        raise ValueError(f"out_len must lie in [1, {n_basis}], got {out_len}")
    return n_basis * np.fft.ifft(c)[:out_len]


def adjoint(y, n_basis: int) -> np.ndarray:
    """Adjoint of :func:`synthesize`: forward DFT of y zero-padded to n_basis.

    (A^H y)(n) = sum_{m=0}^{M-1} y(m) exp(-2j*pi*m*n/N).
    Requires len(y) <= n_basis.
    """
    y = np.asarray(y, dtype=complex)
    if not 1 <= y.size <= n_basis:
        raise ValueError(f"signal length must lie in [1, {n_basis}], got {y.size}")
    return np.fft.fft(y, n=n_basis)


def soft_threshold(x, threshold: float):
    """Complex soft-threshold max(1 - T/|x|, 0) * x, elementwise.

    Shrinks magnitudes by T, zeroes anything at or below T, preserves phase.
    Accepts scalars or arrays and returns the same shape.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    arr = np.asarray(x)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    mag = np.abs(arr)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = np.maximum(1.0 - threshold / mag, 0.0)
    scale[mag == 0.0] = 0.0  # |x| -> 0 limit of the formula
    out = scale * arr
    return out[0] if scalar else out


def salsa_solve(
    masked,
    mask: ObservationMask,
    params: SalsaParams,
    track_cost: bool = True,
) -> SalsaState:
    """Run the SALSA iteration on a masked signal.

    Starting from c = A^H(masked), d = 0, each iteration performs

        u <- soft(c + d, threshold_scale * lam / mu) - d
        d <- A^H(masked - mask * A u) / (mu + p_norm)
        c <- d + u

    and (when track_cost) records ||masked - A c||_2^2 + lam * sum|c|.
    Unobserved positions of `masked` are forced to zero before iterating.
    With params.cost_tol set, iteration stops early once the relative cost
    change drops below the tolerance and the cost trace is truncated.
    """
    y = np.asarray(masked, dtype=complex)
    if y.ndim != 1 or y.size != mask.total_len:
        raise ValueError(f"masked signal must be 1-D of length {mask.total_len}")
    if not np.all(np.isfinite(y.real)) or not np.all(np.isfinite(y.imag)):
        raise ValueError("masked signal must be finite")
    m_len = y.size
    n_basis = params.n_basis
    if m_len > n_basis:
        raise ValueError(f"signal length {m_len} exceeds n_basis {n_basis}")

    obs = mask.observed.astype(float)
    y = np.where(mask.observed, y, 0.0)

    if params.cost_tol is not None and not track_cost:
        raise ValueError("cost_tol stopping requires track_cost=True")

    c = adjoint(y, n_basis)
    d = np.zeros(n_basis, dtype=complex)
    thresh = params.threshold_scale * params.lam / params.mu
    step = 1.0 / (params.mu + params.p_norm)
    cost = np.empty(params.n_iter if track_cost else 0)

    n_done = 0
    for i in range(params.n_iter):
        u = soft_threshold(c + d, thresh) - d
        d = step * adjoint(y - obs * synthesize(u, m_len), n_basis)
        c = d + u
        n_done = i + 1
        if track_cost:
            residual = y - synthesize(c, m_len)
            cost[i] = float(np.sum(np.abs(residual) ** 2)) + params.lam * float(
                np.sum(np.abs(c))
            )
            if (
                params.cost_tol is not None
                and i > 0
                and abs(cost[i] - cost[i - 1]) <= params.cost_tol * abs(cost[i - 1])
            ):
                break

    return SalsaState(c=c, cost_history=cost[:n_done] if track_cost else cost)


def salsa_forecast(
    history,
    horizon: int,
    params: SalsaParams = SalsaParams(),
    track_cost: bool = True,
) -> np.ndarray:
    """Forecast `horizon` samples past a fully observed real history.

    Builds a length K + horizon signal whose trailing samples are masked,
    runs :func:`salsa_solve`, and returns the real part of the synthesized
    signal at the masked positions.
    """
    hist = np.asarray(history, dtype=float)
    if hist.ndim != 1 or hist.size < 1:
        raise ValueError("history must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(hist)):
        raise ValueError("history must be finite")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    k = hist.size
    m_len = k + horizon
    if m_len > params.n_basis:
        raise ValueError(
            f"history + horizon = {m_len} exceeds n_basis {params.n_basis}"
        )
    masked = np.concatenate([hist, np.zeros(horizon)])
    mask = ObservationMask.prefix(k, m_len)
    state = salsa_solve(masked, mask, params, track_cost=track_cost)
    return np.real(synthesize(state.c, m_len))[k:]
