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

from collections.abc import Sequence
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
        if not self.lam >= 0:
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
        if self.cost_tol is not None and not self.cost_tol >= 0:
            raise ValueError(f"cost_tol must be nonnegative, got {self.cost_tol}")

    def check_window(self, window: int, horizon: int) -> None:
        """Raise ValueError unless `window` samples and `horizon` more fit the dictionary."""
        if window + horizon > self.n_basis:
            raise ValueError(
                f"salsa needs window + horizon <= n_basis = {self.n_basis}; "
                f"got window {window}, horizon {horizon}"
            )


@dataclass(frozen=True)
class ObservationMask:
    """The first n_observed samples of a length-M signal are known, the rest masked."""

    n_observed: int
    total_len: int

    def __post_init__(self):
        if not 1 <= self.n_observed <= self.total_len:
            raise ValueError(
                f"n_observed must lie in [1, {self.total_len}], got {self.n_observed}"
            )

    @classmethod
    def prefix(cls, n_observed: int, total_len: int) -> "ObservationMask":
        """First n_observed samples known, the trailing ones masked."""
        return cls(n_observed, total_len)


@dataclass(frozen=True)
class SalsaState:
    """Final coefficient iterate c and the per-iteration cost trace."""

    c: np.ndarray
    cost_history: np.ndarray


def synthesize(c, out_len: int) -> np.ndarray:
    """First `out_len` samples of the unnormalized inverse DFT of c.

    (A c)(m) = sum_{n=0}^{N-1} c(n) exp(+2j*pi*m*n/N) for m = 0..out_len-1,
    along the last axis, so a stack of coefficient rows gives a stack of
    signals. Requires out_len <= c.shape[-1].
    """
    c = np.asarray(c, dtype=complex)
    n_basis = c.shape[-1]
    if not 1 <= out_len <= n_basis:
        raise ValueError(f"out_len must lie in [1, {n_basis}], got {out_len}")
    return n_basis * np.fft.ifft(c)[..., :out_len]


def adjoint(y, n_basis: int) -> np.ndarray:
    """Adjoint of :func:`synthesize`: forward DFT of y zero-padded to n_basis.

    (A^H y)(n) = sum_{m=0}^{M-1} y(m) exp(-2j*pi*m*n/N), along the last axis.
    Requires y.shape[-1] <= n_basis.
    """
    y = np.asarray(y, dtype=complex)
    if not 1 <= y.shape[-1] <= n_basis:
        raise ValueError(f"signal length must lie in [1, {n_basis}], got {y.shape[-1]}")
    return np.fft.fft(y, n=n_basis)


def soft_threshold(x, threshold):
    """Complex soft-threshold max(1 - T/|x|, 0) * x, elementwise.

    Shrinks magnitudes by T, zeroes anything at or below T, preserves phase.
    Accepts scalars or arrays and returns the same shape; T is a scalar or
    an ndarray that broadcasts against x, such as one (B, 1) column per row.
    """
    negative = (threshold < 0).any() if isinstance(threshold, np.ndarray) else threshold < 0
    if negative:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    arr = np.asarray(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # fmax also turns the 0/0 of a zero entry at threshold 0 into scale 0
        scale = np.fmax(1.0 - threshold / np.abs(arr), 0.0)
    return scale * arr


def _per_row(params, n_rows: int):
    """The params every row shares, and one SalsaParams per row.

    One SalsaParams applies to all rows; a sequence gives one per row, and
    its rows must share n_basis, n_iter and cost_tol, which fix the solve.
    """
    if isinstance(params, SalsaParams):
        return params, [params] * n_rows
    rows = list(params)
    if not rows or len(rows) != n_rows:
        raise ValueError(f"expected one SalsaParams per row ({n_rows}), got {len(rows)}")
    shared = rows[0]
    solve_shape = (shared.n_basis, shared.n_iter, shared.cost_tol)
    if any((p.n_basis, p.n_iter, p.cost_tol) != solve_shape for p in rows):
        raise ValueError("stacked SalsaParams must share n_basis, n_iter and cost_tol")
    return shared, rows


def _column(values: list, shape: tuple):
    """The rows' values reshaped to `shape`, or one float when every row shares it.

    Same bits either way. With a scalar numpy runs each elementwise step as
    one loop, not one per row: a 1,000-row solve with columns of one shared
    value took about 14 % longer.
    """
    return values[0] if len(set(values)) == 1 else np.array(values).reshape(shape)


def salsa_solve(
    masked,
    mask: ObservationMask,
    params: SalsaParams | Sequence[SalsaParams],
    track_cost: bool = True,
) -> SalsaState:
    """Run the SALSA iteration on a masked signal of shape (M,) or (B, M).

    Rows share `mask` and are solved along the last axis, so row i of a
    stack equals the call on row i alone (without cost_tol, which stops a
    stack only once every row has converged). `params` is one SalsaParams for
    every row or a sequence with one per row; the rows of a sequence must
    share n_basis, n_iter and cost_tol, and each keeps its own mu, lam,
    threshold_scale and p_norm. With y the first k = mask.n_observed samples
    and A_k the first k rows of A, from c = A^H(y), d = 0:

        u <- soft(c + d, threshold_scale * lam / mu) - d
        d <- A_k^H(y - A_k u) / (mu + p_norm)
        c <- d + u

    When track_cost (or params.cost_tol) is set, each row's
    ||masked - A c||_2^2 + lam * sum|c| is recorded, shape (..., iterations),
    with the unobserved positions of `masked` counted as zeros. With
    cost_tol, iteration stops once every row's relative cost change drops
    below it, and the trace is truncated there.
    """
    y = np.asarray(masked, dtype=complex)
    if y.ndim not in (1, 2) or y.shape[-1] != mask.total_len:
        raise ValueError(
            f"masked signal must have shape (M,) or (B, M) with M = {mask.total_len}"
        )
    k, m_len = mask.n_observed, mask.total_len
    shared, rows = _per_row(params, y[..., 0].size)
    shared.check_window(k, m_len - k)
    if not np.all(np.isfinite(y.real)) or not np.all(np.isfinite(y.imag)):
        raise ValueError("masked signal must be finite")
    n_basis = shared.n_basis

    # the FFT zero-pads the observed prefix, so the unobserved samples never
    # enter the iteration; the cost trace counts them as zeros
    target = np.concatenate([y[..., :k], np.zeros_like(y[..., k:])], axis=-1)
    y = y[..., :k]
    track_cost = track_cost or shared.cost_tol is not None

    c = adjoint(y, n_basis)
    d = np.zeros_like(c)
    # per row: threshold and step are columns against the (..., N) iterates,
    # lam has the cost trace's row shape
    column = y.shape[:-1] + (1,)
    thresh = _column([p.threshold_scale * p.lam / p.mu for p in rows], column)
    step = _column([1.0 / (p.mu + p.p_norm) for p in rows], column)
    lam = _column([p.lam for p in rows], y.shape[:-1])
    cost = np.empty(y.shape[:-1] + (shared.n_iter if track_cost else 0,))

    for i in range(shared.n_iter):
        u = soft_threshold(c + d, thresh) - d
        d = step * adjoint(y - synthesize(u, k), n_basis)
        c = d + u
        if track_cost:
            residual = target - synthesize(c, m_len)
            cost[..., i] = np.sum(np.abs(residual) ** 2, axis=-1) + lam * np.sum(
                np.abs(c), axis=-1
            )
            if (
                shared.cost_tol is not None
                and i > 0
                and np.all(
                    np.abs(cost[..., i] - cost[..., i - 1])
                    <= shared.cost_tol * np.abs(cost[..., i - 1])
                )
            ):
                cost = cost[..., : i + 1]
                break

    return SalsaState(c=c, cost_history=cost)


def salsa_forecast(
    history,
    horizon: int,
    params: SalsaParams | Sequence[SalsaParams] = SalsaParams(),
    track_cost: bool = False,
) -> np.ndarray:
    """Forecast `horizon` samples past real histories of shape (K,) or (B, K).

    Masks `horizon` samples after each history, runs :func:`salsa_solve`
    (the iterates do not depend on its cost trace, so it is off by default)
    and returns the real part of the synthesized masked samples, shaped
    (horizon,) or (B, horizon); row i equals the call on row i alone.
    `params` is one SalsaParams or one per row, as in :func:`salsa_solve`,
    which checks the history against them (:meth:`SalsaParams.check_window`).
    """
    hist = np.asarray(history, dtype=float)
    if hist.ndim not in (1, 2) or hist.shape[-1] < 1:
        raise ValueError("history must have shape (K,) or (B, K) with K >= 1")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    k = hist.shape[-1]
    m_len = k + horizon
    masked = np.concatenate([hist, np.zeros(hist.shape[:-1] + (horizon,))], axis=-1)
    mask = ObservationMask.prefix(k, m_len)
    state = salsa_solve(masked, mask, params, track_cost=track_cost)
    return np.real(synthesize(state.c, m_len))[..., k:]
