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
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .series import check_count, check_real, check_samples

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

    mu      : ADMM penalty parameter (> 0, finite)
    lam     : l1 regularization weight, the noise level knob (>= 0, finite)
    n_basis : dictionary length N (>= signal length M)
    n_iter  : number of iterations

    threshold_scale (0.5, the multiplier on lam/mu inside the shrinkage
    threshold), p_norm (n_basis, exact because A A^H = N I) and cost_tol
    (None) are fixed, not arguments; they stay fields only because the
    `forecast` command's params record prints all seven.
    """

    mu: float = 0.6
    lam: float = 1.0
    n_basis: int = 200
    n_iter: int = 1000
    threshold_scale: float = field(default=0.5, init=False)
    p_norm: float = field(init=False)
    cost_tol: None = field(default=None, init=False)

    def __post_init__(self):
        check_real("mu", self.mu)
        check_real("lam", self.lam)
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0 <= self.lam < np.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        check_count("n_basis", self.n_basis)
        check_count("n_iter", self.n_iter)
        object.__setattr__(self, "p_norm", float(self.n_basis))

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
        check_count("n_observed", self.n_observed)
        check_count("total_len", self.total_len, low=self.n_observed)

    @classmethod
    def prefix(cls, n_observed: int, total_len: int) -> "ObservationMask":
        """First n_observed samples known, the trailing ones masked."""
        return cls(n_observed, total_len)


@dataclass(frozen=True)
class SalsaState:
    """Final coefficient iterate c (bins 0..N//2), the per-iteration cost
    trace, and the dictionary length N that c's bins belong to."""

    c: np.ndarray
    cost_history: np.ndarray
    n_basis: int


def synthesize(c, out_len: int) -> np.ndarray:
    """First `out_len` samples of the unnormalized inverse DFT of c.

    (A c)(m) = sum_{n=0}^{N-1} c(n) exp(+2j*pi*m*n/N) for m = 0..out_len-1,
    along the last axis, so a stack of coefficient rows gives a stack of
    signals. Requires out_len <= c.shape[-1].
    """
    c = np.asarray(c, dtype=complex)
    if c.ndim == 0:
        raise ValueError("c must have a last axis, got a 0-d array")
    n_basis = c.shape[-1]
    check_count("out_len", out_len)
    if out_len > n_basis:
        raise ValueError(f"out_len must lie in [1, {n_basis}], got {out_len}")
    return n_basis * np.fft.ifft(c)[..., :out_len]


def adjoint(y, n_basis: int) -> np.ndarray:
    """Adjoint of :func:`synthesize`: forward DFT of y zero-padded to n_basis.

    (A^H y)(n) = sum_{m=0}^{M-1} y(m) exp(-2j*pi*m*n/N), along the last axis.
    Requires y.shape[-1] <= n_basis.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim == 0:
        raise ValueError("y must have a last axis, got a 0-d array")
    check_count("n_basis", n_basis)
    check_count("signal length", y.shape[-1])
    if y.shape[-1] > n_basis:
        raise ValueError(f"signal length must lie in [1, {n_basis}], got {y.shape[-1]}")
    return np.fft.fft(y, n=n_basis)


# the decorator sets and resets the error state once per call, about half the
# cost of entering a `with np.errstate(...)` block each time
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def soft_threshold(x, threshold):
    """Complex soft-threshold max(1 - T/|x|, 0) * x, elementwise.

    Shrinks magnitudes by T, zeroes anything at or below T, preserves phase.
    Accepts scalars or arrays and returns the same shape; T is a scalar or
    an ndarray that broadcasts against x, such as one (B, 1) column per row.
    """
    # a NaN threshold fails the test as written
    valid = (threshold >= 0).all() if isinstance(threshold, np.ndarray) else threshold >= 0
    if not valid:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    arr = np.asarray(x)
    # fmax also turns the 0/0 of a zero entry at threshold 0 into scale 0
    return np.fmax(1.0 - threshold / np.abs(arr), 0.0) * arr


def _per_row(params, n_rows: int):
    """The params every row shares, and one SalsaParams per row.

    One SalsaParams applies to all rows; a sequence gives one per row, and
    its rows must share n_basis and n_iter, which fix the solve.
    """
    if isinstance(params, SalsaParams):
        return params, [params] * n_rows
    rows = list(params)
    if not rows or len(rows) != n_rows:
        raise ValueError(f"expected one SalsaParams per row ({n_rows}), got {len(rows)}")
    shared = rows[0]
    if any((p.n_basis, p.n_iter) != (shared.n_basis, shared.n_iter) for p in rows):
        raise ValueError("stacked SalsaParams must share n_basis and n_iter")
    return shared, rows


def _column(values: list, shape: tuple) -> np.ndarray:
    """The rows' values as an array of `shape`, or a 0-d one when every row shares it.

    Same bits either way. With the 0-d array numpy runs each elementwise
    step as one loop, not one per row: at N = 200 a solve with columns of
    one shared value took about 9 % longer at 256 rows and 3 % at 1,000.
    An array, unlike a Python number, is not converted again on every call.
    """
    if len(set(values)) == 1:
        return np.array(values[0])
    return np.array(values).reshape(shape)


def salsa_solve(
    masked,
    mask: ObservationMask,
    params: SalsaParams | Sequence[SalsaParams],
    track_cost: bool = True,
) -> SalsaState:
    """Run the SALSA iteration on a real masked signal of shape (M,) or (B, M).

    Rows share `mask` and are solved along the last axis, so row i of a
    stack equals the call on row i alone. `params` is one SalsaParams for
    every row or a sequence with one per row; the rows of a sequence must
    share n_basis and n_iter, and each keeps its own mu and lam. With y the
    first k = mask.n_observed samples and A_k the first k rows of A, from
    c = A^H(y), d = 0:

        u <- soft(c + d, threshold_scale * lam / mu) - d
        d <- A_k^H(y - A_k u) / (mu + p_norm)
        c <- d + u

    A real y keeps every iterate Hermitian (bin N - n conjugates bin n), so
    the loop and the returned c hold bins 0..N//2, shape (..., N//2+1), and
    the state's n_basis names N. A complex `masked` with a nonzero imaginary
    part is refused.

    With track_cost, each row's ||masked - A c||_2^2 + lam * sum|c| is
    recorded after every iteration, shape (..., n_iter), with the unobserved
    positions of `masked` counted as zeros.
    """
    y = check_samples("masked signal", masked)
    if y.shape[-1] != mask.total_len:
        raise ValueError(f"masked signal must have M = {mask.total_len} samples, got {y.shape}")
    k, m_len = mask.n_observed, mask.total_len
    shared, rows = _per_row(params, y[..., 0].size)
    shared.check_window(k, m_len - k)
    n_basis = shared.n_basis

    if track_cost:
        # the FFT zero-pads the observed prefix, so the unobserved samples
        # never enter the iteration; the cost trace counts them as zeros. Its
        # l1 term counts bins 1..N-1-N//2 twice, for their mirrors.
        l1_weight = np.where(np.arange(n_basis // 2 + 1) < n_basis - n_basis // 2, 2.0, 1.0)
        l1_weight[0] = 1.0
        lam = _column([p.lam for p in rows], y.shape[:-1])
    # the observed samples, copied once so that the loop reads them
    # contiguously, not as a row-strided view of the masked signal
    y = np.ascontiguousarray(y[..., :k])

    # the transforms call the pocketfft kernels that numpy's rfft(x, n=N) and
    # irfft(u, N, norm="forward") end in, with outputs allocated once: the
    # same bits without the wrapper's argument handling on every call. The
    # inverse takes norm factor 1, so its head is A_k u; the forward one takes
    # each row's step in place of a product on its output. pocketfft
    # multiplies every real and imaginary part by it, which can differ from
    # numpy's complex-by-real product only in the sign of a zero part, and the
    # tests pin that c and the cost trace keep the product's bits.
    forward = _pocketfft.rfft_n_odd if n_basis % 2 else _pocketfft.rfft_n_even
    half = y.shape[:-1] + (n_basis // 2 + 1,)
    signal = np.empty(y.shape[:-1] + (n_basis,))
    head = signal[..., :k]  # the observed samples of each inverse transform
    # the one iterate buffer: t starts as c = A^H y and holds c + d, then the
    # shrink and u, then c = d + u again; the forward kernel writes each new
    # d over the last, which u has consumed
    t = forward(y, 1, out=np.empty(half, dtype=complex))
    d = np.zeros_like(t)
    # work buffers, overwritten every iteration: the magnitude |t| that
    # becomes the shrink's scale, and the residual y - head. The shrink's
    # last step writes the scale into the real part of a complex buffer
    # whose imaginary part stays 0, so the product multiplies complex by
    # complex: the same s + 0j that numpy's float-to-complex cast would
    # build on every call, in the same complex multiply loop
    scale, residual, factor = np.empty(half), np.empty_like(y), np.zeros_like(t)
    factor_real = factor.real
    # per row: the threshold is a column against the (..., N//2+1) iterates,
    # the step one value per row, as the forward kernel broadcasts it.
    # SalsaParams holds mu > 0 and lam >= 0, so every threshold is
    # nonnegative by construction and the loop shrinks without
    # soft_threshold's check.
    thresh = _column([p.threshold_scale * p.lam / p.mu for p in rows], y.shape[:-1] + (1,))
    step = _column([1.0 / (p.mu + p.p_norm) for p in rows], y.shape[:-1])
    cost = np.empty(y.shape[:-1] + (shared.n_iter if track_cost else 0,))
    # the loop's constants are 0-d arrays, as thresh and step are when every
    # row shares them: numpy converts a Python number again on every call,
    # and computes in float64 with either, so the bits are the same. The
    # ufuncs and kernels are local names and take their outputs
    # positionally, which numpy parses faster than out=.
    one, zero = np.array(1.0), np.array(0.0)
    add, absolute, divide, subtract = np.add, np.abs, np.divide, np.subtract
    fmax, multiply, irfft = np.fmax, np.multiply, _pocketfft.irfft

    # one error state for the whole solve: the shrink divides by |t|, which is
    # 0 in some bins (T/0, or 0/0 at lam = 0) or subnormal (T/|t| overflows),
    # and fmax clamps the -inf or NaN of 1 - T/|t| to scale 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(shared.n_iter):
            # u <- soft_threshold(c + d, thresh) - d, with soft_threshold's
            # ufuncs in its order, so the same bits
            add(t, d, t)
            absolute(t, scale)
            divide(thresh, scale, scale)
            subtract(one, scale, scale)
            fmax(scale, zero, factor_real)
            multiply(factor, t, t)
            subtract(t, d, t)
            irfft(t, one, signal)
            subtract(y, head, residual)
            forward(residual, step, d)
            add(d, t, t)
            if track_cost:
                # the error negated (head - y, then the synthesis), which squaring keeps
                irfft(t, one, signal)
                subtract(head, y, head)
                cost[..., i] = np.sum(signal[..., :m_len] ** 2, axis=-1) + lam * np.sum(
                    l1_weight * np.abs(t), axis=-1
                )
    return SalsaState(c=t, cost_history=cost, n_basis=n_basis)


def salsa_forecast(
    history,
    horizon: int,
    params: SalsaParams | Sequence[SalsaParams] = SalsaParams(),
    track_cost: bool = False,
) -> np.ndarray:
    """Forecast `horizon` samples past real histories of shape (K,) or (B, K).

    Masks `horizon` samples after each history, runs :func:`salsa_solve`
    (the iterates do not depend on its cost trace, so it is off by default)
    and returns samples K..K+horizon-1 of the unnormalized length-N inverse
    real FFT of its half spectrum, shaped (horizon,) or (B, horizon); row i
    equals the call on row i alone. `params` is one SalsaParams or one per
    row, as in :func:`salsa_solve`, which reads them once, so a one-shot
    iterable works, and checks the history against them
    (:meth:`SalsaParams.check_window`).
    """
    hist = check_samples("history", history)
    check_count("horizon", horizon)
    k = hist.shape[-1]
    masked = np.concatenate([hist, np.zeros(hist.shape[:-1] + (horizon,))], axis=-1)
    state = salsa_solve(masked, ObservationMask.prefix(k, k + horizon), params, track_cost)
    return np.fft.irfft(state.c, state.n_basis, norm="forward")[..., k : k + horizon]
