"""Synthetic AR-path generator and the SALSA hyperparameter grid sweep.

The test process is z(t) = A(t) z(t-1) + gamma(t) with A(t) uniform on
[a_low, a_high] and gamma(t) Gaussian white noise, shifted by a constant
offset. The sweep forecasts the last `horizon` points of freshly generated
paths for every (mu, lam, n_basis) grid cell and reports the mean squared
residual per forecast point.

Seeding rule: the RNG stream of trial `t` in cell `i` is seeded with
SeedSequence((master_seed, i, t)). Cells and trials are therefore
independent of execution order, so results are identical for any worker
count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .ingest import csv_text
from .salsa import SalsaParams, salsa_forecast
from .series import TimeSeries

__all__ = [
    "SimParams",
    "SweepGrid",
    "SweepRow",
    "SweepTable",
    "generate_path",
    "run_sweep",
]


@dataclass(frozen=True)
class SimParams:
    """AR path generator settings.

    length    : number of samples (>= 2)
    a_low/high: uniform bounds for the AR coefficient A(t)
    noise_std : Gaussian noise scale (> 0)
    offset    : constant level added to every sample
    seed      : RNG seed; doubles as the sweep master seed
    """

    length: int
    a_low: float = 0.0
    a_high: float = 1.0
    noise_std: float = 1.0
    offset: float = 80.0
    seed: int = 0

    def __post_init__(self):
        if self.length < 2:
            raise ValueError(f"length must be >= 2, got {self.length}")
        if self.a_low > self.a_high:
            raise ValueError(f"a_low {self.a_low} exceeds a_high {self.a_high}")
        if not self.noise_std > 0:
            raise ValueError(f"noise_std must be positive, got {self.noise_std}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def generate_path(params: SimParams, rng_seed=None) -> TimeSeries:
    """Generate one AR path; deterministic for a fixed seed.

    z(0) is drawn as gamma(0); z(t) = A(t) z(t-1) + gamma(t) afterwards,
    with the offset added to every sample. `rng_seed` overrides params.seed
    (the sweep passes derived per-trial seeds here).
    """
    rng = np.random.default_rng(params.seed if rng_seed is None else rng_seed)
    gamma = rng.normal(0.0, params.noise_std, params.length)
    coeff = rng.uniform(params.a_low, params.a_high, params.length)
    z = np.empty(params.length)
    z[0] = gamma[0]
    for t in range(1, params.length):
        z[t] = coeff[t] * z[t - 1] + gamma[t]
    return TimeSeries(values=z + params.offset)


@dataclass(frozen=True)
class SweepGrid:
    """Grid of SALSA hyperparameters to evaluate."""

    mu_values: tuple
    lambda_values: tuple = (1.0,)
    n_basis_values: tuple = (200,)
    trials: int = 1
    horizon: int = 7
    window: int = 91

    def __post_init__(self):
        for name in ("mu_values", "lambda_values", "n_basis_values"):
            vals = tuple(getattr(self, name))
            if len(vals) == 0:
                raise ValueError(f"{name} must be nonempty")
            object.__setattr__(self, name, vals)
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.horizon < 1 or self.window < 1:
            raise ValueError("horizon and window must be >= 1")

    def cells(self) -> list[tuple[float, float, int]]:
        """Grid cells in row order: mu fastest within lambda within n_basis."""
        return [
            (float(mu), float(lam), int(nb))
            for nb, lam, mu in itertools.product(
                self.n_basis_values, self.lambda_values, self.mu_values
            )
        ]


@dataclass(frozen=True)
class SweepRow:
    mu: float
    lam: float
    n_basis: int
    mean_residual_per_point: float | None
    trials_run: int
    error: str | None = None

    @property
    def key(self) -> tuple[float, float, int]:
        return (self.mu, self.lam, self.n_basis)


CSV_HEADER = ["mu", "lambda", "n_basis", "mean_residual_per_point", "trials_run"]


@dataclass
class SweepTable:
    """Sweep results, one row per executed grid cell."""

    rows: list[SweepRow]

    def to_csv(self) -> str:
        return csv_text(
            CSV_HEADER,
            ((r.mu, r.lam, r.n_basis, r.mean_residual_per_point, r.trials_run) for r in self.rows),
        )

    def to_json(self) -> str:
        payload = [
            {
                "mu": row.mu,
                "lambda": row.lam,
                "n_basis": row.n_basis,
                "mean_residual_per_point": row.mean_residual_per_point,
                "trials_run": row.trials_run,
                "error": row.error,
            }
            for row in self.rows
        ]
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "SweepTable":
        """Parse what :meth:`to_csv` wrote; a malformed row raises ValueError."""
        reader = csv.reader(io.StringIO(text))
        rows = []
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected sweep table header: {header}")
            for rec in reader:
                if not rec:
                    continue
                try:
                    mu, lam, n_basis, mean, trials_run = rec
                    row = SweepRow(
                        mu=float(mu),
                        lam=float(lam),
                        n_basis=int(n_basis),
                        mean_residual_per_point=float(mean) if mean != "" else None,
                        trials_run=int(trials_run),
                        error=None if mean != "" else "failure recorded in table",
                    )
                except ValueError as exc:
                    raise ValueError(
                        f"malformed sweep table row at line {reader.line_num}: {','.join(rec)!r}"
                    ) from exc
                rows.append(row)
        except csv.Error as exc:
            raise ValueError(f"malformed sweep table row at line {reader.line_num}: {exc}") from exc
        return cls(rows=rows)


def _run_cell(args) -> SweepRow:
    """One grid cell in one stacked SALSA call; ValueError/ArithmeticError fail the row."""
    mu, lam, n_basis, cell_index, grid, sim = args
    try:
        params = SalsaParams(mu=mu, lam=lam, n_basis=n_basis)
        path_params = replace(sim, length=grid.window + grid.horizon)
        seeds = (np.random.SeedSequence((sim.seed, cell_index, t)) for t in range(grid.trials))
        paths = np.array([generate_path(path_params, rng_seed=seed).values for seed in seeds])
        fc = salsa_forecast(paths[:, : grid.window], grid.horizon, params)
    except (ValueError, ArithmeticError) as exc:
        return SweepRow(mu, lam, n_basis, None, 0, error=str(exc))
    # cumsum adds the per-trial errors one after another in trial order
    total = np.cumsum(np.sum((fc - paths[:, grid.window :]) ** 2, axis=1))[-1]
    return SweepRow(mu, lam, n_basis, float(total) / (grid.trials * grid.horizon), grid.trials)


def run_sweep(
    grid: SweepGrid,
    sim: SimParams,
    threads: int = 1,
    completed: dict | None = None,
    on_row=None,
) -> SweepTable:
    """Evaluate every grid cell; deterministic for a fixed sim.seed.

    `completed` maps (mu, lam, n_basis) keys to already-finished SweepRows
    (resume support); those cells are not re-run. `on_row` is called with
    each freshly computed row in grid order, which lets callers persist
    partial tables for later resume.
    """
    completed = completed or {}
    cells = grid.cells()
    jobs = [(*cell, idx, grid, sim) for idx, cell in enumerate(cells) if cell not in completed]

    fresh: dict[tuple, SweepRow] = {}
    parallel = threads > 1 and len(jobs) > 1
    with ProcessPoolExecutor(max_workers=threads) if parallel else nullcontext() as pool:
        for row in (pool.map if parallel else map)(_run_cell, jobs):
            fresh[row.key] = row
            if on_row is not None:
                on_row(row)

    return SweepTable(rows=[completed[key] if key in completed else fresh[key] for key in cells])
