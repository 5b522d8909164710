"""Synthetic AR-path generator and the SALSA hyperparameter grid sweep.

The test process is z(t) = A(t) z(t-1) + gamma(t) with A(t) uniform on
[a_low, a_high] and gamma(t) Gaussian white noise, shifted by a constant
offset. The sweep forecasts the last `horizon` points of freshly generated
paths for every (mu, lam, n_basis) grid cell and reports the mean squared
residual per forecast point.

Seeding rule: the RNG stream of trial `t` in cell `i` is seeded with
SeedSequence((master_seed, i, t)). Cells and trials are therefore
independent of execution order, so results are identical for any worker
count and any split of the trials into stacked SALSA row blocks.
"""

from __future__ import annotations

import itertools
import json
import math
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields, replace

import numpy as np

from .ingest import csv_text
from .salsa import SalsaParams, salsa_forecast
from .series import TimeSeries, check_count, check_real

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
    a_low/high: uniform bounds for the AR coefficient A(t); a_high - a_low finite
    noise_std : Gaussian noise scale (> 0, finite)
    offset    : constant level added to every sample (finite)
    seed      : RNG seed; doubles as the sweep master seed
    """

    length: int
    a_low: float = 0.0
    a_high: float = 1.0
    noise_std: float = 1.0
    offset: float = 80.0
    seed: int = 0

    def __post_init__(self):
        check_count("length", self.length, low=2)
        for name in ("a_low", "a_high", "noise_std", "offset"):
            check_real(name, getattr(self, name))
        if self.a_low > self.a_high:
            raise ValueError(f"a_low {self.a_low} exceeds a_high {self.a_high}")
        if not math.isfinite(self.a_high - self.a_low):
            raise ValueError(f"a_high - a_low must be finite, got {self.a_high} - {self.a_low}")
        if not 0 < self.noise_std < math.inf:
            raise ValueError(f"noise_std must be positive and finite, got {self.noise_std}")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset}")
        check_count("seed", self.seed, low=0)


def generate_path(params: SimParams, rng_seed=None) -> TimeSeries:
    """Generate one AR path; deterministic for a fixed seed.

    z(0) is drawn as gamma(0); z(t) = A(t) z(t-1) + gamma(t) afterwards,
    with the offset added to every sample. `rng_seed` overrides params.seed
    (the sweep passes derived per-trial seeds here).
    """
    rng = np.random.default_rng(params.seed if rng_seed is None else rng_seed)
    gamma = rng.normal(0.0, params.noise_std, params.length).tolist()
    coeff = rng.uniform(params.a_low, params.a_high, params.length).tolist()
    # Python floats: the same IEEE double operations as numpy scalars, faster
    z = [gamma[0]]
    for a, g in zip(coeff[1:], gamma[1:]):
        z.append(a * z[-1] + g)
    return TimeSeries(values=np.array(z) + params.offset)


@dataclass(frozen=True)
class SweepGrid:
    """Grid of SALSA hyperparameters to evaluate.

    Built only when every cell can run: each value list is a nonempty tuple
    or list with no value repeated, and every cell's SalsaParams is valid
    and fits `window + horizon` samples (:meth:`SalsaParams.check_window`);
    anything else raises ValueError.
    """

    mu_values: tuple
    lambda_values: tuple = (1.0,)
    n_basis_values: tuple = (200,)
    trials: int = 1
    horizon: int = 7
    window: int = 91

    def __post_init__(self):
        # each value is checked as the SalsaParams field it sets, then compared as
        # a float, so 1 and 1.0 repeat
        for name, field, check in (("mu_values", "mu", check_real),
                                   ("lambda_values", "lam", check_real),
                                   ("n_basis_values", "n_basis", check_count)):
            vals = getattr(self, name)
            if not isinstance(vals, (tuple, list)):
                raise ValueError(f"{name} must be a tuple or list, got {vals!r}")
            vals = tuple(vals)
            if len(vals) == 0:
                raise ValueError(f"{name} must be nonempty")
            for value in vals:
                check(field, value)
            if len(set(map(float, vals))) != len(vals):
                raise ValueError(f"{name} repeats a value: {vals}")
            object.__setattr__(self, name, vals)
        for name in ("trials", "horizon", "window"):
            check_count(name, getattr(self, name))
        for mu, lam, n_basis in self.cells():
            SalsaParams(mu=mu, lam=lam, n_basis=n_basis).check_window(self.window, self.horizon)

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


# a SweepRow's fields as the record names them; sweep.csv has the first five
CELL_KEYS = ("mu", "lambda", "n_basis", "mean_residual_per_point", "trials_run", "error")


@dataclass
class SweepTable:
    """Sweep results, one row per executed grid cell."""

    rows: list[SweepRow]

    def to_csv(self) -> str:
        columns = [[getattr(row, field.name) for row in self.rows]
                   for field in fields(SweepRow)[:5]]
        return csv_text(CELL_KEYS[:5], columns)

    def to_json(self, grid: SweepGrid, sim: SimParams) -> str:
        """The sweep's record: every field of the run that made the rows, and the rows."""
        cells = [dict(zip(CELL_KEYS, astuple(row))) for row in self.rows]
        return json.dumps({"run": _run(grid, sim), "cells": cells}, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str, grid: SweepGrid, sim: SimParams) -> "SweepTable":
        """Read back the record :meth:`to_json` wrote for this same run.

        Anything else raises ValueError: text that is not strict JSON, another
        run's record (naming a field that differs), or a cell this run cannot
        write, such as one outside the grid, a repeat or a non-finite mean.
        """
        try:
            record = json.loads(text, parse_constant=_not_json)
            if not isinstance(record, dict):  # such as the bare cell list of earlier versions
                raise TypeError('the file is not a {"run", "cells"} record')
            recorded = dict(record["run"])
            cells = [[cell[key] for key in CELL_KEYS] for cell in record["cells"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed sweep record: {exc!r}") from exc
        run = _run(grid, sim)
        for name in {**recorded, **run}:
            there, here = json.dumps(recorded.get(name)), json.dumps(run.get(name))
            if there != here:
                raise ValueError(f"sweep record of another run: {name} {there} there, {here} here")
        # cells and trial counts compared as JSON text, so 200.0 is not n_basis 200,
        # -0.0 not lambda 0.0, 2.0 not trials 2, true not 1 and false not 0
        unseen = dict.fromkeys(map(json.dumps, grid.cells()), True)
        trials = json.dumps(run["trials"])
        for cell in cells:
            mean, trials_run, error = cell[3], json.dumps(cell[4]), cell[5]
            done = (trials_run, error) == (trials, None) and isinstance(mean, float)
            failed = (mean, trials_run) == (None, "0") and isinstance(error, str)
            if not unseen.pop(json.dumps(cell[:3]), False) or not (
                done and math.isfinite(mean) or failed
            ):
                raise ValueError(f"sweep record cell is not one this run can write: {cell}")
        return cls(rows=[SweepRow(*cell) for cell in cells])


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def _run(grid: SweepGrid, sim: SimParams) -> dict:
    """The record's "run": every field of the grid and of the AR settings.

    Numpy numbers, which the fields accept, become the Python numbers that
    JSON writes, so `to_json` can write the record and `from_json` compares
    the numbers it reads back.
    """
    def number(value):
        return value.item() if isinstance(value, np.generic) else value

    return {
        name: [number(v) for v in value] if isinstance(value, tuple) else number(value)
        for name, value in {**asdict(grid), **asdict(sim)}.items()
    }


# Rows per stacked SALSA call, at most. Stacking pays off quickly: at N = 200
# on a 2-core Xeon a row took about 5.8 us per iteration alone and 1.5-1.6 us
# in a stack of 32 to 256 rows, but 1.85 us at 1,000 rows, whose arrays no
# longer fit the cache.
BLOCK_ROWS = 256

# Rows a block needs before a worker process of its own pays. On a 20-row
# grid at N = 200 two forked workers of 10 rows took 109-116 ms in the median
# against 111-135 ms for one in-process block (three runs of 40 alternating
# sweeps on a 2-core Xeon), a gain within the spread between runs; and on a
# shared host the workers' times have spread 3-6 times wider, because the
# sweep then waits for the busier core.
MIN_BLOCK_ROWS = 32


def _blocks(rows: list, threads: int) -> list[list]:
    """Split rows into contiguous, near-equal blocks that each share one n_basis.

    A run of rows with one n_basis becomes ceil(rows / BLOCK_ROWS) blocks, or
    more to give each of `threads` workers one, as long as every block keeps
    MIN_BLOCK_ROWS rows.
    """
    blocks = []
    for _, run in itertools.groupby(rows, key=lambda row: row[2].n_basis):
        run = list(run)
        n = max(-(-len(run) // BLOCK_ROWS), min(threads, len(run) // MIN_BLOCK_ROWS))
        blocks += [run[len(run) * k // n : len(run) * (k + 1) // n] for k in range(n)]
    return blocks


def _run_block(args) -> tuple[np.ndarray, list]:
    """Forecast a block of (cell index, trial, params) rows in one stacked SALSA call.

    Returns each row's sum of squared forecast errors (NaN for a row that did
    not run) and its error text (None unless something raised). A
    ValueError/ArithmeticError of its path fails its own row; one of the
    stacked call fails every row it was given.
    """
    rows, grid, sim = args
    path_params = replace(sim, length=grid.window + grid.horizon)
    paths = np.full((len(rows), path_params.length), np.nan)
    errors = [None] * len(rows)
    for i, (cell, trial, _) in enumerate(rows):
        seed = np.random.SeedSequence((sim.seed, cell, trial))
        try:
            paths[i] = generate_path(path_params, rng_seed=seed).values
        except (ValueError, ArithmeticError) as exc:
            errors[i] = str(exc)
    ran = np.isfinite(paths).all(axis=1)
    sq_err = np.full(len(rows), np.nan)
    if ran.any():
        params = [p for (_, _, p), ok in zip(rows, ran) if ok]
        try:
            fc = salsa_forecast(paths[ran, : grid.window], grid.horizon, params)
        except (ValueError, ArithmeticError) as exc:
            errors = [error or str(exc) for error in errors]
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                sq_err[ran] = np.sum((fc - paths[ran, grid.window :]) ** 2, axis=1)
    return sq_err, errors


def run_sweep(
    grid: SweepGrid,
    sim: SimParams,
    threads: int = 1,
    completed: dict | None = None,
    on_row=None,
) -> SweepTable:
    """Evaluate every grid cell; deterministic for a fixed sim.seed.

    Every (cell, trial) pair still to run is one row, in cell-major,
    trial-minor order; rows go to SALSA in stacked blocks (see `_blocks`),
    spread over at most `threads` (>= 1) worker processes and no more than
    there are blocks. A cell's mean adds its trials' squared errors in trial
    order. A cell whose total is not finite (a row that raised or a forecast
    that is not finite, say) has failed, alone, with the error text of its
    first row that raised, if any.

    `completed` maps (mu, lam, n_basis) keys to already-finished SweepRows
    (resume support); those cells are not re-run. `on_row` is called with
    each freshly computed row in grid order, as soon as its last block is
    done, which lets callers persist partial tables for later resume.
    """
    check_count("threads", threads)
    completed = completed or {}
    cells = grid.cells()
    pending = [idx for idx, cell in enumerate(cells) if cell not in completed]
    rows = []
    for idx in pending:
        mu, lam, n_basis = cells[idx]
        params = SalsaParams(mu=mu, lam=lam, n_basis=n_basis)
        rows += [(idx, trial, params) for trial in range(grid.trials)]

    blocks = _blocks(rows, threads)
    fresh: dict[tuple, SweepRow] = {}
    # a fork pool starts all max_workers processes at its first submit
    workers = min(threads, len(blocks))
    parallel = workers > 1
    if parallel:
        # imported here, so no run without a pool loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        mapped = (pool.map if parallel else map)(_run_block, [(b, grid, sim) for b in blocks])
        # (squared error, error text) per row, in row order; a block is read
        # only when a cell needs its rows
        row_results = itertools.chain.from_iterable(zip(*result) for result in mapped)
        for idx in pending:
            mu, lam, n_basis = cells[idx]
            sq_err, row_errors = zip(*itertools.islice(row_results, grid.trials))
            # Python floats add in trial order, without warnings (sum() compensates from 3.12)
            *_, total = itertools.accumulate(map(float, sq_err))
            if np.isfinite(total):
                row = SweepRow(mu, lam, n_basis, total / (grid.trials * grid.horizon), grid.trials)
            else:
                not_finite = "squared forecast error is not finite"
                error = next((e for e in row_errors if e is not None), not_finite)
                row = SweepRow(mu, lam, n_basis, None, 0, error=error)
            fresh[row.key] = row
            if on_row is not None:
                on_row(row)

    return SweepTable(rows=[completed[key] if key in completed else fresh[key] for key in cells])
