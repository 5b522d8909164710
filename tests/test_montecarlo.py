import json
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import strict_json
from hypothesis import given, settings
from hypothesis import strategies as st

from sigcast.montecarlo import (
    SimParams,
    SweepGrid,
    SweepTable,
    generate_path,
    run_sweep,
)
from sigcast.salsa import SalsaParams
from sigcast.series import TimeSeries


def _reference_generate_path(params, rng_seed=None):
    """The AR recursion on numpy scalars, one array element at a time."""
    rng = np.random.default_rng(params.seed if rng_seed is None else rng_seed)
    gamma = rng.normal(0.0, params.noise_std, params.length)
    coeff = rng.uniform(params.a_low, params.a_high, params.length)
    z = np.empty(params.length)
    z[0] = gamma[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, params.length):
            z[t] = coeff[t] * z[t - 1] + gamma[t]
    return TimeSeries(values=z + params.offset)


def _path_or_error(make, params, seed):
    try:
        return make(params, rng_seed=seed).values
    except ValueError as exc:
        return str(exc)


class TestGeneratePath:
    @settings(max_examples=150, deadline=None)
    @given(
        a=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)).map(sorted),
        noise_std=st.sampled_from([1.0, 1e-12, 1e250]),
        length=st.sampled_from([2, 98, 1000]),
        seed=st.integers(0, 2**32),
    )
    def test_matches_numpy_scalar_recursion(self, a, noise_std, length, seed):
        # bit for bit, and the same error text where a path overflows
        params = SimParams(length=length, a_low=a[0], a_high=a[1], noise_std=noise_std)
        got = _path_or_error(generate_path, params, seed)
        want = _path_or_error(_reference_generate_path, params, seed)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.array_equal(got, want)

    def test_degenerate_process_sits_at_offset(self):
        params = SimParams(length=50, a_low=0.0, a_high=0.0, noise_std=1e-12, offset=80.0, seed=1)
        path = generate_path(params)
        assert np.allclose(path.values, 80.0, atol=1e-9)

    def test_deterministic_for_fixed_seed(self):
        params = SimParams(length=200, seed=42)
        a = generate_path(params)
        b = generate_path(params)
        assert np.array_equal(a.values, b.values)

    def test_seed_override_changes_path(self):
        params = SimParams(length=100, seed=1)
        assert not np.array_equal(
            generate_path(params).values, generate_path(params, rng_seed=2).values
        )

    def test_stationary_variance_against_long_run_oracle(self):
        # empirical oracle: two independent long runs must agree on the
        # variance, and the sampled run must sit within 10% of the oracle's
        params = SimParams(length=10**6, a_low=0.0, a_high=1.0, noise_std=1.0, offset=0.0, seed=7)
        sample_var = np.var(generate_path(params).values)
        oracle_var = np.var(generate_path(params, rng_seed=1234).values)
        assert abs(sample_var - oracle_var) <= 0.1 * oracle_var

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SimParams(length=1)
        with pytest.raises(ValueError):
            SimParams(length=10, a_low=1.0, a_high=0.0)
        with pytest.raises(ValueError):
            SimParams(length=10, noise_std=0.0)
        with pytest.raises(ValueError):
            SimParams(length=10, seed=-3)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            (dict(a_high=float("inf")), "a_high - a_low"),
            (dict(a_low=float("nan")), "a_high - a_low"),
            (dict(a_low=-1e308, a_high=1e308), "a_high - a_low"),
            (dict(noise_std=float("inf")), "noise_std"),
            (dict(offset=float("nan")), "offset"),
        ],
        ids=["a_high_inf", "a_low_nan", "range_overflows", "noise_std_inf", "offset_nan"],
    )
    def test_params_that_fail_every_path_rejected(self, kwargs, named):
        # numpy's uniform or TimeSeries would raise for every seed
        with pytest.raises(ValueError, match=named):
            SimParams(length=10, **kwargs)


FAST_GRID = dict(trials=2, horizon=3, window=40)


class TestRunSweep:
    def test_degenerate_zero_paths_have_zero_residual(self):
        # all-zero paths keep the solver at its origin fixed point
        grid = SweepGrid(mu_values=(0.6,), trials=1, horizon=1, window=30)
        sim = SimParams(length=31, a_low=0.0, a_high=0.0, noise_std=1e-300, offset=0.0, seed=3)
        table = run_sweep(grid, sim)
        assert len(table.rows) == 1
        assert table.rows[0].mean_residual_per_point < 1e-300

    def test_degenerate_level_paths_have_small_residual(self):
        # constant level 80: the l1 bias leaves a tiny but nonzero residual
        grid = SweepGrid(mu_values=(0.6,), trials=1, horizon=2, window=30)
        sim = SimParams(length=32, a_low=0.0, a_high=0.0, noise_std=1e-12, offset=80.0, seed=3)
        table = run_sweep(grid, sim)
        assert table.rows[0].mean_residual_per_point < 1e-3

    def test_same_master_seed_gives_identical_tables(self):
        grid = SweepGrid(mu_values=(0.5, 1.0), **FAST_GRID)
        sim = SimParams(length=43, seed=11)
        a = run_sweep(grid, sim)
        b = run_sweep(grid, sim)
        assert a.to_csv() == b.to_csv()

    def test_thread_count_does_not_change_results(self, monkeypatch):
        # 5 cells x 4 trials: row blocks of 10/10 at 2 workers and 6/7/7 at 3
        # both end inside a cell, once blocks that small may have a worker
        import sigcast.montecarlo

        monkeypatch.setattr(sigcast.montecarlo, "MIN_BLOCK_ROWS", 1)
        grid = SweepGrid(mu_values=(0.5, 1.0, 2.0, 0.3, 1.5), trials=4, horizon=3, window=40)
        sim = SimParams(length=43, seed=11)
        serial = run_sweep(grid, sim, threads=1)
        for threads in (2, 3):
            seen = []
            parallel = run_sweep(grid, sim, threads=threads, on_row=seen.append)
            assert parallel.to_csv() == serial.to_csv()
            assert parallel.to_json(grid, sim) == serial.to_json(grid, sim)
            assert seen == parallel.rows

    def test_small_runs_stay_in_one_block(self):
        from sigcast.montecarlo import _blocks
        from sigcast.salsa import SalsaParams

        params = SalsaParams(n_basis=200)
        rows = [(cell, trial, params) for cell in range(32) for trial in range(2)]
        assert [len(b) for b in _blocks(rows[:20], threads=2)] == [20]
        assert [len(b) for b in _blocks(rows, threads=2)] == [32, 32]
        assert [len(b) for b in _blocks(rows, threads=3)] == [32, 32]
        assert [len(b) for b in _blocks(rows * 5, threads=1)] == [160, 160]

    def test_pool_has_no_more_workers_than_blocks(self, monkeypatch):
        # a fork pool starts max_workers processes at once; this fake starts none.
        # run_sweep imports the pool from concurrent.futures only when it starts one
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # 32 cells x 2 trials: 64 rows in two blocks of 32
        grid = SweepGrid(mu_values=tuple(0.1 * k for k in range(1, 33)), **FAST_GRID)
        sim = SimParams(length=43, seed=3)
        table = run_sweep(grid, sim, threads=1000)
        assert sizes == [2]
        assert table.to_csv() == run_sweep(grid, sim, threads=1).to_csv()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_nonpositive_threads_refused(self, threads):
        grid = SweepGrid(mu_values=(0.6,), **FAST_GRID)
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            run_sweep(grid, SimParams(length=43, seed=3), threads=threads)

    def test_rows_follow_grid_order(self):
        grid = SweepGrid(mu_values=(0.1, 0.2, 0.3), **FAST_GRID)
        sim = SimParams(length=43, seed=5)
        table = run_sweep(grid, sim)
        assert [row.mu for row in table.rows] == [0.1, 0.2, 0.3]

    def test_residuals_nonnegative_and_finite(self):
        grid = SweepGrid(mu_values=(0.3, 0.9), lambda_values=(1.0, 2.0), **FAST_GRID)
        sim = SimParams(length=43, seed=21)
        for row in run_sweep(grid, sim).rows:
            assert row.error is None
            assert np.isfinite(row.mean_residual_per_point)
            assert row.mean_residual_per_point >= 0.0

    def test_cell_failure_recorded_not_fatal(self):
        # n_basis smaller than window + horizon could only fail: the grid is refused
        with pytest.raises(ValueError, match="n_basis = 16; got window 40, horizon 3"):
            SweepGrid(mu_values=(0.6,), n_basis_values=(16,), **FAST_GRID)

    def test_invalid_cell_params_recorded_not_fatal(self):
        # mu = 0 violates the solver's parameter invariants: the grid is refused
        with pytest.raises(ValueError, match="mu must be positive"):
            SweepGrid(mu_values=(0.0, 0.6), **FAST_GRID)

    def test_n_basis_too_small_fails_only_its_cells(self):
        # one n_basis too small refuses the whole grid, not just its cells
        with pytest.raises(ValueError, match="n_basis = 16"):
            SweepGrid(mu_values=(0.5, 1.0), n_basis_values=(16, 64), **FAST_GRID)

    def test_failed_block_fails_only_its_cells(self, monkeypatch):
        # one worker: had the two n_basis shared a block, the whole block would fail
        import sigcast.montecarlo

        real = sigcast.montecarlo.salsa_forecast

        def fails_at_16(history, horizon, params):
            if params[0].n_basis == 16:
                raise ValueError("injected failure")
            return real(history, horizon, params)

        monkeypatch.setattr(sigcast.montecarlo, "salsa_forecast", fails_at_16)
        grid = SweepGrid(mu_values=(0.5, 1.0), n_basis_values=(16, 64), trials=2, horizon=3,
                         window=10)
        table = run_sweep(grid, SimParams(length=13, seed=2), threads=1)
        assert [row.n_basis for row in table.rows] == [16, 16, 64, 64]
        for row in table.rows:
            if row.n_basis == 16:
                assert row.error == "injected failure"
                assert row.mean_residual_per_point is None
            else:
                assert row.error is None
                assert np.isfinite(row.mean_residual_per_point)

    @pytest.mark.parametrize(
        "fault, error",
        [("non_finite", "squared forecast error is not finite"),
         ("overflow", "range exceeds bounds")],
        ids=["non_finite", "overflow"],
    )
    def test_bad_path_fails_only_its_cell(self, monkeypatch, fault, error):
        import sigcast.montecarlo

        real = sigcast.montecarlo.generate_path

        def one_bad_path(params, rng_seed=None):
            path = real(params, rng_seed=rng_seed)
            if rng_seed.entropy[1:] != (1, 1):  # cell 1, trial 1
                return path
            if fault == "overflow":
                raise OverflowError(error)
            values = path.values.copy()
            values[5] = np.inf
            return SimpleNamespace(values=values)

        grid = SweepGrid(mu_values=(0.5, 1.0, 2.0), **FAST_GRID)
        sim = SimParams(length=43, seed=2)
        clean = run_sweep(grid, sim)
        monkeypatch.setattr(sigcast.montecarlo, "generate_path", one_bad_path)
        table = run_sweep(grid, sim)
        assert table.rows[1].error == error
        assert table.rows[1].mean_residual_per_point is None
        assert [table.rows[i] for i in (0, 2)] == [clean.rows[i] for i in (0, 2)]

    def test_non_finite_total_fails_only_its_cell(self, monkeypatch):
        # one block of 6 rows at one worker: an inf forecast in the first row
        # of cell 1, and cell 2 forecasts 6e153 so that each trial's squared
        # error (about 1.1e308) is finite but the two trials' total overflows
        import sigcast.montecarlo

        real = sigcast.montecarlo.salsa_forecast

        def skewed(history, horizon, params):
            fc = real(history, horizon, params).copy()
            mus = [p.mu for p in params]
            fc[mus.index(1.0)] = np.inf
            fc[[mu == 2.0 for mu in mus]] = 6e153
            return fc

        grid = SweepGrid(mu_values=(0.5, 1.0, 2.0), **FAST_GRID)
        sim = SimParams(length=43, seed=2)
        clean = run_sweep(grid, sim, threads=1)
        monkeypatch.setattr(sigcast.montecarlo, "salsa_forecast", skewed)
        rows = [(cell, trial, SalsaParams(mu=mu)) for cell, (mu, _, _) in enumerate(grid.cells())
                for trial in range(grid.trials)]
        sq_err, _ = sigcast.montecarlo._run_block((rows, grid, sim))
        assert np.isinf(sq_err[2]) and np.isfinite(sq_err[[0, 1, 3, 4, 5]]).all()
        table = run_sweep(grid, sim, threads=1)
        assert table.rows[0] == clean.rows[0]
        for row in table.rows[1:]:
            assert (row.mean_residual_per_point, row.trials_run) == (None, 0)
            assert row.error == "squared forecast error is not finite"

    def test_overflowing_paths_fail_every_cell(self):
        # paths near 1e307 are finite, but their forecasts' squared errors are not
        grid = SweepGrid(mu_values=(0.5, 1.0), **FAST_GRID)
        sim = SimParams(length=43, offset=1e307, seed=1)
        with np.errstate(all="ignore"):
            table = run_sweep(grid, sim, threads=1)
        for row in table.rows:
            assert (row.mean_residual_per_point, row.trials_run) == (None, 0)
            assert row.error == "squared forecast error is not finite"
        assert len(strict_json(table.to_json(grid, sim))["cells"]) == 2

    def test_unexpected_exception_propagates(self, monkeypatch):
        # a TypeError is a bug, not a failed cell
        import sigcast.montecarlo

        def broken(*args, **kwargs):
            raise TypeError("injected failure")

        monkeypatch.setattr(sigcast.montecarlo, "salsa_forecast", broken)
        grid = SweepGrid(mu_values=(0.6,), **FAST_GRID)
        with pytest.raises(TypeError):
            run_sweep(grid, SimParams(length=43, seed=2), threads=1)

    def test_resume_skips_completed_cells(self):
        grid = SweepGrid(mu_values=(0.5, 1.0), **FAST_GRID)
        sim = SimParams(length=43, seed=11)
        full = run_sweep(grid, sim)
        partial = {full.rows[0].key: full.rows[0]}
        seen = []
        resumed = run_sweep(grid, sim, completed=partial, on_row=seen.append)
        assert resumed.to_csv() == full.to_csv()
        assert [row.mu for row in seen] == [1.0]  # only the missing cell ran


class TestSweepTable:
    def test_json_round_trip(self):
        grid = SweepGrid(mu_values=(0.5, 1.0), **FAST_GRID)
        sim = SimParams(length=43, seed=11)
        table = run_sweep(grid, sim)
        text = table.to_json(grid, sim)
        back = SweepTable.from_json(text, grid, sim)
        assert back == table
        assert back.to_json(grid, sim) == text

    @pytest.mark.parametrize("grid_fields, sim_fields", [
        ({"n_basis_values": (np.int64(200),)}, {}),
        ({"mu_values": (np.float32(0.6),)}, {}),
        ({}, {"seed": np.int64(3)}),
    ], ids=["n_basis_int64", "mu_float32", "seed_int64"])
    def test_json_round_trip_of_numpy_numbers(self, grid_fields, sim_fields):
        # the record's run holds the Python numbers that JSON writes
        grid = SweepGrid(**{"mu_values": (0.5,), **FAST_GRID, **grid_fields})
        sim = SimParams(**{"length": 43, "seed": 11, **sim_fields})
        table = run_sweep(grid, sim)
        text = table.to_json(grid, sim)
        assert SweepTable.from_json(text, grid, sim) == table
        run = strict_json(text)["run"]
        for name, value in {**grid_fields, **sim_fields}.items():
            assert run[name] == np.asarray(value).tolist()

    def test_csv_header(self):
        table = SweepTable(rows=[])
        assert table.to_csv().splitlines()[0] == "mu,lambda,n_basis,mean_residual_per_point,trials_run"

    def test_json_contains_all_cells(self):
        grid = SweepGrid(mu_values=(0.5, 1.5), **FAST_GRID)
        sim = SimParams(length=43, seed=11)
        record = strict_json(run_sweep(grid, sim).to_json(grid, sim))
        assert record["run"]["mu_values"] == [0.5, 1.5]
        assert record["run"]["seed"] == 11
        assert [cell["mu"] for cell in record["cells"]] == [0.5, 1.5]
        assert all("mean_residual_per_point" in cell for cell in record["cells"])

    def test_bad_header_rejected(self):
        # the record is {"run": ..., "cells": [...]}; anything else is refused
        grid = SweepGrid(mu_values=(0.5,), **FAST_GRID)
        sim = SimParams(length=43, seed=11)
        for text in ("a,b,c\n1,2,3\n", "[]", '{"cells": []}', '{"run": 5, "cells": []}'):
            with pytest.raises(ValueError, match="malformed sweep record"):
                SweepTable.from_json(text, grid, sim)

    def test_other_run_rejected_naming_the_field(self):
        grid = SweepGrid(mu_values=(0.5,), **FAST_GRID)
        sim = SimParams(length=43, seed=11)
        text = SweepTable(rows=[]).to_json(grid, sim)
        with pytest.raises(ValueError, match="noise_std 1.0 there, 2.0 here"):
            SweepTable.from_json(text, grid, SimParams(length=43, noise_std=2.0, seed=11))
        record = strict_json(text)
        record["run"]["threads"] = 2  # no field of the run: results are the same for any
        with pytest.raises(ValueError, match="threads 2 there, null here"):
            SweepTable.from_json(json.dumps(record), grid, sim)


class TestSweepGrid:
    def test_cells_vary_mu_fastest(self):
        grid = SweepGrid(
            mu_values=(0.1, 0.2), lambda_values=(1.0, 2.0), n_basis_values=(100, 200), trials=1
        )
        cells = grid.cells()
        assert cells[0] == (0.1, 1.0, 100)
        assert cells[1] == (0.2, 1.0, 100)
        assert len(cells) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            SweepGrid(mu_values=())
        with pytest.raises(ValueError):
            SweepGrid(mu_values=(0.1,), trials=0)

    @pytest.mark.parametrize(
        "values",
        [
            dict(mu_values=(0.5, 1.0, 0.5)),
            dict(mu_values=(0.5,), lambda_values=(1.0, 1)),
            dict(mu_values=(0.5,), n_basis_values=(200, 100, 200)),
        ],
        ids=["mu_values", "lambda_values", "n_basis_values"],
    )
    def test_repeated_value_rejected(self, values):
        # a repeated value would make two cells with one key, and one row of the table
        name = next(k for k, v in values.items() if len(v) > 1)
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            SweepGrid(**values)

    @pytest.mark.parametrize(
        "values",
        [dict(mu_values=0.5), dict(mu_values=(0.5,), lambda_values=1.0),
         dict(mu_values=(0.5,), n_basis_values=200), dict(mu_values="0.5"),
         dict(mu_values=(0.5,), lambda_values=np.array([1.0]))],
        ids=["mu_values", "lambda_values", "n_basis_values", "string", "array"],
    )
    def test_value_list_not_a_tuple_or_list_rejected(self, values):
        # a bare number is a ValueError naming its list, as callers expect, not a TypeError
        name = list(values)[-1]
        with pytest.raises(ValueError, match=f"{name} must be a tuple or list"):
            SweepGrid(**values)

    @settings(max_examples=50, deadline=None)
    @given(
        window=st.integers(1, 12),
        horizon=st.integers(1, 4),
        mu_values=st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1, max_size=2),
        lambda_values=st.lists(st.sampled_from([-0.5, 0.0, 2.0]), min_size=1, max_size=2),
        n_basis_offsets=st.lists(st.integers(-2, 2), min_size=1, max_size=2),
    )
    def test_grid_refused_or_every_cell_runs(
        self, window, horizon, mu_values, lambda_values, n_basis_offsets
    ):
        # each rule drawn on both sides: what SweepGrid accepts, run_sweep runs
        n_basis_values = [window + horizon + offset for offset in n_basis_offsets]
        values = (mu_values, lambda_values, n_basis_values)
        breaks_a_rule = (
            any(len(set(v)) < len(v) for v in values)
            or min(mu_values) <= 0
            or min(lambda_values) < 0
            or min(n_basis_values) < window + horizon
        )
        try:
            grid = SweepGrid(tuple(mu_values), tuple(lambda_values), tuple(n_basis_values),
                             trials=1, horizon=horizon, window=window)
        except ValueError:
            assert breaks_a_rule
            return
        assert not breaks_a_rule
        sim = SimParams(length=window + horizon, seed=window)
        rows = run_sweep(grid, sim).rows
        assert len(rows) == len(grid.cells())
        assert all(row.error is None for row in rows)
