from types import SimpleNamespace

import numpy as np
import pytest

from sigcast.montecarlo import (
    SimParams,
    SweepGrid,
    SweepTable,
    generate_path,
    run_sweep,
)


class TestGeneratePath:
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
            assert parallel.to_json() == serial.to_json()
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
        # n_basis smaller than window + horizon makes the cell invalid
        grid = SweepGrid(mu_values=(0.6,), n_basis_values=(16,), **FAST_GRID)
        sim = SimParams(length=43, seed=2)
        table = run_sweep(grid, sim)
        row = table.rows[0]
        assert row.mean_residual_per_point is None
        assert row.error is not None

    def test_invalid_cell_params_recorded_not_fatal(self):
        # mu = 0 violates the solver's parameter invariants
        grid = SweepGrid(mu_values=(0.0, 0.6), **FAST_GRID)
        sim = SimParams(length=43, seed=2)
        table = run_sweep(grid, sim)
        assert table.rows[0].error is not None
        assert table.rows[1].error is None

    def test_n_basis_too_small_fails_only_its_cells(self):
        # one worker: had the two n_basis shared a block, the whole block would fail
        grid = SweepGrid(mu_values=(0.5, 1.0), n_basis_values=(16, 64), **FAST_GRID)
        table = run_sweep(grid, SimParams(length=43, seed=2))
        for row in table.rows:
            if row.n_basis == 16:
                assert row.error == "history + horizon = 43 exceeds n_basis 16"
                assert row.mean_residual_per_point is None
            else:
                assert row.error is None
                assert np.isfinite(row.mean_residual_per_point)

    @pytest.mark.parametrize(
        "fault, error",
        [("non_finite", "masked signal must be finite"), ("overflow", "range exceeds bounds")],
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
    def test_csv_round_trip(self):
        grid = SweepGrid(mu_values=(0.5,), **FAST_GRID)
        sim = SimParams(length=43, seed=11)
        table = run_sweep(grid, sim)
        back = SweepTable.from_csv(table.to_csv())
        assert back.rows[0].mu == table.rows[0].mu
        assert back.rows[0].mean_residual_per_point == table.rows[0].mean_residual_per_point
        assert back.rows[0].trials_run == table.rows[0].trials_run

    def test_csv_header(self):
        table = SweepTable(rows=[])
        assert table.to_csv().splitlines()[0] == "mu,lambda,n_basis,mean_residual_per_point,trials_run"

    def test_json_contains_all_cells(self):
        import json

        grid = SweepGrid(mu_values=(0.5, 1.5), **FAST_GRID)
        sim = SimParams(length=43, seed=11)
        payload = json.loads(run_sweep(grid, sim).to_json())
        assert [cell["mu"] for cell in payload] == [0.5, 1.5]
        assert all("mean_residual_per_point" in cell for cell in payload)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            SweepTable.from_csv("a,b,c\n1,2,3\n")


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
