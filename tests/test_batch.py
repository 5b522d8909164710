"""A stacked call is the single call on every row: bit for bit, not approximately."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sigcast.causal
from sigcast.baselines import LinearParams, linear_forecast
from sigcast.causal import CausalParams, causal_forecast, moving_average
from sigcast.harness import forecast
from sigcast.montecarlo import SimParams, SweepGrid, generate_path, run_sweep
from sigcast.salsa import (
    ObservationMask,
    SalsaParams,
    salsa_forecast,
    salsa_solve,
    soft_threshold,
)

values = st.floats(-1e3, 1e3, allow_nan=False)


def stacks(min_len, max_len):
    """(B, K) float stacks with 1 <= B <= 5 and K in [min_len, max_len]."""
    return st.tuples(st.integers(1, 5), st.integers(min_len, max_len)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=values)
    )


def assert_rows_equal(batched, single_call, stack):
    assert batched.shape[0] == stack.shape[0]
    for row, out in zip(stack, batched):
        assert np.array_equal(out, single_call(row))


SMALL_SALSA = SalsaParams(mu=0.6, lam=1.0, n_basis=48, n_iter=30)


@settings(max_examples=25, deadline=None)
@given(stack=stacks(1, 40), horizon=st.integers(1, 8))
def test_salsa_forecast_rows(stack, horizon):
    batched = salsa_forecast(stack, horizon, SMALL_SALSA)
    assert batched.shape == (stack.shape[0], horizon)
    assert_rows_equal(batched, lambda row: salsa_forecast(row, horizon, SMALL_SALSA), stack)


@settings(max_examples=25, deadline=None)
@given(stack=stacks(2, 40), n_observed=st.integers(1, 40))
def test_salsa_cost_trace_rows(stack, n_observed):
    mask = ObservationMask.prefix(min(n_observed, stack.shape[1]), stack.shape[1])
    batched = salsa_solve(stack, mask, SMALL_SALSA)
    assert batched.cost_history.shape == (stack.shape[0], SMALL_SALSA.n_iter)
    for row, c, cost in zip(stack, batched.c, batched.cost_history):
        single = salsa_solve(row, mask, SMALL_SALSA)
        assert np.array_equal(c, single.c)
        assert np.array_equal(cost, single.cost_history)


# 1 to 5 SalsaParams like SMALL_SALSA, each with its own mu and lam
per_row_params = st.lists(
    st.builds(
        SalsaParams,
        mu=st.floats(0.05, 5.0),
        lam=st.floats(0.0, 5.0),
        n_basis=st.just(SMALL_SALSA.n_basis),
        n_iter=st.just(SMALL_SALSA.n_iter),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), params=per_row_params, horizon=st.integers(1, 8))
def test_salsa_forecast_rows_own_params(data, params, horizon):
    k = data.draw(st.integers(1, 40))
    stack = data.draw(arrays(np.float64, (len(params), k), elements=values))
    batched = salsa_forecast(stack, horizon, params)
    assert batched.shape == (len(params), horizon)
    for row, p, out in zip(stack, params, batched):
        assert np.array_equal(out, salsa_forecast(row, horizon, p))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), params=per_row_params)
def test_salsa_solve_rows_own_params(data, params):
    m_len = data.draw(st.integers(2, 40))
    stack = data.draw(arrays(np.float64, (len(params), m_len), elements=values))
    mask = ObservationMask.prefix(data.draw(st.integers(1, m_len)), m_len)
    batched = salsa_solve(stack, mask, params)
    for row, p, c, cost in zip(stack, params, batched.c, batched.cost_history):
        single = salsa_solve(row, mask, p)
        assert np.array_equal(c, single.c)
        assert np.array_equal(cost, single.cost_history)


@pytest.mark.parametrize(
    "other",
    [
        SalsaParams(n_basis=64, n_iter=30),
        SalsaParams(n_basis=48, n_iter=31),
    ],
    ids=["n_basis", "n_iter"],
)
def test_stacked_params_must_share_solve_shape(other):
    stack = np.ones((2, 10))
    with pytest.raises(ValueError, match="must share"):
        salsa_forecast(stack, 2, [SMALL_SALSA, other])
    with pytest.raises(ValueError, match="must share"):
        salsa_solve(stack, ObservationMask.prefix(8, 10), [SMALL_SALSA, other])


def test_one_params_per_row():
    with pytest.raises(ValueError, match="one SalsaParams per row"):
        salsa_forecast(np.ones((3, 10)), 2, [SMALL_SALSA, SMALL_SALSA])


@settings(max_examples=50, deadline=None)
@given(
    x=st.integers(1, 5).flatmap(
        lambda b: arrays(
            complex,
            (b, 12),
            elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        )
    ),
    data=st.data(),
)
def test_soft_threshold_column_rows(x, data):
    column = np.array(data.draw(st.lists(st.floats(0.0, 1e3), min_size=len(x), max_size=len(x))))
    batched = soft_threshold(x, column[:, None])
    for row, t, out in zip(x, column, batched):
        assert np.array_equal(out, soft_threshold(row, float(t)))


def test_soft_threshold_column_rejects_negative_entry():
    with pytest.raises(ValueError):
        soft_threshold(np.ones((3, 4)), np.array([[1.0], [-0.5], [2.0]]))


@pytest.mark.parametrize(
    "params",
    [LinearParams(lookback=3, variant="two_point_span"), LinearParams(variant="code_slope")],
    ids=["two_point_span", "code_slope"],
)
@settings(max_examples=50, deadline=None)
@given(stack=stacks(4, 30), horizon=st.integers(1, 12))
def test_linear_forecast_rows(params, stack, horizon):
    batched = linear_forecast(stack, horizon, params)
    assert batched.shape == (stack.shape[0], horizon)
    assert_rows_equal(batched, lambda row: linear_forecast(row, horizon, params), stack)


SMALL_CAUSAL = CausalParams(n_harmonics=5)
METHOD_PARAMS = {
    "salsa": SalsaParams(n_basis=32, n_iter=30),
    "causal": SMALL_CAUSAL,
    "linear": LinearParams(),
}


@pytest.mark.parametrize("method", ["salsa", "causal", "linear"])
@settings(max_examples=15, deadline=None)
@given(stack=stacks(SMALL_CAUSAL.window_len, SMALL_CAUSAL.window_len), horizon=st.integers(1, 6))
def test_harness_forecast_rows(method, stack, horizon):
    params = METHOD_PARAMS[method]
    batched = forecast(method, stack, horizon, params)
    assert batched.shape == (stack.shape[0], horizon)
    assert_rows_equal(batched, lambda row: forecast(method, row, horizon, params), stack)


@pytest.mark.parametrize("method", ["salsa", "causal", "linear"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_harness_forecast_refuses_nonfinite_history(method, bad):
    history = np.arange(SMALL_CAUSAL.window_len, dtype=float)
    history[1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        forecast(method, history, 2, METHOD_PARAMS[method])


@settings(max_examples=15, deadline=None)
@given(stack=stacks(SMALL_CAUSAL.window_len, SMALL_CAUSAL.window_len), horizon=st.integers(1, 6))
def test_harness_forecast_presmoothed_rows(stack, horizon):
    # lookahead mode: once-smoothed windows, forecast with ma_width 1
    smoothed = np.array([moving_average(row[::-1], 3) for row in stack])
    params = replace(SMALL_CAUSAL, ma_width=1)
    batched = forecast("causal", smoothed, horizon, params)
    for sm, out in zip(smoothed, batched):
        assert np.array_equal(out, forecast("causal", sm, horizon, params))


DEFAULT_CAUSAL = CausalParams()


@pytest.mark.parametrize("lookahead", [False, True], ids=["smoothed_inside", "presmoothed"])
@settings(max_examples=10, deadline=None)
@given(
    stack=st.integers(1, 40).flatmap(
        lambda b: arrays(np.float64, (b, DEFAULT_CAUSAL.window_len), elements=values)
    ),
    horizon=st.integers(1, 10),
)
def test_causal_forecast_rows_default_window(lookahead, stack, horizon):
    params = DEFAULT_CAUSAL
    if lookahead:
        # once-smoothed windows, forecast with ma_width 1; Fortran-ordered, like
        # the stacks fancy indexing along the last axis returns
        stack = np.asfortranarray(moving_average(stack, 3))
        params = replace(DEFAULT_CAUSAL, ma_width=1)
    batched = causal_forecast(stack, horizon, params)
    assert batched.shape == (stack.shape[0], horizon)
    for i, row in enumerate(stack):
        assert np.array_equal(batched[i], causal_forecast(row, horizon, params))


def test_causal_forecast_rows_across_row_blocks():
    stack = np.random.default_rng(9).normal(50.0, 5.0, (600, DEFAULT_CAUSAL.window_len))
    batched = causal_forecast(stack, 3)
    for i in (0, 63, 64, 511, 512, 599):
        assert np.array_equal(batched[i], causal_forecast(stack[i], 3))


def test_causal_operator_built_once_per_params_and_horizon():
    history = np.sin(0.1 * np.arange(1, 92))
    sigcast.causal._operator.cache_clear()
    first = causal_forecast(history, 4)
    second = causal_forecast(np.stack([history, -history]), 4)
    info = sigcast.causal._operator.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert np.array_equal(second[0], first)


def per_trial_cell(mu, lam, n_basis, cell_index, grid, sim):
    """The sweep cell as one SALSA call per trial, summed in trial order."""
    params = SalsaParams(mu=mu, lam=lam, n_basis=n_basis)
    total = 0.0
    for trial in range(grid.trials):
        seed = np.random.SeedSequence((sim.seed, cell_index, trial))
        path = generate_path(sim, rng_seed=seed).values
        fc = salsa_forecast(path[: grid.window], grid.horizon, params)
        total += float(np.sum((fc - path[grid.window :]) ** 2))
    return total / (grid.trials * grid.horizon)


def test_run_cell_matches_per_trial_loop(monkeypatch):
    # 3 cells x 9 trials: at 2 workers the two row blocks split the middle
    # cell, once blocks that small may have a worker
    import sigcast.montecarlo

    monkeypatch.setattr(sigcast.montecarlo, "MIN_BLOCK_ROWS", 1)
    grid = SweepGrid(
        mu_values=(0.2, 0.6, 1.5), n_basis_values=(64,), trials=9, horizon=5, window=40
    )
    sim = SimParams(length=45, seed=2718)
    want = [per_trial_cell(*cell, i, grid, sim) for i, cell in enumerate(grid.cells())]
    for threads in (1, 2):
        table = run_sweep(grid, sim, threads=threads)
        assert [(row.error, row.trials_run) for row in table.rows] == [(None, 9)] * 3
        assert [row.mean_residual_per_point for row in table.rows] == want
