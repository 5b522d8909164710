"""Microbenchmarks of the public kernels each layer is built from.

Every kernel is warmed up, then timed in batches long enough for the clock,
and the median batch is reported per call. Inputs come from the seed at
the sizes the workloads use: N = 200 basis, 91-sample windows, horizon 7.
"""

from __future__ import annotations

import itertools
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import sigcast
from tracing import gram_cache_info
from workloads import HORIZON, WINDOW

BATCHES = 7
MIN_BATCH_S = 0.004


def per_call_s(fn) -> float:
    """Median seconds per call of fn() over BATCHES warm batches."""
    fn()
    fn()
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        if perf_counter() - t0 >= MIN_BATCH_S:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        samples.append((perf_counter() - t0) / n)
    return statistics.median(samples)


def run(seed: int, workdir: Path, golden_result) -> dict[str, float]:
    """Per-layer microbenchmark metrics, keyed by metric name."""
    rng = np.random.default_rng(seed)
    us = 1e6
    out = {}

    # salsa: the FFT pair and shrinkage of one iteration, at N = 200
    salsa = sigcast.SalsaParams()
    m_len = WINDOW + HORIZON
    signal = rng.normal(80.0, 1.0, m_len)
    coeffs = sigcast.adjoint(signal, salsa.n_basis)
    thresh = salsa.threshold_scale * salsa.lam / salsa.mu
    out["salsa.fft_pair_us"] = us * per_call_s(
        lambda: sigcast.adjoint(sigcast.synthesize(coeffs, m_len), salsa.n_basis))
    out["salsa.soft_threshold_us"] = us * per_call_s(
        lambda: sigcast.soft_threshold(coeffs, thresh))
    # one iteration: the difference between two solve lengths, so set-up
    # and the final synthesis cancel
    mask = sigcast.ObservationMask.prefix(WINDOW, m_len)
    masked = np.concatenate([signal[:WINDOW], np.zeros(HORIZON)])
    short, long_ = (sigcast.SalsaParams(n_iter=n) for n in (100, 200))
    t_short = per_call_s(lambda: sigcast.salsa_solve(masked, mask, short, track_cost=False))
    t_long = per_call_s(lambda: sigcast.salsa_solve(masked, mask, long_, track_cost=False))
    out["salsa.solve_iter_us"] = us * (t_long - t_short) / 100

    # causal: the four pipeline steps plus a Gram build that misses the cache
    causal = sigcast.CausalParams()
    history = signal[:WINDOW]
    smoothed = sigcast.moving_average(history, causal.ma_width)
    centered = smoothed - smoothed.mean()
    gram = sigcast.gram_matrix(sigcast.Window(1, WINDOW), causal)
    rhs = sigcast.qstar(centered, causal, t_start=1)
    fit = sigcast.causal_fit(smoothed, causal)
    t_fc = np.arange(WINDOW + 1, WINDOW + HORIZON + 1)
    out["causal.moving_average_us"] = us * per_call_s(
        lambda: sigcast.moving_average(history, causal.ma_width))
    out["causal.qstar_us"] = us * per_call_s(lambda: sigcast.qstar(centered, causal, t_start=1))
    # cycling more distinct windows than the cache holds makes every call a
    # miss; an unbounded cache gets a new window every call
    info = gram_cache_info()
    size = info.maxsize if info else 0
    starts = itertools.count(1000) if size is None else itertools.cycle(range(1000, 1016 + size))
    cold = (sigcast.Window(q, q + WINDOW - 1) for q in starts)
    out["causal.gram_build_us"] = us * per_call_s(
        lambda: sigcast.gram_matrix(next(cold), causal))
    out["causal.solve_us"] = us * per_call_s(
        lambda: sigcast.regularized_solve(gram, causal.nu, rhs))
    out["causal.synthesize_us"] = us * per_call_s(
        lambda: sigcast.synthesize_causal(fit, t_fc, causal))

    # montecarlo: one sweep trial's AR path
    sim = sigcast.SimParams(length=m_len, seed=seed)
    out["montecarlo.path_us"] = us * per_call_s(lambda: sigcast.generate_path(sim))

    # harness renderers, on the criterion-11 experiment
    out["harness.render_report_us"] = us * per_call_s(
        lambda: sigcast.render_report(golden_result, "text"))
    out["harness.render_plot_us"] = us * per_call_s(
        lambda: sigcast.render_plot_csv(golden_result))

    # ingest: write and read back a hundred years of daily values
    rows = 36_500
    series = sigcast.TimeSeries(values=rng.normal(25.0, 5.0, rows))
    path = Path(workdir) / "ingest.csv"
    spec = sigcast.CsvSpec(path=path, column="value")
    write_s = [_timed(lambda: sigcast.write_csv(series, path)) for _ in range(3)]
    read_s = [_timed(lambda: sigcast.read_csv_column(spec)) for _ in range(3)]
    path.unlink()
    out["ingest.write_s"] = statistics.median(write_s)
    out["ingest.rows_per_s"] = rows / statistics.median(read_s)
    return out


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0
