"""Spans around the calls the workloads make into each sigcast layer.

The program itself carries no instrumentation, so the traced run rebinds
the names a calling module imported (``sigcast.harness.salsa_forecast``,
``sigcast.cli.read_csv_column``, ...) to wrappers that time each call and
restores them afterwards. A span's self time is its duration minus the
time covered by the spans it caused; spans are aggregated by name as they
close, so memory does not grow with the run length.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

import sigcast.causal
import sigcast.cli
import sigcast.harness
import sigcast.montecarlo
import sigcast.salsa

# (module, attribute, span name). The span name's prefix is the layer.
SPAN_POINTS = (
    (sigcast.cli, "read_csv_column", "ingest.read_csv_column"),
    (sigcast.cli, "run_experiment", "harness.run_experiment"),
    (sigcast.cli, "render_report", "harness.render"),
    (sigcast.cli, "render_plot_csv", "harness.render"),
    (sigcast.cli, "salsa_forecast", "salsa.forecast"),
    (sigcast.cli, "causal_forecast", "causal.forecast"),
    (sigcast.cli, "linear_forecast", "baselines.forecast"),
    (sigcast.harness, "salsa_forecast", "salsa.forecast"),
    (sigcast.harness, "causal_forecast", "causal.forecast"),
    (sigcast.harness, "linear_forecast", "baselines.forecast"),
    (sigcast.harness, "rolling_windows", "series.rolling_windows"),
    (sigcast.harness, "l2_residual", "series.scoring"),
    (sigcast.harness, "summary_stats", "series.scoring"),
    (sigcast.montecarlo, "generate_path", "montecarlo.generate_path"),
    (sigcast.montecarlo, "salsa_forecast", "salsa.forecast"),
)



def gram_cache_info():
    """The counters of causal's own Gram cache, or None if it has none.

    Reading ``cache_info()`` calls no sigcast code; it reports what the
    program's cache did, whatever its size or key.
    """
    cached = getattr(sigcast.causal, "_gram_cached", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


class Tracer:
    """Aggregated spans and counters; `install()` wraps, `remove()` restores."""

    def __init__(self):
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._gram0 = None
        self.clear()

    def clear(self):
        """Drop what was recorded."""
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    # -- spans -------------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        frame = [0.0]  # time covered by child spans
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            self._stack.pop()
            self.busy[name] += dur
            self.self_time[name] += dur - frame[0]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][0] += dur

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    # -- counters at the same boundaries -----------------------------------
    def _salsa_span(self, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            it0 = self.counts["salsa.iters"]
            try:
                return self.call("salsa.forecast", fn, *args, **kwargs)
            finally:
                iters = self.counts["salsa.iters"] - it0
                # computed: A^H y once, one synthesis after the loop, and per
                # iteration one FFT pair plus one synthesis for the cost trace
                per_iter = 3 if bound.arguments["track_cost"] else 2
                self.counts["salsa.ffts"] += 2 + per_iter * iters

        return wrapper

    def _count_iterations(self, fn):
        # salsa_solve calls soft_threshold exactly once per iteration
        def wrapper(*args, **kwargs):
            self.counts["salsa.iters"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_result(self, name, fn, count):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            count(result)
            return result

        return wrapper

    # -- install / remove --------------------------------------------------
    def _patch(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        def rows(series):
            self.counts["ingest.rows"] += len(series)

        def windows(items):
            self.counts["harness.windows"] += len(items)

        def failed(result):
            self.counts["harness.failed_windows"] += sum(
                len(v) for v in result.failures.values())

        special = {
            "ingest.read_csv_column": lambda fn: self._count_result(
                "ingest.read_csv_column", fn, rows),
            "series.rolling_windows": lambda fn: self._count_result(
                "series.rolling_windows", fn, windows),
            "harness.run_experiment": lambda fn: self._count_result(
                "harness.run_experiment", fn, failed),
            "salsa.forecast": self._salsa_span,
        }
        for module, attr, name in SPAN_POINTS:
            self._patch(module, attr, special.get(name, lambda fn, n=name: self._span(n, fn)))
        self._patch(sigcast.salsa, "soft_threshold", self._count_iterations)
        self._gram0 = gram_cache_info()

    def remove(self):
        """Restore the wrapped names and add what the Gram cache did meanwhile."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        if self._gram0 is not None:
            info = gram_cache_info()
            self.counts["causal.gram_hits"] += info.hits - self._gram0.hits
            self.counts["causal.gram_calls"] += (info.hits + info.misses
                                                 - self._gram0.hits - self._gram0.misses)
            self._gram0 = None
