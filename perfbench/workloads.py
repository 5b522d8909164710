"""The benchmark's workloads and the checks on what they write.

Each workload builds its inputs from a seed, runs one operation at a time
through the public sigcast API or ``sigcast.cli.main`` (`run`), and then,
outside the timed interval, reads back what the operation produced
(`collect`). An operation's outputs are returned as text keyed by a
relative file name, so they can be compared with the reference files
recorded under ``perfbench/reference``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import sigcast
from sigcast import cli

FORMATS = ("text", "csv", "json")
REPORT_EXT = {"text": "txt", "csv": "csv", "json": "json"}
REFERENCE_SEED = 20250101
HORIZON = 7
WINDOW = 91
# criterion-8 grid: mu = 0.1 .. 2.0 step 0.1, lambda = 1, N = 200
MU_VALUES = tuple(round(0.1 * i, 1) for i in range(1, 21))


@dataclass
class Outcome:
    """What one operation did: forecasts attempted and failed, and its outputs."""

    forecasts: int
    failed: int
    outputs: dict[str, str]
    method_s: dict[str, float] = field(default_factory=dict)


def workers() -> int:
    return min(2, os.cpu_count() or 1)


class Sweep:
    name = "sweep"
    reference_ops = 1
    root_span = "montecarlo.run_sweep"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        # trials per cell is the run-length knob: one trial keeps an operation
        # short enough for a tail percentile within one run
        self.grid = sigcast.SweepGrid(
            mu_values=MU_VALUES[:2] if tiny else MU_VALUES,
            trials=1, horizon=HORIZON, window=WINDOW,
        )
        self.sim = sigcast.SimParams(length=WINDOW + HORIZON, seed=seed)

    def run(self, i: int, threads: int | None = None, tracer=None):
        threads = workers() if threads is None else threads
        if tracer is None:
            return sigcast.run_sweep(self.grid, self.sim, threads=threads)
        return tracer.call(self.root_span, sigcast.run_sweep, self.grid, self.sim, threads=threads)

    def collect(self, table) -> Outcome:
        trials = self.grid.trials
        failed = sum(
            trials if row.error is not None or row.trials_run < trials else 0
            for row in table.rows
        )
        if len(table.rows) != len(self.grid.cells()):
            failed = len(self.grid.cells()) * trials
        return Outcome(len(self.grid.cells()) * trials, failed, {"sweep.csv": table.to_csv()})


class _CliWorkload:
    """A workload whose operation is one or more in-process CLI invocations.

    Operation i writes its report in FORMATS[i % 3], so a run covers all
    three formats.
    """

    reference_ops = len(FORMATS)
    root_span = "cli.main"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.input = self.workdir / self.input_name
        self.make_input(seed, tiny)

    def run(self, i: int, tracer=None):
        fmt = FORMATS[i % len(FORMATS)]
        codes, times = {}, {}
        for label, argv in self.invocations(fmt):
            t0 = perf_counter()
            if tracer is None:
                codes[label] = cli.main(argv)
            else:
                codes[label] = tracer.call(self.root_span, cli.main, argv)
            times[label] = perf_counter() - t0
        return fmt, codes, times

    def out_dir(self, fmt: str, label: str) -> Path:
        return self.workdir / f"out-{fmt}-{label}"


class Experiment(_CliWorkload):
    name = "experiment"
    input_name = "series.csv"
    methods = ("causal", "salsa", "linear")  # the report's column order
    stride = None  # the CLI default, the horizon
    n_windows = 10
    tiny_windows = 2

    def make_input(self, seed, tiny):
        if tiny:
            self.n_windows = self.tiny_windows
        stride = self.stride or HORIZON
        length = WINDOW + HORIZON + (self.n_windows - 1) * stride
        sigcast.write_csv(sigcast.generate_path(sigcast.SimParams(length=length, seed=seed)),
                          self.input)

    def invocations(self, fmt):
        argv = ["experiment", "--input", str(self.input), "--column", "value",
                "--horizon", str(HORIZON), "--methods", ",".join(self.methods),
                "--format", fmt, "--output-dir", str(self.out_dir(fmt, "report"))]
        if self.stride is not None:
            argv += ["--stride", str(self.stride)]
        return [("report", argv)]

    def collect(self, handle) -> Outcome:
        fmt, codes, times = handle
        forecasts = self.n_windows * len(self.methods)
        out = self.out_dir(fmt, "report")
        report = out / f"report.{REPORT_EXT[fmt]}"
        plot = out / "plot_data.csv"
        if codes["report"] != 0 or not report.exists() or not plot.exists():
            return Outcome(forecasts, forecasts, {}, times)
        report_text = report.read_text()
        plot_text = plot.read_text()
        report.unlink()
        plot.unlink()
        if fmt == "json":
            payload = json.loads(report_text)
            payload.pop("wall_time_s")  # measured time, differs on every run
            report_text = json.dumps(payload, indent=2) + "\n"
        failed = _plot_failures(plot_text, self.methods, self.n_windows)
        return Outcome(forecasts, failed,
                       {f"{fmt}/{report.name}": report_text, "plot_data.csv": plot_text},
                       times)


def _plot_failures(plot_text: str, methods, n_windows: int) -> int:
    """Forecasts missing from plot_data.csv: failed windows leave empty cells."""
    rows = list(csv.reader(plot_text.splitlines()))
    if rows[0][3:] != list(methods) or len(rows) - 1 != n_windows * HORIZON:
        return n_windows * len(methods)
    failed = 0
    for col in range(3, 3 + len(methods)):
        cells = [row[col] for row in rows[1:]]
        failed += sum(
            1 for w in range(n_windows)
            if any(c == "" for c in cells[w * HORIZON:(w + 1) * HORIZON])
        )
    return failed


class ExperimentCausal(Experiment):
    name = "experiment_causal"
    methods = ("causal", "linear")
    stride = 1
    n_windows = 1000
    tiny_windows = 20


CLIMATE_HEADER = [
    "Product code", "Bureau of Meteorology station number", "Year", "Month", "Day",
    "Maximum temperature (Degree C)", "Days of accumulation of maximum temperature", "Quality",
]


class ForecastCli(_CliWorkload):
    name = "forecast_cli"
    input_name = "climate.csv"
    methods = ("salsa", "causal", "linear")
    forecast_horizon = 10
    rows = 36_500  # one hundred years of daily readings

    def make_input(self, seed, tiny):
        n = 400 if tiny else self.rows
        rng = np.random.default_rng(seed)
        day = np.arange(n)
        temp = 25.0 + 6.0 * np.cos(2 * np.pi * day / 365.25) + rng.normal(0.0, 3.0, n)
        gap = rng.random(n) < 0.02
        gap[-1] = False  # the forecast window ends on a reading
        gap_token = rng.choice(["", "NA"], n)
        with open(self.input, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CLIMATE_HEADER)
            for i in range(n):
                value = gap_token[i] if gap[i] else f"{temp[i]:.1f}"
                writer.writerow(["IDCJAC0010", "086071", 1917 + i // 365, 1 + (i % 365) // 31,
                                 1 + (i % 365) % 31, value, 1, "N" if gap[i] else "Y"])

    def invocations(self, fmt):
        return [
            (method, ["forecast", "--input", str(self.input), "--column", "6", "--skip-header",
                      "--missing-policy", "forward_fill", "--method", method,
                      "--window", str(WINDOW), "--horizon", str(self.forecast_horizon),
                      "--format", fmt, "--output-dir", str(self.out_dir(fmt, method))])
            for method in self.methods
        ]

    def collect(self, handle) -> Outcome:
        fmt, codes, times = handle
        outputs, failed = {}, 0
        for method in self.methods:
            out = self.out_dir(fmt, method)
            names = ["forecast.json"] if fmt == "json" else [
                f"forecast.{REPORT_EXT[fmt]}", "forecast_params.json"]
            paths = [out / name for name in names]
            if codes[method] != 0 or not all(p.exists() for p in paths):
                failed += 1
                continue
            texts = {name: p.read_text() for name, p in zip(names, paths)}
            for p in paths:
                p.unlink()
            values = _forecast_values(fmt, texts[names[0]])
            if len(values) != self.forecast_horizon or not all(map(math.isfinite, values)):
                failed += 1
            outputs.update({f"{fmt}/{method}/{name}": text for name, text in texts.items()})
        return Outcome(len(self.methods), failed, outputs, times)


def _forecast_values(fmt: str, text: str) -> list[float]:
    if fmt == "json":
        return [float(v) for v in json.loads(text)["forecast"]]
    lines = text.splitlines()
    if fmt == "csv":
        return [float(line.split(",")[1]) for line in lines[1:]]
    return [float(line) for line in lines]


WORKLOADS = {w.name: w for w in (Sweep, Experiment, ExperimentCausal, ForecastCli)}


# -- comparing outputs --------------------------------------------------------

RTOL = 1e-9
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _last_digit(token: str) -> float:
    """Value of one unit in the last printed digit of a decimal token."""
    mantissa, _, exp = token.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exp or 0) - decimals)


def outputs_match(expected: str, actual: str, rounded: bool = False) -> bool:
    """Same text apart from numbers, and every number within tolerance.

    Integers (counts, indices) must be equal; other numbers must agree
    within RTOL relative. In a `rounded` file (the text report prints %.6g)
    they may also differ by one unit of the last digit printed.
    """
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return False
    for want, got in zip(_NUMBER.findall(expected), _NUMBER.findall(actual)):
        if want.lstrip("+-").isdigit():
            if want != got:
                return False
            continue
        unit = 1.0001 * _last_digit(want) if rounded else 0.0
        if not math.isclose(float(want), float(got), rel_tol=RTOL, abs_tol=unit):
            return False
    return True
