"""sigcast benchmark: end-to-end and per-layer metrics on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with no
instrumentation, in several fresh interpreters one after the other; with
``--trace 1`` it measures the per-layer metrics in this process:
microbenchmarks of the public kernels, then untraced and traced operations
in turn, the traced ones with spans around the calls into each module.
Every run first re-renders the criterion-11 experiment and compares it
byte for byte with ``tests/data/golden_*``, and runs the workload at its
reference seed and compares the outputs with ``perfbench/reference``.
Inside the timed loop, every operation's outputs must equal those of the
first operation of the same format.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, the run's metadata and notes such as
the tail percentile and its sample count.

Other modes:
    --write-benchmark-json   regenerate BENCHMARK.json from the definitions below
    --record-reference       re-record perfbench/reference at the reference seed

Only the standard library is imported at module level, so a benchmark
process can time the import of sigcast and numpy itself. Scratch files go under
``.bench_build/perfbench`` in the repository and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_REPORT = ROOT / "tests" / "data" / "golden_report.txt"
GOLDEN_PLOT = ROOT / "tests" / "data" / "golden_plot.csv"
REFERENCE_DIR = HERE / "reference"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

RUN_SECONDS = 20
PROCESSES = 5
# The tail is p75, the highest percentile with ten samples beyond it at
# MIN_OPS operations; a fixed percentile keeps runs comparable whatever
# their operation count. An untraced run lasts --seconds or MIN_OPS
# operations, whichever is longer; traced and --tiny runs need only
# MIN_FORMAT_OPS, one operation per report format.
TAIL_PERCENTILE = 75.0
MIN_OPS = 40
MIN_FORMAT_OPS = 3
MAX_UNATTRIBUTED_PCT = 5.0

# name, why the workload is in the benchmark
WORKLOADS = (
    ("sweep",
     "run_sweep on the criterion-8 grid with a process pool: SALSA without cost trace, "
     "AR path generation and the pool; where batched or rfft solvers and pool changes show"),
    ("experiment",
     "sigcast experiment with all three methods on a seeded AR series: SALSA one window "
     "at a time over overlapping windows; where harness batching shows"),
    ("experiment_causal",
     "sigcast experiment, causal and linear, stride 1 over 1000 windows: no SALSA, so "
     "causal, harness, scoring and rendering do the work; the control for SALSA changes"),
    ("forecast_cli",
     "repeated sigcast forecast calls, salsa then causal then linear, on a 36,500-row "
     "daily-climate CSV with NA gaps: SALSA with its cost trace on, ingest and CLI overhead"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

# name, unit, better, bound (share of the parent's median). Timings are
# scaled to a reference speed (calibrate.py); ten runs still spread by up
# to 9 % on a shared two-core host, a third of the widest bound, which they
# take. Memory is steady to 1 %.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("forecasts_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# per workload operation unless the name ends in _us (a microbenchmark) or
# is a ratio; 0 where the workload does not use the layer
PER_LAYER = (
    ("salsa.busy_s", "s", "lower"),
    ("salsa.calls", "count", "lower"),
    ("salsa.iters", "count", "lower"),
    ("salsa.ffts", "count", "lower"),
    ("salsa.iter_us", "us", "lower"),
    ("salsa.fft_pair_us", "us", "lower"),
    ("salsa.soft_threshold_us", "us", "lower"),
    ("salsa.solve_iter_us", "us", "lower"),
    ("causal.busy_s", "s", "lower"),
    ("causal.calls", "count", "lower"),
    ("causal.gram_hit_ratio", "ratio", "higher"),
    ("causal.moving_average_us", "us", "lower"),
    ("causal.qstar_us", "us", "lower"),
    ("causal.gram_build_us", "us", "lower"),
    ("causal.solve_us", "us", "lower"),
    ("causal.synthesize_us", "us", "lower"),
    ("baselines.busy_s", "s", "lower"),
    ("baselines.calls", "count", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.windows", "count", "higher"),
    ("harness.render_s", "s", "lower"),
    ("harness.failed_windows", "count", "lower"),
    ("harness.render_report_us", "us", "lower"),
    ("harness.render_plot_us", "us", "lower"),
    ("series.rolling_windows_s", "s", "lower"),
    ("series.scoring_s", "s", "lower"),
    ("montecarlo.paths", "count", "lower"),
    ("montecarlo.path_us", "us", "lower"),
    ("montecarlo.self_s", "s", "lower"),
    ("montecarlo.pool_eff", "ratio", "higher"),
    ("ingest.read_s", "s", "lower"),
    ("ingest.rows", "count", "higher"),
    ("ingest.rows_per_s", "1/s", "higher"),
    ("ingest.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


class Checks:
    """Operations attempted and failed: forecasts plus output comparisons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.first: dict[str, str] = {}

    def compare(self, label: str, expected: str, actual: str, tolerant: bool) -> bool:
        from workloads import outputs_match

        exact = expected == actual
        ok = exact or (tolerant and outputs_match(expected, actual,
                                                  rounded=label.endswith("report.txt")))
        self.attempted += 1
        self.failed += not ok
        if not exact:
            self.notes.append(f"{label}: {'within tolerance' if ok else 'MISMATCH'}")
        return exact

    def operation(self, outcome) -> bool:
        """Count an operation's forecasts; its outputs must equal the first
        outputs of the same name in this run. Returns whether they did."""
        differs = False
        for key, text in outcome.outputs.items():
            first = self.first.setdefault(key, text)
            differs |= text != first
        self.attempted += outcome.forecasts
        self.failed += outcome.forecasts if differs else outcome.failed
        if differs:
            self.notes.append(f"operation outputs differ from the run's first: "
                              f"{sorted(outcome.outputs)}")
        return not differs


def check_golden(checks: Checks):
    """Re-render the criterion-11 experiment; return it for the renderer benchmarks."""
    import sigcast

    result = sigcast.run_experiment(
        sigcast.generate_path(sigcast.SimParams(length=141, seed=20240915)),
        sigcast.ExperimentConfig(horizon=5, window_len=91, stride=5),
    )
    checks.compare("golden_report.txt", GOLDEN_REPORT.read_text(),
                   sigcast.render_report(result, "text"), tolerant=False)
    checks.compare("golden_plot.csv", GOLDEN_PLOT.read_text(),
                   sigcast.render_plot_csv(result), tolerant=False)
    return result


def reference_outputs(wl_cls, workdir: Path, checks: Checks) -> dict[str, str]:
    from workloads import REFERENCE_SEED

    wl = wl_cls(REFERENCE_SEED, workdir)
    outputs = {}
    for i in range(wl_cls.reference_ops):
        outcome = wl.collect(wl.run(i))
        checks.attempted += outcome.forecasts
        checks.failed += outcome.failed
        outputs.update(outcome.outputs)
    return outputs


def check_reference(wl_cls, refdir: Path, workdir: Path, checks: Checks) -> None:
    outputs = reference_outputs(wl_cls, workdir, checks)
    wanted = sorted(p.relative_to(refdir / wl_cls.name).as_posix()
                    for p in (refdir / wl_cls.name).rglob("*") if p.is_file())
    exact = 0
    for key in sorted(set(wanted) | set(outputs)):
        if key not in outputs or key not in wanted:
            checks.attempted += 1
            checks.failed += 1
            checks.notes.append(f"reference {key}: missing on one side")
            continue
        ref = refdir / wl_cls.name / key
        exact += checks.compare(f"reference {key}", ref.read_text(), outputs[key], tolerant=True)
    checks.notes.append(f"reference outputs: {len(wanted)} files, {exact} bit-exact")


def percentile(samples: list[float], p: float) -> float:
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n: int, p: float) -> int:
    """Samples above the p-th percentile of n."""
    return n - 1 - int((n - 1) * p / 100)


def op_child(args) -> int:
    """One fresh interpreter's share of an untraced run, reported as JSON.

    Set-up is timed from before sigcast is imported until the first, cold
    operation has finished; then operations run for --seconds and at least
    --min-ops times.
    """
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir), tiny=args.tiny)
    handle = wl.run(0)
    setup_s = perf_counter() - t0
    import calibrate

    checks = Checks()
    checks.operation(wl.collect(handle))
    calibrate.kernel()  # warm-up
    kernel_s, latencies, forecasts = [], [], 0
    by_method = defaultdict(list)
    deadline = perf_counter() + args.seconds
    i = 0
    while perf_counter() < deadline or i < args.min_ops:
        kernel_s.append(calibrate.kernel())
        t0 = perf_counter()
        handle = wl.run(i)
        latencies.append(perf_counter() - t0)
        outcome = wl.collect(handle)
        checks.operation(outcome)
        forecasts += outcome.forecasts - outcome.failed
        for label, sec in outcome.method_s.items():
            by_method[label].append(sec)
        i += 1
    kernel_s.append(calibrate.kernel())  # so every operation has one on each side
    # ru_maxrss is in KiB; the children's figure is the largest pool worker
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "setup_s": setup_s, "latencies": latencies, "forecasts": forecasts,
        "kernel_s": kernel_s,
        "by_method": by_method, "rss_mb": rss_kib / 1024,
        "attempted": checks.attempted, "failed": checks.failed, "notes": checks.notes,
        "digests": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in checks.first.items()},
    }))
    return 0


def run_untraced(args, checks: Checks, workdir: Path) -> dict[str, float]:
    """Split the timed operations over PROCESSES fresh interpreters, one at a time.

    A process's memory layout biases its speed for its whole life (by about
    15 % between processes here, against 4 % between stretches of one
    process), so pooling several processes per run steadies the medians.
    Each operation's time is scaled to the reference speed by the
    calibration kernel timed just before and just after it.
    """
    import calibrate

    procs = 1 if args.tiny else PROCESSES
    min_ops = MIN_FORMAT_OPS if args.tiny else -(-MIN_OPS // procs)
    shares = []
    for k in range(procs):
        cmd = [sys.executable, str(Path(__file__)), "--op-child", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds / procs),
               "--min-ops", str(min_ops), "--workdir", str(workdir / f"proc-{k}")]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark process failed: {proc.stderr.strip()}")
        shares.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    for share in shares:
        checks.attempted += share["attempted"] + 1
        checks.failed += share["failed"]
        checks.notes += share["notes"]
        if share["digests"] != shares[0]["digests"]:  # same inputs, same outputs
            checks.failed += 1
            checks.notes.append("outputs differ between benchmark processes")
        # timings at the reference speed (calibrate.py): each operation by
        # the kernel times on either side of it, set-up by the median
        kernel = share["kernel_s"]
        share["scale"] = [2 * calibrate.REFERENCE_S / (a + b) for a, b in zip(kernel, kernel[1:])]
        share["setup_scale"] = calibrate.REFERENCE_S / statistics.median(kernel)
    raw = [sec for share in shares for sec in share["latencies"]]
    latencies = [sec * k for share in shares for sec, k in zip(share["latencies"], share["scale"])]
    n = len(latencies)
    checks.notes.append(f"op_tail_ms is p{TAIL_PERCENTILE:g} of {n} operations in {procs} "
                        f"processes, {beyond(n, TAIL_PERCENTILE)} beyond it")
    methods = defaultdict(list)
    for share in shares:
        for label, secs in share["by_method"].items():
            methods[label] += [sec * k for sec, k in zip(secs, share["scale"])]
    if len(methods) > 1:
        for label, secs in methods.items():
            checks.notes.append(
                f"{label} invocation: p50 {1e3 * statistics.median(secs):.2f} ms, "
                f"p{TAIL_PERCENTILE:g} {1e3 * percentile(secs, TAIL_PERCENTILE):.2f} ms, "
                f"n={len(secs)}")
    setup = [share["setup_s"] * share["setup_scale"] for share in shares]
    checks.notes.append("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    checks.notes.append(
        "calibration kernel medians (ms): "
        + " ".join(f"{1e3 * statistics.median(share['kernel_s']):.3f}" for share in shares)
        + f"; unscaled: op_p50_ms {1e3 * statistics.median(raw):.2f}, "
        f"op_tail_ms {1e3 * percentile(raw, TAIL_PERCENTILE):.2f}, forecasts_per_s "
        f"{sum(share['forecasts'] for share in shares) / sum(raw):.3f}, setup_s "
        f"{statistics.median(share['setup_s'] for share in shares):.4f}")
    return {
        "setup_s": statistics.median(setup),
        "forecasts_per_s": sum(share["forecasts"] for share in shares) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * percentile(latencies, TAIL_PERCENTILE),
        "peak_rss_mb": statistics.median(share["rss_mb"] for share in shares),
    }


def run_traced(wl, args, checks: Checks, workdir: Path, golden_result) -> dict[str, float]:
    import micro
    import tracing
    from workloads import workers

    metrics = micro.run(args.seed, workdir, golden_result)
    tracer = tracing.Tracer()
    if wl.name == "sweep":
        # untraced with the README's worker count, untraced serial, traced
        # serial: the traced run keeps its cells in-process so spans survive
        variants = (("parallel", {"threads": workers()}), ("plain", {"threads": 1}),
                    ("traced", {"threads": 1}))
    else:
        variants = (("plain", {}), ("traced", {}))
    # warm-up, traced so that the simulated Gram cache is warm too
    tracer.install()
    try:
        handle = wl.run(0, tracer=tracer, **variants[-1][1])
    finally:
        tracer.remove()
    checks.operation(wl.collect(handle))
    tracer.clear()
    walls = defaultdict(list)
    same = Counter()
    deadline = perf_counter() + args.seconds
    i = 0
    while perf_counter() < deadline or i < MIN_FORMAT_OPS:
        for name, kwargs in variants:
            traced = name == "traced"
            if traced:
                tracer.install()
            try:
                t0 = perf_counter()
                handle = wl.run(i, tracer=tracer if traced else None, **kwargs)
                walls[name].append(perf_counter() - t0)
            finally:
                tracer.remove()
            same[name] += checks.operation(wl.collect(handle))
        i += 1
    checks.notes.append("outputs equal to the first traced operation's: " + ", ".join(
        f"{name} {same[name]} of {len(walls[name])}" for name in walls))

    ops = len(walls["traced"])
    busy = {k: v / ops for k, v in tracer.busy.items()}
    own = {k: v / ops for k, v in tracer.self_time.items()}
    calls = {k: v / ops for k, v in tracer.calls.items()}
    counts = {k: v / ops for k, v in tracer.counts.items()}
    iters = counts.get("salsa.iters", 0.0)
    gram_calls = counts.get("causal.gram_calls", 0.0)
    g = busy.get
    metrics.update({
        "salsa.busy_s": g("salsa.forecast", 0.0),
        "salsa.calls": calls.get("salsa.forecast", 0.0),
        "salsa.iters": iters,
        "salsa.ffts": counts.get("salsa.ffts", 0.0),
        "salsa.iter_us": 1e6 * g("salsa.forecast", 0.0) / iters if iters else 0.0,
        "causal.busy_s": g("causal.forecast", 0.0),
        "causal.calls": calls.get("causal.forecast", 0.0),
        "causal.gram_hit_ratio":
            counts.get("causal.gram_hits", 0.0) / gram_calls if gram_calls else 0.0,
        "baselines.busy_s": g("baselines.forecast", 0.0),
        "baselines.calls": calls.get("baselines.forecast", 0.0),
        "harness.self_s": own.get("harness.run_experiment", 0.0),
        "harness.windows": counts.get("harness.windows", 0.0),
        "harness.render_s": g("harness.render", 0.0),
        "harness.failed_windows": counts.get("harness.failed_windows", 0.0),
        "series.rolling_windows_s": g("series.rolling_windows", 0.0),
        "series.scoring_s": g("series.scoring", 0.0),
        "montecarlo.paths": calls.get("montecarlo.generate_path", 0.0),
        "montecarlo.self_s":
            own.get("montecarlo.run_sweep", 0.0) + own.get("montecarlo.generate_path", 0.0),
        "montecarlo.pool_eff": (
            statistics.median(walls["plain"])
            / (workers() * statistics.median(walls["parallel"]))
            if "parallel" in walls else 0.0),
        "ingest.read_s": g("ingest.read_csv_column", 0.0),
        "ingest.rows": counts.get("ingest.rows", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "trace.overhead_pct":
            100 * (statistics.median(walls["traced"]) / statistics.median(walls["plain"]) - 1),
    })

    # accounting: the self times add up to the traced wall by construction,
    # since the root span's self time is what its children leave over. The
    # remainder is the bookkeeping outside the root span, so this checks the
    # tracer; a call made without a span shows instead as root self time
    # (cli.self_s or montecarlo.self_s), printed below.
    wall = sum(walls["traced"])
    attributed = sum(tracer.self_time.values())
    metrics["trace.unattributed_pct"] = 100 * (wall - attributed) / wall
    checks.attempted += 1
    if not 0 <= metrics["trace.unattributed_pct"] <= MAX_UNATTRIBUTED_PCT:
        checks.failed += 1
        checks.notes.append("span self times do not account for the traced wall")
    layers = defaultdict(float)
    for name, sec in tracer.self_time.items():
        layers[name.split(".")[0]] += sec / wall
    checks.notes.append("self-time shares of traced wall: " + ", ".join(
        f"{k} {100 * v:.1f}%" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        + f", unattributed {metrics['trace.unattributed_pct']:.2f}% "
        f"(allowed {MAX_UNATTRIBUTED_PCT:g}%)")
    checks.notes.append(
        f"root span {wl.root_span} self time, which absorbs any call made without "
        f"a span: {100 * tracer.self_time[wl.root_span] / wall:.1f}% of traced wall")
    checks.notes.append(f"{ops} traced and {len(walls['plain'])} untraced operations")
    return metrics


def metadata(args) -> dict:
    import numpy

    from workloads import RTOL, REFERENCE_SEED, workers

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workers": workers(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "reference_seed": REFERENCE_SEED,
        "reference_rtol": RTOL,
        "computed_counts": ["salsa.ffts"],
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    # the ceiling keeps git from reporting a repository that merely contains ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(args, workdir: Path) -> dict:
    import workloads

    checks = Checks()
    wl_cls = workloads.WORKLOADS[args.workload]
    golden_result = check_golden(checks)
    check_reference(wl_cls, REFERENCE_DIR, workdir / "reference", checks)
    if args.trace:
        wl = wl_cls(args.seed, workdir / "inputs", tiny=args.tiny)
        values = run_traced(wl, args, checks, workdir, golden_result)
        spec = [(n, u) for n, u, _ in PER_LAYER]
    else:
        values = run_untraced(args, checks, workdir)
        spec = [(n, u) for n, u, _, _ in END_TO_END]

    metrics = {n: {"value": values[n], "unit": u} for n, u in spec}
    for n, u in spec:
        print(f"{n} {values[n]!r} {u}")
    for note in checks.notes:
        print(f"# {note}")
    print(f"# fail_ratio {checks.failed / checks.attempted!r} "
          f"({checks.failed} of {checks.attempted} operations)")
    print(json.dumps({"meta": metadata(args)}))
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up repeat, for the smoke test")
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--op-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--min-ops", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.write_benchmark_json or args.record_reference):
        if args.workload is None or args.seed is None:
            parser.error("--workload and --seed are required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = (SRC / "sigcast" / "__init__.py", GOLDEN_REPORT, GOLDEN_PLOT)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from a sigcast checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.op_child:
        return op_child(args)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0

    workdir = WORK_ROOT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference:
            import workloads

            checks = Checks()
            recorded = {name: reference_outputs(workloads.WORKLOADS[name], workdir / name, checks)
                        for name in WORKLOAD_NAMES}
            if checks.failed:
                print(f"perfbench: {checks.failed} forecasts failed, nothing recorded",
                      file=sys.stderr)
                return 1
            for name, outputs in recorded.items():
                for key, text in outputs.items():
                    path = REFERENCE_DIR / name / key
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_text(text)
            return 0
        result = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
