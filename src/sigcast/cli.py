"""Command-line front end.

Subcommands
-----------
forecast    run one method once on the tail of a series and save the values
experiment  rolling-window comparison of the enabled methods, with report
            and plot-data files
sweep       Monte Carlo hyperparameter grid sweep (resumable)
simulate    generate one synthetic AR path as CSV

Exit codes: 0 ok, 1 validation error, failed forecast or refused allocation,
2 I/O error.
Randomized commands print the seed they used so results can be reproduced.
Every option default that the library also has is read from the library.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

# the forecasters stay imported here because perfbench's tracer rebinds them
from .baselines import VARIANTS, LinearParams, linear_forecast  # noqa: F401
from .causal import CausalParams, causal_forecast  # noqa: F401
from .harness import (
    METHOD_ORDER,
    ExperimentConfig,
    forecast,
    render_plot_csv,
    render_report,
    run_experiment,
)
from .ingest import MISSING_POLICIES, CsvSpec, csv_text, read_csv_column, write_atomic, write_csv
from .montecarlo import SimParams, SweepGrid, SweepTable, generate_path, run_sweep
from .salsa import SalsaParams, salsa_forecast  # noqa: F401
from .series import check_count

__all__ = ["main"]

# report format -> file extension
FORMATS = {"text": "txt", "csv": "csv", "json": "json"}


def _parse_grid_values(text: str) -> tuple[float, ...]:
    """Comma list ("0.1,0.6") or range ("0.1:2.0:0.1"): start + i*step to 12
    significant digits, up to stop within 1e-9 of a step and never past it."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        count = math.floor((stop - start) / step + 1e-9) + 1
        if count < 1:
            raise ValueError(f"empty range {text!r}")
        return tuple(min(float(f"{start + i * step:.12g}"), stop) for i in range(count))
    return tuple(float(p) for p in text.split(",") if p.strip())


def _add_command(subs, name, func, help):
    """A subcommand with the options every command shares."""
    sub = subs.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub.add_argument("--output-dir", default=".", help="directory for output files")
    sub.set_defaults(func=func)
    return sub


def _add_series_options(sub):
    """Input, window and method options of the commands that forecast a CSV column."""
    sub.add_argument("--input", required=True, help="input CSV path")
    sub.add_argument("--column", default=CsvSpec.column,
                     help="1-based column index or header name of the value column")
    sub.add_argument("--skip-header", action="store_true", help="skip the first row")
    sub.add_argument("--missing-policy", choices=MISSING_POLICIES,
                     default=CsvSpec.missing_policy, help="how to treat missing cells")
    sub.add_argument("--format", choices=FORMATS, default="text", help="report format")
    sub.add_argument("--window", type=int, default=ExperimentConfig.window_len,
                     help="history length; causal fits N = window // 2 harmonics")
    sub.add_argument("--mu", type=float, default=SalsaParams.mu, help="SALSA penalty parameter")
    sub.add_argument("--lambda", dest="lam", type=float, default=SalsaParams.lam,
                     help="SALSA l1 regularization weight")
    sub.add_argument("--n-basis", type=int, default=SalsaParams.n_basis,
                     help="SALSA dictionary length")
    sub.add_argument("--n-iter", type=int, default=SalsaParams.n_iter,
                     help="SALSA iteration count")
    sub.add_argument("--omega", type=float, default=CausalParams.omega, help="causal band limit")
    sub.add_argument("--nu", type=float, default=CausalParams.nu,
                     help="causal Tikhonov regularizer")
    sub.add_argument("--ma-width", type=int, default=CausalParams.ma_width,
                     help="causal moving-average width (odd)")
    sub.add_argument("--lookback", type=int, default=LinearParams.lookback,
                     help="linear lookback A")
    sub.add_argument("--linear-variant", choices=VARIANTS, default=LinearParams.variant,
                     help="linear extrapolation variant")


def _add_ar_options(sub):
    """AR path options, with the seed of the path or of the sweep."""
    sub.add_argument("--a-low", type=float, default=SimParams.a_low,
                     help="AR coefficient lower bound")
    sub.add_argument("--a-high", type=float, default=SimParams.a_high,
                     help="AR coefficient upper bound")
    sub.add_argument("--noise-std", type=float, default=SimParams.noise_std,
                     help="noise standard deviation")
    sub.add_argument("--offset", type=float, default=SimParams.offset,
                     help="level shift added to paths")
    sub.add_argument("--seed", type=int,
                     help="RNG seed, the sweep's master seed (printed if omitted)")


def _sim_params(args, length: int) -> SimParams:
    """The AR options as SimParams; a seed is drawn and printed if --seed is omitted."""
    seed = args.seed
    if seed is None:
        import secrets  # only here: it loads hmac and base64, which no other path needs

        seed = secrets.randbits(32)
        print(f"seed: {seed}", file=sys.stderr)
    return SimParams(length=length, a_low=args.a_low, a_high=args.a_high,
                     noise_std=args.noise_std, offset=args.offset, seed=seed)


def _read_series(args, last=None):
    column = int(args.column) if str(args.column).lstrip("-").isdigit() else args.column
    spec = CsvSpec(
        path=args.input,
        column=column,
        skip_header=args.skip_header,
        missing_policy=args.missing_policy,
    )
    return read_csv_column(spec, last)


def _method_params(args, methods) -> dict:
    """Each named method's params, built from its options and no other's."""
    build = {
        "salsa": lambda: SalsaParams(mu=args.mu, lam=args.lam, n_basis=args.n_basis,
                                     n_iter=args.n_iter),
        # the window is the causal fit's 2N+1 samples; an even one gets causal's window error
        "causal": lambda: CausalParams(omega=args.omega, nu=args.nu,
                                       n_harmonics=max(args.window // 2, 1),
                                       ma_width=args.ma_width),
        "linear": lambda: LinearParams(lookback=args.lookback, variant=args.linear_variant),
    }
    return {method: make() for method, make in build.items() if method in methods}


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_forecast(args) -> int:
    check_count("window", args.window)
    check_count("horizon", args.horizon)
    params = _method_params(args, [args.method])[args.method]
    params.check_window(args.window, args.horizon)
    series = _read_series(args, last=args.window)
    if len(series) < args.window:
        raise ValueError(f"series has {len(series)} samples, need window {args.window}")
    values = forecast(args.method, series.values, args.horizon, params)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{args.method} forecast is not finite")

    out = _out_dir(args)
    meta = {
        "method": args.method,
        "window": args.window,
        "horizon": args.horizon,
        "params": dataclasses.asdict(params),
    }
    values = values.tolist()
    if args.format == "json":
        text = json.dumps(dict(meta, forecast=values), indent=2) + "\n"
    else:
        if args.format == "csv":
            text = csv_text(["step", "value"], (range(1, len(values) + 1), values))
        else:
            text = "\n".join(map(repr, values)) + "\n"
        write_atomic(out / "forecast_params.json", json.dumps(meta, indent=2) + "\n")
    write_atomic(out / f"forecast.{FORMATS[args.format]}", text)
    return 0


def cmd_experiment(args) -> int:
    check_count("window", args.window)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    params = _method_params(args, methods)
    # causal's ma_width also draws plot_data.csv's smoothed column
    params.setdefault("causal", CausalParams(ma_width=args.ma_width))
    config = ExperimentConfig(
        horizon=args.horizon,
        window_len=args.window,
        stride=args.stride,
        methods=methods,
        lookahead_smoothing=args.lookahead_smoothing,
        **params,
    )
    result = run_experiment(_read_series(args), config)
    out = _out_dir(args)
    write_atomic(out / f"report.{FORMATS[args.format]}", render_report(result, args.format))
    write_atomic(out / "plot_data.csv", render_plot_csv(result))
    return 0


def cmd_sweep(args) -> int:
    check_count("threads", args.threads)
    grid = SweepGrid(
        mu_values=_parse_grid_values(args.mu_values),
        lambda_values=_parse_grid_values(args.lambda_values),
        n_basis_values=tuple(int(v) if v.is_integer() else v
                             for v in _parse_grid_values(args.n_basis_values)),
        trials=args.trials,
        horizon=args.horizon,
        window=args.window,
    )
    sim = _sim_params(args, grid.window + grid.horizon)
    out = _out_dir(args)
    csv_path, json_path = out / "sweep.csv", out / "sweep.json"

    done = []
    if args.resume and json_path.exists():
        done = SweepTable.from_json(json_path.read_text(), grid, sim).rows
        print(f"resuming: {len(done)} cells already done", file=sys.stderr)

    def save(rows):
        write_atomic(csv_path, SweepTable(rows).to_csv())
        write_atomic(json_path, SweepTable(rows).to_json(grid, sim))

    # save the cells so far as each one finishes, so an interrupted run can resume
    def persist(row):
        done.append(row)
        save(done)

    completed = {row.key: row for row in done}
    table = run_sweep(grid, sim, threads=args.threads, completed=completed, on_row=persist)
    # canonical grid-order rewrite (identical bytes for any worker count)
    save(table.rows)
    return 0


def cmd_simulate(args) -> int:
    series = generate_path(_sim_params(args, args.length))
    out = _out_dir(args)
    write_csv(series, out / "series.csv")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, shared by every call: do not change it.

    Each parse returns a fresh namespace, so no call's options reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="sigcast",
        description="Sparse-recovery, band-limited and linear extrapolation forecasting",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fc = _add_command(subs, "forecast", cmd_forecast,
                      "forecast the next points of a series with one method")
    _add_series_options(fc)
    fc.add_argument("--method", choices=METHOD_ORDER, required=True)
    fc.add_argument("--horizon", type=int, default=10, help="number of points to forecast")

    ex = _add_command(subs, "experiment", cmd_experiment,
                      "rolling-window method comparison with report tables")
    _add_series_options(ex)
    ex.add_argument("--methods", default=",".join(METHOD_ORDER), help="comma list of methods")
    ex.add_argument("--horizon", type=int, required=True, help="forecast length per window")
    ex.add_argument("--stride", type=int, help="window step (default: horizon)")
    ex.add_argument(
        "--lookahead-smoothing", action="store_true",
        help="smooth the whole series once (lookahead) instead of per window",
    )

    sw = _add_command(subs, "sweep", cmd_sweep,
                      "Monte Carlo grid sweep of the SALSA hyperparameters")
    sw.add_argument("--mu-values", default="0.1:2.0:0.1", help="comma list or start:stop:step")
    sw.add_argument("--lambda-values", default="1", help="comma list or start:stop:step")
    sw.add_argument("--n-basis-values", default="200", help="comma list or start:stop:step")
    sw.add_argument("--trials", type=int, default=1000, help="paths per grid cell")
    sw.add_argument("--horizon", type=int, default=SweepGrid.horizon,
                    help="forecast length per trial")
    sw.add_argument("--window", type=int, default=SweepGrid.window,
                    help="history length per trial")
    _add_ar_options(sw)
    sw.add_argument("--threads", type=int, default=1, help="worker processes for grid cells")
    sw.add_argument("--resume", action="store_true", help="continue a partial sweep.json")

    sim = _add_command(subs, "simulate", cmd_simulate, "generate a synthetic AR path as CSV")
    sim.add_argument("--length", type=int, required=True, help="number of samples")
    _add_ar_options(sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, a validation error here
        return 0 if exc.code == 0 else 1
    except OSError as exc:
        print(f"sigcast: I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"sigcast: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
