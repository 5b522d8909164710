"""Command-line front end.

Subcommands
-----------
forecast    run one method once on the tail of a series and save the values
experiment  rolling-window comparison of the enabled methods, with report
            and plot-data files
sweep       Monte Carlo hyperparameter grid sweep (resumable)
simulate    generate one synthetic AR path as CSV

Exit codes: 0 ok, 1 validation error or failed forecast, 2 I/O error.
Randomized commands print the seed they used so results can be reproduced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import secrets
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
from .ingest import MISSING_POLICIES, CsvSpec, csv_text, read_csv_column, write_csv
from .montecarlo import SimParams, SweepGrid, SweepTable, generate_path, run_sweep
from .salsa import SalsaParams, salsa_forecast  # noqa: F401

__all__ = ["main"]

_SALSA = SalsaParams()
_CAUSAL = CausalParams()
_LINEAR = LinearParams()

# report format -> file extension
FORMATS = {"text": "txt", "csv": "csv", "json": "json"}


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems as validation errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_grid_values(text: str) -> tuple[float, ...]:
    """Comma list ("0.1,0.6") or inclusive range ("0.1:2.0:0.1")."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        count = int(round((stop - start) / step)) + 1
        if count < 1:
            raise ValueError(f"empty range {text!r}")
        return tuple(round(start + i * step, 12) for i in range(count))
    return tuple(float(p) for p in text.split(",") if p.strip())


def _add_io_options(sub):
    sub.add_argument("--input", required=True, help="input CSV path")
    sub.add_argument(
        "--column", default="1",
        help="1-based column index or header name of the value column",
    )
    sub.add_argument("--skip-header", action="store_true", help="skip the first row")
    sub.add_argument(
        "--missing-policy", choices=MISSING_POLICIES, default="drop",
        help="how to treat missing cells",
    )
    sub.add_argument("--output-dir", default=".", help="directory for output files")
    sub.add_argument("--format", choices=FORMATS, default="text", help="report format")


def _add_method_options(sub):
    sub.add_argument("--mu", type=float, default=_SALSA.mu, help="SALSA penalty parameter")
    sub.add_argument(
        "--lambda", dest="lam", type=float, default=_SALSA.lam,
        help="SALSA l1 regularization weight",
    )
    sub.add_argument("--n-basis", type=int, default=_SALSA.n_basis, help="SALSA dictionary length")
    sub.add_argument("--n-iter", type=int, default=_SALSA.n_iter, help="SALSA iteration count")
    sub.add_argument("--omega", type=float, default=_CAUSAL.omega, help="causal band limit")
    sub.add_argument("--nu", type=float, default=_CAUSAL.nu, help="causal Tikhonov regularizer")
    sub.add_argument(
        "--n-harmonics", type=int, default=_CAUSAL.n_harmonics,
        help="causal harmonic count N (window must be 2N+1)",
    )
    sub.add_argument(
        "--ma-width", type=int, default=_CAUSAL.ma_width,
        help="causal moving-average width (odd)",
    )
    sub.add_argument("--lookback", type=int, default=_LINEAR.lookback, help="linear lookback A")
    sub.add_argument(
        "--linear-variant", choices=VARIANTS, default=_LINEAR.variant,
        help="linear extrapolation variant",
    )


def _add_ar_options(sub):
    sub.add_argument("--a-low", type=float, default=0.0, help="AR coefficient lower bound")
    sub.add_argument("--a-high", type=float, default=1.0, help="AR coefficient upper bound")
    sub.add_argument("--noise-std", type=float, default=1.0, help="noise standard deviation")
    sub.add_argument("--offset", type=float, default=80.0, help="level shift added to paths")


def _sim_params(args, length: int, seed: int) -> SimParams:
    return SimParams(
        length=length,
        a_low=args.a_low,
        a_high=args.a_high,
        noise_std=args.noise_std,
        offset=args.offset,
        seed=seed,
    )


def _read_series(args):
    column = int(args.column) if str(args.column).lstrip("-").isdigit() else args.column
    spec = CsvSpec(
        path=args.input,
        column=column,
        skip_header=args.skip_header,
        missing_policy=args.missing_policy,
    )
    return read_csv_column(spec)


def _method_params(args):
    return {
        "salsa": SalsaParams(mu=args.mu, lam=args.lam, n_basis=args.n_basis, n_iter=args.n_iter),
        "causal": CausalParams(
            omega=args.omega, nu=args.nu, n_harmonics=args.n_harmonics, ma_width=args.ma_width
        ),
        "linear": LinearParams(lookback=args.lookback, variant=args.linear_variant),
    }


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(32)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def cmd_forecast(args) -> int:
    if args.window < 1:
        raise ValueError(f"window must be >= 1, got {args.window}")
    series = _read_series(args)
    params = _method_params(args)[args.method]
    if len(series) < args.window:
        raise ValueError(f"series has {len(series)} samples, need window {args.window}")
    values = forecast(args.method, series.values[-args.window :], args.horizon, params)
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
            text = csv_text(["step", "value"], enumerate(values, 1))
        else:
            text = "\n".join(map(repr, values)) + "\n"
        (out / "forecast_params.json").write_text(json.dumps(meta, indent=2) + "\n")
    (out / f"forecast.{FORMATS[args.format]}").write_text(text)
    return 0


def cmd_experiment(args) -> int:
    series = _read_series(args)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    config = ExperimentConfig(
        horizon=args.horizon,
        window_len=args.window,
        stride=args.stride,
        methods=methods,
        lookahead_smoothing=args.lookahead_smoothing,
        **_method_params(args),
    )
    result = run_experiment(series, config)
    out = _out_dir(args)
    (out / f"report.{FORMATS[args.format]}").write_text(render_report(result, args.format))
    (out / "plot_data.csv").write_text(render_plot_csv(result))
    return 0


def _write_atomic(path: Path, text: str) -> None:
    """Replace path's contents so an interrupted write leaves the old file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def cmd_sweep(args) -> int:
    if args.resume and args.seed is None:
        raise ValueError("--resume needs the --seed of the run it continues")
    seed = _resolve_seed(args)
    grid = SweepGrid(
        mu_values=_parse_grid_values(args.mu_values),
        lambda_values=_parse_grid_values(args.lambda_values),
        n_basis_values=tuple(int(v) for v in _parse_grid_values(args.n_basis_values)),
        trials=args.trials,
        horizon=args.horizon,
        window=args.window,
    )
    sim = _sim_params(args, grid.window + grid.horizon, seed)
    out = _out_dir(args)
    csv_path = out / "sweep.csv"

    done = []
    if args.resume and csv_path.exists():
        done = SweepTable.from_csv(csv_path.read_text()).rows
        print(f"resuming: {len(done)} cells already done", file=sys.stderr)
    completed = {row.key: row for row in done}
    _write_atomic(csv_path, SweepTable(done).to_csv())

    # save the rows so far as each one finishes, so an interrupted run can resume
    def persist(row):
        done.append(row)
        _write_atomic(csv_path, SweepTable(done).to_csv())

    table = run_sweep(grid, sim, threads=args.threads, completed=completed, on_row=persist)
    # canonical grid-order rewrite (identical bytes for any worker count)
    _write_atomic(csv_path, table.to_csv())
    (out / "sweep.json").write_text(table.to_json())
    return 0


def cmd_simulate(args) -> int:
    series = generate_path(_sim_params(args, args.length, _resolve_seed(args)))
    out = _out_dir(args)
    write_csv(series, out / "series.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sigcast",
        description="Sparse-recovery, band-limited and linear extrapolation forecasting",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fc = subs.add_parser(
        "forecast", help="forecast the next points of a series with one method",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_io_options(fc)
    _add_method_options(fc)
    fc.add_argument("--method", choices=METHOD_ORDER, required=True)
    fc.add_argument("--window", type=int, default=91, help="history length used")
    fc.add_argument("--horizon", type=int, default=10, help="number of points to forecast")
    fc.set_defaults(func=cmd_forecast)

    ex = subs.add_parser(
        "experiment", help="rolling-window method comparison with report tables",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_io_options(ex)
    _add_method_options(ex)
    ex.add_argument("--methods", default=",".join(METHOD_ORDER), help="comma list of methods")
    ex.add_argument("--window", type=int, default=91, help="history window length")
    ex.add_argument("--horizon", type=int, required=True, help="forecast length per window")
    ex.add_argument("--stride", type=int, default=None, help="window step (default: horizon)")
    ex.add_argument(
        "--lookahead-smoothing", action="store_true",
        help="smooth the whole series once (lookahead) instead of per window",
    )
    ex.set_defaults(func=cmd_experiment)

    sw = subs.add_parser(
        "sweep", help="Monte Carlo grid sweep of the SALSA hyperparameters",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sw.add_argument("--output-dir", default=".", help="directory for output files")
    sw.add_argument("--mu-values", default="0.1:2.0:0.1", help="comma list or start:stop:step")
    sw.add_argument("--lambda-values", default="1", help="comma list or start:stop:step")
    sw.add_argument("--n-basis-values", default="200", help="comma list or start:stop:step")
    sw.add_argument("--trials", type=int, default=1000, help="paths per grid cell")
    sw.add_argument("--horizon", type=int, default=7, help="forecast length per trial")
    sw.add_argument("--window", type=int, default=91, help="history length per trial")
    _add_ar_options(sw)
    sw.add_argument("--seed", type=int, default=None, help="master seed (printed if omitted)")
    sw.add_argument("--threads", type=int, default=1, help="worker processes for grid cells")
    sw.add_argument("--resume", action="store_true", help="continue a partial sweep.csv")
    sw.set_defaults(func=cmd_sweep)

    sim = subs.add_parser(
        "simulate", help="generate a synthetic AR path as CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sim.add_argument("--output-dir", default=".", help="directory for output files")
    sim.add_argument("--length", type=int, required=True, help="number of samples")
    _add_ar_options(sim)
    sim.add_argument("--seed", type=int, default=None, help="RNG seed (printed if omitted)")
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except OSError as exc:
        print(f"sigcast: I/O error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"sigcast: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
