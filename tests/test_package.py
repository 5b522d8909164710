"""`import sigcast` publishes each library module's `__all__`, and no other list;
every CSV table is written by one writer, which takes it column by column,
every output file by one writer with `newline=""`, the SALSA loop calls
numpy's pocketfft kernels on array operands with positional outputs and
works on the half spectrum from the
solve to the forecast, every count and every array of samples
is checked by one rule, every method is forecast as (history, horizon,
params), the causal forecast is one cached map of the raw window, an
experiment result holds the raw series once, `cli.main` decides every exit
code, the SALSA state names its N, only a sweep that starts a
process pool loads multiprocessing, only a drawn seed loads secrets, and
no output follows numpy's AVX-512 dispatch."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import sigcast
from sigcast.cli import main

LIBRARY_MODULES = ("series", "salsa", "causal", "baselines", "montecarlo", "harness", "ingest")


def test_package_republishes_each_module_list():
    names = []
    for module in (getattr(sigcast, name) for name in LIBRARY_MODULES):
        names += module.__all__
        for name in module.__all__:
            assert getattr(sigcast, name) is getattr(module, name)
    assert len(set(names)) == len(names)
    assert sigcast.__all__ == names + ["__version__"]
    # module internals that callers import from their module
    assert not {"forecast", "METHOD_ORDER", "VARIANTS"} & set(sigcast.__all__)


def test_one_csv_writer():
    sources = {path.name: path.read_text() for path in Path(sigcast.__file__).parent.glob("*.py")}
    writers = {name: text.count("csv.writer(") for name, text in sources.items()}
    assert {name: n for name, n in writers.items() if n} == {"ingest.py": 1}
    # the writer takes columns: a caller that zips or numbers rows for it fails here
    assert list(inspect.signature(sigcast.ingest.csv_text).parameters) == ["header", "columns"]
    calls = [node for text in sources.values() for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "csv_text"]
    assert len(calls) == 5
    for call in map(ast.unparse, calls):
        assert "zip(" not in call and "enumerate(" not in call, call
    nodes = list(ast.walk(ast.parse(sources["harness.py"])))
    imported = {alias.name for node in nodes if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    assert not {"csv", "io"} & imported


def test_salsa_loop_calls_pocketfft_kernels():
    # a numpy release that renames or changes the kernels fails here or on the bits
    sources = {path.name: path.read_text() for path in Path(sigcast.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "_pocketfft_umath" in text] == ["salsa.py"]
    assert "np.fft." not in inspect.getsource(sigcast.salsa.salsa_solve)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert '"numpy>=2.0"' in pyproject.read_text()


def test_salsa_loop_folds_step_into_forward_kernel():
    # the step is the forward kernel's norm factor, not a product on its output,
    # and the shrink's error state is set by a decorator, not a `with` block
    assert "step *" not in inspect.getsource(sigcast.salsa.salsa_solve)
    assert "with np.errstate" not in inspect.getsource(sigcast.salsa.soft_threshold)


def test_outputs_written_with_newline_empty():
    # newline="" keeps "\n" line ends on every platform, where the default writes os.linesep
    sources = {path.name: path.read_text() for path in Path(sigcast.__file__).parent.glob("*.py")}
    calls = [(name, node) for name, text in sources.items() for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "write_text"]
    # ingest.write_atomic is the one file writer
    assert [name for name, _ in calls] == ["ingest.py"]
    for name, node in calls:
        newline = [ast.literal_eval(kw.value) for kw in node.keywords if kw.arg == "newline"]
        assert newline == [""], name


def test_salsa_loop_takes_no_python_numbers_and_no_out_keyword():
    # numpy converts a Python number operand again on every call and parses
    # out= as a keyword: the loop builds its operands once per solve as
    # arrays and passes each output positionally. The cost trace is exempt.
    tree = ast.parse(inspect.getsource(sigcast.salsa.salsa_solve))
    (loop,) = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
    traced = [node for node in loop.body if isinstance(node, ast.If)]
    assert [ast.unparse(node.test) for node in traced] == ["track_cost"]
    calls = [node for statement in loop.body if statement not in traced
             for node in ast.walk(statement) if isinstance(node, ast.Call)]
    assert calls
    for call in calls:
        operands = [node for arg in call.args for node in ast.walk(arg)]
        assert not [node for node in operands if isinstance(node, ast.Constant)
                    and isinstance(node.value, (int, float, complex))], ast.unparse(call)
        assert "out" not in [kw.arg for kw in call.keywords], ast.unparse(call)
    # exactly 11 calls of names bound before the loop, on bare names bound
    # there too: an operand such as `factor.real` or `y[..., :k]` would build
    # a view on every iteration
    bound = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Store) and node.lineno < loop.lineno}
    assert len(calls) == 11, [ast.unparse(call) for call in calls]
    for call in calls:
        names = [call.func, *call.args]
        assert all(isinstance(node, ast.Name) and node.id in bound for node in names), (
            ast.unparse(call))
        assert not call.keywords, ast.unparse(call)


def test_salsa_loop_casts_no_input(monkeypatch):
    # a ufunc given inputs of two dtypes casts one of them through a buffer
    # on every call, as multiply(scale, t, u) did with its float scale
    calls = []

    def checked(ufunc):
        def call(*args):
            calls.append((ufunc.__name__, [np.asarray(arg).dtype for arg in args[: ufunc.nin]]))
            return ufunc(*args)
        return call

    for name in ("add", "abs", "divide", "subtract", "fmax", "multiply"):
        monkeypatch.setattr(np, name, checked(getattr(np, name)))
    stack = np.sin(np.arange(36.0)).reshape(3, 12)
    rows = [sigcast.SalsaParams(mu=mu, n_basis=20, n_iter=3) for mu in (0.1, 0.6, 2.0)]
    for masked, params in [(stack[0], rows[0]), (stack, rows[1]), (stack, rows)]:
        sigcast.salsa_solve(masked, sigcast.ObservationMask(9, 12), params, track_cost=False)
    assert len(calls) == 3 * 3 * 9
    mixed = [(name, dtypes) for name, dtypes in calls if len(set(dtypes)) > 1]
    assert not mixed, mixed


def test_one_count_rule():
    # series.check_count states "an integer of at least `low`"; a hand-written copy fails here
    sources = {path.name: path.read_text() for path in Path(sigcast.__file__).parent.glob("*.py")}
    assert {name: text.count("must be >=") for name, text in sources.items()
            if "must be >=" in text} == {"series.py": 1}
    assert "must be >=" in inspect.getsource(sigcast.series.check_count)
    assert not any("_check_at_least_one" in text for text in sources.values())


def test_one_sample_rule():
    # series.check_samples states "must be real"; a hand-written history check fails here
    sources = {path.name: path.read_text() for path in Path(sigcast.__file__).parent.glob("*.py")}
    assert [name for name, text in sources.items() if "must be real" in text] == ["series.py"]
    assert "must be real" in inspect.getsource(sigcast.series.check_samples)
    assert not any("history must" in text for text in sources.values())


def test_one_forecast_signature():
    # lookahead smoothing reaches the causal method as its history, not as a side argument
    sources = [path.read_text() for path in Path(sigcast.__file__).parent.glob("*.py")]
    assert not any("presmoothed" in text for text in sources)
    assert list(inspect.signature(sigcast.harness.forecast).parameters) == [
        "method", "history", "horizon", "params"]
    assert list(inspect.signature(sigcast.causal_forecast).parameters) == [
        "history", "horizon", "params"]


def test_causal_forecast_is_one_map_of_the_raw_window():
    # the moving average is folded into the cached operator; a smoothing pass
    # or a row-block loop put back into the forecast fails here
    assert "moving_average" not in inspect.getsource(sigcast.causal.causal_forecast)
    assert not hasattr(sigcast.causal, "_ROW_BLOCK")


def test_salsa_is_half_spectrum_from_solve_to_forecast():
    # the inverse kernel takes norm factor 1, so the residual is y - head in
    # one call: 11 calls per iteration outside the cost trace. The solve
    # returns bins 0..N//2, and the forecast synthesizes from them directly.
    tree = ast.parse(inspect.getsource(sigcast.salsa.salsa_solve))
    (loop,) = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
    calls = [node for statement in loop.body if not isinstance(statement, ast.If)
             for node in ast.walk(statement) if isinstance(node, ast.Call)]
    assert len(calls) == 11, [ast.unparse(call) for call in calls]
    source = inspect.getsource(sigcast.salsa.salsa_solve)
    assert "np.conj" not in source and "np.concatenate" not in source
    forecast = ast.parse(inspect.getsource(sigcast.salsa.salsa_forecast))
    assert "synthesize" not in {node.id for node in ast.walk(forecast) if isinstance(node, ast.Name)}


def test_experiment_result_holds_the_raw_series_once():
    # the plot formats each distinct sample of raw_series once; a per-window
    # copy of the truth, or a writer that finds the repeats again by their
    # float bits, fails here
    fields = dataclasses.fields(sigcast.ExperimentResult)
    assert "truth_track" not in {field.name for field in fields}
    assert list(inspect.signature(sigcast.ingest.float_cells).parameters) == ["values"]
    sources = [path.read_text() for path in Path(sigcast.__file__).parent.glob("*.py")]
    assert not any("view(np.int64)" in text for text in sources)
    series = sigcast.generate_path(sigcast.SimParams(length=40, seed=3))
    config = sigcast.ExperimentConfig(horizon=4, window_len=21, stride=1, methods=("linear",))
    result = sigcast.run_experiment(series, config)
    assert result.raw_series is series.values
    assert np.array_equal(result.truth_track, series.values[result.target_indices])
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        sigcast.render_plot_csv(result)
    assert unique.call_count == 1


def test_main_decides_every_exit_code():
    # argparse's usage errors exit 2 and main maps them to 1; a parser
    # subclass that decides its own exit code fails here
    sources = {path.name: path.read_text() for path in Path(sigcast.__file__).parent.glob("*.py")}
    bases = [ast.unparse(base) for text in sources.values() for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.ClassDef) for base in node.bases]
    assert not [base for base in bases if base.endswith("ArgumentParser")]
    # a subcommand's parser errs on its own; test_cli's --format cases cover the top one
    assert main(["simulate"]) == 1


def test_salsa_state_names_its_n():
    # bins 0..N//2 alone do not tell N = 2H-2 from 2H-1: the state carries N,
    # so the forecast hands its params to the solve and reads them nowhere else
    assert [field.name for field in dataclasses.fields(sigcast.SalsaState)] == [
        "c", "cost_history", "n_basis"]
    forecast = ast.parse(inspect.getsource(sigcast.salsa.salsa_forecast))
    assert "_per_row" not in {node.id for node in ast.walk(forecast) if isinstance(node, ast.Name)}


NO_POOL_RUN = """
import sys
from pathlib import Path

import sigcast
import sigcast.cli

out = Path(sys.argv[1])
cli = sigcast.cli.main
assert cli(["simulate", "--length", "120", "--seed", "5", "--output-dir", str(out)]) == 0
assert cli(["forecast", "--method", "salsa", "--input", str(out / "series.csv"),
            "--column", "value", "--output-dir", str(out)]) == 0
# 20 rows make one block, which runs in this process at any thread count
grid = sigcast.SweepGrid(mu_values=(0.4, 0.8), trials=10, horizon=2, window=40)
sigcast.run_sweep(grid, sigcast.SimParams(length=42, seed=3), threads=2)
print(sorted({"concurrent.futures.process", "multiprocessing"} & set(sys.modules)))
"""


def _fresh_run(script, *args):
    """`script` run in a fresh interpreter that imports sigcast from this checkout."""
    src = Path(sigcast.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_only_a_pool_loads_multiprocessing(tmp_path):
    # the pool's import stack costs every process about 1.5 MB of RSS; a
    # module-level import of ProcessPoolExecutor fails here
    done = _fresh_run(NO_POOL_RUN, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


NO_SECRETS_RUN = """
import sys
from pathlib import Path

import sigcast.cli

out = Path(sys.argv[1])
(out / "in.csv").write_text("value\\n" + "".join(f"{i % 7}\\n" for i in range(120)))
assert sigcast.cli.main(["forecast", "--method", "linear", "--input", str(out / "in.csv"),
                         "--column", "value", "--output-dir", str(out)]) == 0
print(sorted({"secrets", "hmac"} & set(sys.modules)))
"""


def test_only_a_drawn_seed_loads_secrets(tmp_path, capsys):
    # secrets loads hmac and base64, about 4 ms per process; a module-level
    # import in the CLI fails here. simulate without --seed still draws one.
    done = _fresh_run(NO_SECRETS_RUN, tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    assert main(["simulate", "--length", "10", "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err.startswith("seed: ")


DISPATCH_OUTPUTS = """
import numpy as np

from sigcast.harness import ExperimentConfig, render_plot_csv, render_report, run_experiment
from sigcast.montecarlo import SimParams, generate_path
from sigcast.salsa import SalsaParams, salsa_forecast

# criterion 11's golden experiment, and a stack of three windows with a mu per row
series = generate_path(SimParams(length=141, seed=20240915))
result = run_experiment(series, ExperimentConfig(horizon=5, window_len=91, stride=5))
stack = series.values[:91] + np.arange(3)[:, None]
forecast = salsa_forecast(stack, 7, [SalsaParams(mu=mu) for mu in (0.3, 0.6, 1.2)])
outputs = [render_report(result, "text"), render_plot_csv(result), forecast.tobytes().hex()]
"""


def test_outputs_do_not_follow_numpy_avx512_dispatch(monkeypatch):
    # numpy ignores a feature name it does not dispatch, so on a host without
    # AVX-512 this compares the same dispatch twice and shows nothing. With
    # X86_V3 (AVX2) disabled too, SALSA's complex np.abs changes its bits and
    # this fails: the golden SALSA cells are bit-exact only on AVX2 loops.
    here = {}
    exec(DISPATCH_OUTPUTS, here)
    # numpy reads the variable at import, so only the fresh interpreter sees it
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", "AVX512_SPR AVX512_ICL X86_V4")
    done = _fresh_run(DISPATCH_OUTPUTS + "print(repr(outputs))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == repr(here["outputs"]) + "\n"
