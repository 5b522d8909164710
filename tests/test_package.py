"""`import sigcast` publishes each library module's `__all__`, and no other list;
every CSV table is written by one writer."""

import ast
from pathlib import Path

import sigcast

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
    nodes = list(ast.walk(ast.parse(sources["harness.py"])))
    imported = {alias.name for node in nodes if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    assert not {"csv", "io"} & imported
