"""`import sigcast` publishes each library module's `__all__`, and no other list."""

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
