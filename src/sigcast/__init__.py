"""Forecasting engines (sparse Fourier recovery, causal band-limited
smoothing, linear extrapolation) with a rolling-window comparison harness,
a Monte Carlo tuning sweep, CSV ingestion and a CLI.

Each library module's ``__all__`` is the only list of what it publishes;
the package republishes them in the order below, then ``__version__``.
"""

from . import baselines, causal, harness, ingest, montecarlo, salsa, series
from .baselines import *  # noqa: F403
from .causal import *  # noqa: F403
from .harness import *  # noqa: F403
from .ingest import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .salsa import *  # noqa: F403
from .series import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (series, salsa, causal, baselines, montecarlo, harness, ingest)
    for name in module.__all__
] + ["__version__"]
