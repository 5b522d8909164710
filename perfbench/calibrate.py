"""A fixed calibration kernel that measures how fast the host is right now.

On a shared host the speed of the same code drifts by a quarter or more
over twenty minutes, as other tenants come and go: far more than a
20-second run can average out, so raw timings of one commit disagree from
one batch of runs to the next. Each benchmark process therefore times this
kernel between its operations and scales each operation's time by
REFERENCE_S over the mean of the kernel times on either side of it,
reporting timings at a fixed reference speed.

The kernel does the kinds of work the workloads do, with no sigcast code:
small complex FFT pairs and shrinkage at N = 200 (SALSA), a 91 x 91
symmetric solve (causal), and parsing CSV text into floats (ingest).
"""

from __future__ import annotations

import csv
from time import perf_counter

import numpy as np

# a round figure near the kernel's median time on the two-core Xeon host
# the benchmark was defined on; scaled timings read as if taken there
REFERENCE_S = 0.010

_SPECTRUM = np.exp(2j * np.pi * np.arange(200) / 7.0)
_GRAM = np.eye(91) + 0.01 * np.cos(np.subtract.outer(np.arange(91), np.arange(91)) / 9.0)
_RHS = np.linspace(-1.0, 1.0, 91)
_CSV_LINES = [f"{i},{25.0 + (i % 97) * 0.1:.1f},Y" for i in range(4000)]


def kernel() -> float:
    """Seconds taken by one pass of the fixed calibration work."""
    t0 = perf_counter()
    x = _SPECTRUM
    for _ in range(160):
        y = np.fft.ifft(x)
        x = 0.5 * np.fft.fft(y) + _SPECTRUM
        mag = np.abs(x)
        x = np.maximum(1.0 - 0.1 / np.maximum(mag, 1e-12), 0.0) * x
    for _ in range(10):
        np.linalg.solve(_GRAM, _RHS)
    total = 0.0
    for row in csv.reader(_CSV_LINES):
        total += float(row[1])
    return perf_counter() - t0
