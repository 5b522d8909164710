"""CSV ingestion for daily-climate and OHLC equity files.

One numeric column is pulled out of an RFC-4180-style CSV into a
:class:`TimeSeries`. Ordering is taken from row order; dates are never
parsed. Missing cells (blank, NA-like tokens, or non-finite numbers) are
handled by the configured policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import csv
import numpy as np

from .series import TimeSeries

__all__ = ["CsvSpec", "read_csv_column", "write_csv"]

MISSING_POLICIES = ("drop", "forward_fill", "error")

_NA_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


@dataclass(frozen=True)
class CsvSpec:
    """Where and how to read one value column.

    column may be a 1-based index or a header name; a header name implies
    the first row is a header. skip_header drops the first row when the
    column is given by index.
    """

    path: str | Path
    column: int | str = 1
    skip_header: bool = False
    missing_policy: str = "drop"

    def __post_init__(self):
        if isinstance(self.column, int) and self.column < 1:
            raise ValueError(f"column index is 1-based, got {self.column}")
        if self.missing_policy not in MISSING_POLICIES:
            raise ValueError(
                f"missing_policy must be one of {MISSING_POLICIES}, got {self.missing_policy!r}"
            )


def _parse_cell(cell: str) -> tuple[float | None, bool]:
    """Returns (value, is_missing); raises on unparseable non-missing text."""
    token = cell.strip()
    if token.lower() in _NA_TOKENS:
        return None, True
    value = float(token)  # ValueError propagates for genuinely bad cells
    if not np.isfinite(value):
        return None, True
    return value, False


def read_csv_column(spec: CsvSpec) -> TimeSeries:
    """Load the selected column, applying the missing-value policy.

    drop         : missing rows are skipped
    forward_fill : interior gaps repeat the previous value; leading gaps
                   (nothing to fill from) are dropped
    error        : any gap raises
    """
    with open(spec.path, newline="") as fh:
        rows = list(csv.reader(fh))

    col_idx: int
    if isinstance(spec.column, str):
        if not rows:
            raise ValueError("empty file, cannot resolve header")
        header = [h.strip() for h in rows[0]]
        if spec.column not in header:
            raise ValueError(f"column {spec.column!r} not found in header {header}")
        col_idx = header.index(spec.column)
        rows = rows[1:]
    else:
        col_idx = spec.column - 1
        if spec.skip_header:
            rows = rows[1:]

    # trailing empty rows are file artifacts; interior ones are data gaps
    while rows and (not rows[-1] or all(not c.strip() for c in rows[-1])):
        rows.pop()

    values: list[float] = []
    for row_no, row in enumerate(rows):
        cell = row[col_idx] if col_idx < len(row) else ""
        try:
            value, missing = _parse_cell(cell)
        except ValueError as exc:
            raise ValueError(f"unparseable value {cell!r} at data row {row_no + 1}") from exc
        if missing:
            if spec.missing_policy == "error":
                raise ValueError(f"missing value at data row {row_no + 1}")
            if spec.missing_policy == "forward_fill" and values:
                values.append(values[-1])
            continue  # drop, or leading gap under forward_fill
        values.append(value)

    if not values:
        raise ValueError(f"no usable rows in {spec.path}")
    return TimeSeries(values=np.array(values))


def write_csv(series: TimeSeries, path: str | Path, value_header: str = "value") -> None:
    """Write index/value rows at full precision; read back with read_csv_column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", value_header])
        for i, v in enumerate(series.values):
            writer.writerow([i, repr(float(v))])
