"""CSV ingestion for daily-climate and OHLC equity files.

One numeric column is pulled out of an RFC-4180-style CSV into a
:class:`TimeSeries`. Ordering is taken from row order; dates are never
parsed. Missing cells (blank, NA-like tokens, or non-finite numbers) are
handled by the configured policy. :func:`csv_text` is the one writer of
every CSV table sigcast produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import csv
import io
import math
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


def read_csv_column(spec: CsvSpec) -> TimeSeries:
    """Load the selected column, applying the missing-value policy.

    drop         : missing rows are skipped
    forward_fill : interior gaps repeat the previous value; leading gaps
                   (nothing to fill from) are dropped
    error        : any gap raises

    The file is read as UTF-8; a leading byte-order mark is ignored.
    Malformed CSV raises ValueError naming the line.
    """
    values: list[float] = []
    with open(spec.path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            if isinstance(spec.column, str):
                header = next(reader, None)
                if header is None:
                    raise ValueError("empty file, cannot resolve header")
                header = [h.strip() for h in header]
                if spec.column not in header:
                    raise ValueError(f"column {spec.column!r} not found in header {header}")
                col_idx = header.index(spec.column)
            else:
                col_idx = spec.column - 1
                if spec.skip_header:
                    next(reader, None)

            # Rows blank in every cell are held back until a non-blank row
            # follows: trailing ones are file artifacts, interior ones gaps.
            held = 0
            for row_no, row in enumerate(reader, 1):
                cell = row[col_idx] if col_idx < len(row) else ""
                token = cell.strip()
                if not token and not any(c.strip() for c in row):
                    held += 1
                    continue
                if held:
                    if spec.missing_policy == "error":
                        raise ValueError(f"missing value at data row {row_no - held}")
                    if spec.missing_policy == "forward_fill" and values:
                        values.extend([values[-1]] * held)
                    held = 0
                try:
                    value = float(token)  # "nan" and "inf" parse, and count as missing
                except ValueError as exc:
                    if token.lower() not in _NA_TOKENS:
                        msg = f"unparseable value {cell!r} at data row {row_no}"
                        raise ValueError(msg) from exc
                    value = math.nan
                if math.isfinite(value):
                    values.append(value)
                elif spec.missing_policy == "error":
                    raise ValueError(f"missing value at data row {row_no}")
                elif spec.missing_policy == "forward_fill" and values:
                    values.append(values[-1])
                # else drop, or leading gap under forward_fill
        except csv.Error as exc:
            raise ValueError(f"malformed CSV at line {reader.line_num}: {exc}") from exc

    if not values:
        raise ValueError(f"no usable rows in {spec.path}")
    return TimeSeries(values=np.array(values))


def csv_text(header, rows) -> str:
    """Every CSV table sigcast writes, as text.

    Python floats become their shortest round-trip repr, None an empty
    cell, and lines end in "\\n". Pass Python scalars (``.tolist()``), not
    numpy ones, so the repr is Python's.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_csv(series: TimeSeries, path: str | Path) -> None:
    """Write index/value rows at full precision; read back with read_csv_column."""
    text = csv_text(["index", "value"], enumerate(series.values.tolist()))
    Path(path).write_text(text, newline="")
