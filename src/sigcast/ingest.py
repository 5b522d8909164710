"""CSV ingestion for daily-climate and OHLC equity files.

One numeric column is pulled out of an RFC-4180-style CSV into a
:class:`TimeSeries`. Ordering is taken from row order; dates are never
parsed. Missing cells (blank, NA-like tokens, or non-finite numbers) are
handled by the configured policy. A read of only the last values starts
at the end of the file: it parses a block's last ``last + 1`` lines, then,
if they give too few values, the whole block, then a block four times
larger, so rows before the lines it parses go unread.

:func:`csv_text` is the one writer of every CSV table sigcast produces: it
takes the table column by column and joins it directly when every cell is
a string the writer would not quote, in a table of two columns or more.
:func:`float_cells` formats a column of floats for it, and
:func:`write_atomic` writes every output file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import contextlib
import csv
import io
import itertools
import math
import os
import numpy as np

from .series import TimeSeries, check_count

__all__ = ["CsvSpec", "read_csv_column", "write_csv"]

MISSING_POLICIES = ("drop", "forward_fill", "error")

_NA_TOKENS = {"", "na", "n/a", "nan", "null", "none"}

# bytes of the first block _tail_values reads: more than 91 rows of daily
# climate data (about 37 B a row) or of OHLC prices (about 70 B a row)
_TAIL_BLOCK = 8 * 1024

# numbers write_atomic's temporary files; next() on a count is atomic under the GIL
_WRITE_IDS = itertools.count()


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
        if not isinstance(self.column, str):
            check_count("column", self.column)
        if self.missing_policy not in MISSING_POLICIES:
            raise ValueError(
                f"missing_policy must be one of {MISSING_POLICIES}, got {self.missing_policy!r}"
            )


def read_csv_column(spec: CsvSpec, last: int | None = None) -> TimeSeries:
    """Load the selected column, applying the missing-value policy.

    drop         : missing rows are skipped
    forward_fill : interior gaps repeat the previous value; leading gaps
                   (nothing to fill from) are dropped
    error        : any gap raises

    The file is read as UTF-8; a leading byte-order mark is ignored.
    Malformed CSV raises ValueError naming the line.

    With ``last``, only the final ``last`` values are returned (all of them
    if fewer), read from the end of the file when :func:`_tail_values` can
    be sure of them: a bad cell or ``error`` gap in a row it does not read
    then goes unreported.
    """
    if last is not None:
        check_count("last", last)
    values = None
    if last and not isinstance(spec.column, str):
        # an index column needs no header: the text reader opens only if
        # the tail read is unsure
        values = _tail_values(spec, spec.column - 1, last)
    if not values:
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
                    values = _tail_values(spec, col_idx, last) if last else None
                else:
                    col_idx = spec.column - 1
                    if spec.skip_header:
                        next(reader, None)
                if not values:
                    values = _policy_values(reader, col_idx, spec.missing_policy)
            except csv.Error as exc:
                raise ValueError(f"malformed CSV at line {reader.line_num}: {exc}") from exc

    if not values:
        raise ValueError(f"no usable rows in {spec.path}")
    return TimeSeries(values=np.array(values[-last:] if last else values))


def _policy_values(rows, col_idx: int, policy: str) -> list[float]:
    """The column's values from data rows, numbered from 1, under `policy`."""
    values: list[float] = []
    # Rows blank in every cell are held back until a non-blank row
    # follows: trailing ones are file artifacts, interior ones gaps.
    held = 0
    for row_no, row in enumerate(rows, 1):
        cell = row[col_idx] if col_idx < len(row) else ""
        token = cell.strip()
        if not token and not any(c.strip() for c in row):
            held += 1
            continue
        if held:
            if policy == "error":
                raise ValueError(f"missing value at data row {row_no - held}")
            if policy == "forward_fill" and values:
                values.extend([values[-1]] * held)
            held = 0
        try:
            value = float(token)  # "nan" and "inf" parse, and count as missing
        except ValueError as exc:
            if token.lower() not in _NA_TOKENS:
                raise ValueError(f"unparseable value {cell!r} at data row {row_no}") from exc
            value = math.nan
        if math.isfinite(value):
            values.append(value)
        elif policy == "error":
            raise ValueError(f"missing value at data row {row_no}")
        elif policy == "forward_fill" and values:
            values.append(values[-1])
        # else drop, or leading gap under forward_fill
    return values


def _tail_values(spec: CsvSpec, col_idx: int, last: int) -> list[float] | None:
    """At least `last` of the column's final values, or None when unsure.

    The rows after any line break of a block at the end of the file end in
    the full read's values: a gap at their start has nothing to fill from
    and is dropped. So the block's last ``last + 1`` lines are parsed
    first; only if they give fewer than ``last`` values is every line after
    its first line break parsed, and then a block four times larger. Rows
    before the lines parsed go unread. None, for a forward read, on a quote
    (a field may span lines), a bare CR (no LF to start after), bytes that
    are not UTF-8, malformed CSV, or a row the policy refuses, anywhere in
    the lines parsed, or a block reaching byte 0. The quote, CR and UTF-8
    checks cover the whole block.
    """
    if not os.path.isfile(spec.path):
        return None  # a pipe has no end to read from, and a second open may block
    with open(spec.path, "rb") as fh:
        end = fh.seek(0, io.SEEK_END)
        size = _TAIL_BLOCK
        parsed = 0  # how many of the file's last lines were parsed; no more, no more values
        while size < end:
            fh.seek(end - size)
            block = fh.read(size)
            if b'"' in block or block.count(b"\r") != block.count(b"\r\n"):
                return None
            cut = block.find(b"\n") + 1
            if cut:
                try:
                    # without quotes or a bare CR, each piece is one row's line
                    lines = block[cut:].decode("utf-8").split("\n")
                    if not lines[-1]:
                        lines.pop()  # what follows the last line break
                    for n in (last + 1, len(lines)):
                        if parsed < n <= len(lines):
                            parsed = n
                            values = _policy_values(csv.reader(lines[-n:]), col_idx,
                                                    spec.missing_policy)
                            if len(values) >= last:
                                return values
                except (ValueError, csv.Error):
                    return None
            size *= 4
    return None


def csv_text(header, columns) -> str:
    """Every CSV table sigcast writes, as text, from its header and columns.

    Each column is a sequence with one cell per row, and there is one
    column per header cell; anything else raises ValueError. Python floats
    become their shortest round-trip repr, None an empty cell, and lines
    end in "\\n". String cells, such as those of :func:`float_cells`, are
    written as they are (quoted only if they hold a comma, a quote or a
    line break). Pass Python scalars (``.tolist()``), not numpy ones, so
    the repr is Python's.

    A table of at least two columns whose cells, header included, are all
    strings without a comma, quote or line break is joined directly; any
    other table goes through ``csv.writer``. Both give the same bytes.
    """
    lengths = {len(column) for column in columns}
    if len(header) != len(columns) or len(lengths) > 1:
        raise ValueError(f"a CSV table needs one column per header cell, all of one length; "
                         f"got {len(header)} header cells and column lengths {sorted(lengths)}")
    if len(columns) > 1:
        try:
            cells = "".join(map("".join, (header, *columns)))
        except TypeError:  # a cell that is not a string
            pass
        else:
            # none of the characters the writer would quote a cell for
            if not any(c in cells for c in ',"\r\n'):
                return "\n".join([",".join(header), *map(",".join, zip(*columns)), ""])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *zip(*columns)])
    return buf.getvalue()


def float_cells(values: np.ndarray) -> list[str]:
    """The cells of a 1-D float array: each value's repr, "" where not finite."""
    values = np.asarray(values, dtype=np.float64)
    return [repr(v) if math.isfinite(v) else "" for v in values.tolist()]


def write_csv(series: TimeSeries, path: str | Path) -> None:
    """Write index/value rows at full precision; read back with read_csv_column."""
    write_atomic(Path(path), csv_text(["index", "value"],
                                      (range(len(series)), series.values.tolist())))


def write_atomic(path: Path, text: str) -> None:
    """The one file writer: replace path's contents so an interrupted write
    leaves the old file, and a failed one no temporary file.

    Each call writes its own temporary file beside `path` (process id and
    count), so concurrent writers of one path never move each other's.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{next(_WRITE_IDS)}.tmp")
    try:
        # newline="" keeps "\n" line ends on every platform
        tmp.write_text(text, newline="")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # never written, or not a file
            tmp.unlink()
        raise
