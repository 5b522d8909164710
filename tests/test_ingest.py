import csv
import io
import os
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sigcast.ingest
from sigcast.ingest import MISSING_POLICIES, CsvSpec, read_csv_column, write_csv
from sigcast.series import TimeSeries


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadCsvColumn:
    def test_plain_column(self, tmp_path):
        path = write(tmp_path, "1.5\n2.5\n3.5\n")
        ts = read_csv_column(CsvSpec(path=path))
        assert ts.values.tolist() == [1.5, 2.5, 3.5]

    def test_column_by_index(self, tmp_path):
        path = write(tmp_path, "a,10,x\nb,20,y\n")
        ts = read_csv_column(CsvSpec(path=path, column=2))
        assert ts.values.tolist() == [10.0, 20.0]

    def test_column_by_header_name(self, tmp_path):
        path = write(tmp_path, "date,tmax\n2017-01-01,31.5\n2017-01-02,33.0\n")
        ts = read_csv_column(CsvSpec(path=path, column="tmax"))
        assert ts.values.tolist() == [31.5, 33.0]

    def test_skip_header_with_index(self, tmp_path):
        path = write(tmp_path, "value\n5.0\n6.0\n")
        ts = read_csv_column(CsvSpec(path=path, column=1, skip_header=True))
        assert ts.values.tolist() == [5.0, 6.0]

    def test_forward_fill_interior_gap(self, tmp_path):
        path = write(tmp_path, "10\n\n12\n")
        ts = read_csv_column(CsvSpec(path=path, missing_policy="forward_fill"))
        assert ts.values.tolist() == [10.0, 10.0, 12.0]

    def test_forward_fill_drops_leading_gap(self, tmp_path):
        path = write(tmp_path, ",\n7\n,\n9\n")
        ts = read_csv_column(CsvSpec(path=path, missing_policy="forward_fill"))
        assert ts.values.tolist() == [7.0, 7.0, 9.0]

    def test_drop_policy(self, tmp_path):
        path = write(tmp_path, "1\nNA\n3\n")
        ts = read_csv_column(CsvSpec(path=path, missing_policy="drop"))
        assert ts.values.tolist() == [1.0, 3.0]

    def test_error_policy(self, tmp_path):
        path = write(tmp_path, "1\n\n3\n")
        with pytest.raises(ValueError, match="missing value"):
            read_csv_column(CsvSpec(path=path, missing_policy="error"))

    def test_short_row_counts_as_missing(self, tmp_path):
        path = write(tmp_path, "a,1\nb\nc,3\n")
        ts = read_csv_column(CsvSpec(path=path, column=2))
        assert ts.values.tolist() == [1.0, 3.0]

    def test_nonfinite_token_is_missing(self, tmp_path):
        path = write(tmp_path, "1\ninf\nnan\n4\n")
        ts = read_csv_column(CsvSpec(path=path))
        assert ts.values.tolist() == [1.0, 4.0]
        assert np.all(np.isfinite(ts.values))

    def test_unparseable_cell_raises(self, tmp_path):
        path = write(tmp_path, "1\nbogus\n")
        with pytest.raises(ValueError, match="unparseable"):
            read_csv_column(CsvSpec(path=path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv_column(CsvSpec(path=tmp_path / "absent.csv"))

    def test_unresolvable_header(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ValueError, match="not found"):
            read_csv_column(CsvSpec(path=path, column="c"))

    def test_zero_usable_rows(self, tmp_path):
        path = write(tmp_path, "\n\n")
        with pytest.raises(ValueError, match="no usable rows"):
            read_csv_column(CsvSpec(path=path))

    def test_drop_never_longer_than_row_count(self, tmp_path):
        path = write(tmp_path, "1\nNA\n3\nNA\n")
        ts = read_csv_column(CsvSpec(path=path, missing_policy="drop"))
        assert len(ts) <= 4

    def test_bom_style_file(self, tmp_path):
        # daily-climate layout: station metadata columns then the value column
        rows = ["IDCJAC0010,9225,2017,1,1,31.1,1,Y", "IDCJAC0010,9225,2017,1,2,,1,N",
                "IDCJAC0010,9225,2017,1,3,28.6,1,Y"]
        path = write(tmp_path, "\n".join(rows) + "\n")
        ts = read_csv_column(CsvSpec(path=path, column=6, missing_policy="forward_fill"))
        assert ts.values.tolist() == [31.1, 31.1, 28.6]

    def test_byte_order_mark_on_first_data_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\ufeff1.5\n2.5\n", encoding="utf-8")
        assert read_csv_column(CsvSpec(path=path)).values.tolist() == [1.5, 2.5]

    def test_oversized_field_names_line(self, tmp_path):
        path = write(tmp_path, "1\n2\n" + "9" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(ValueError, match="malformed CSV at line 3"):
            read_csv_column(CsvSpec(path=path))


# --- equivalence with the two-pass reader ------------------------------------

_ORACLE_NA_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


def _oracle_parse_cell(cell):
    token = cell.strip()
    if token.lower() in _ORACLE_NA_TOKENS:
        return None, True
    value = float(token)
    if not np.isfinite(value):
        return None, True
    return value, False


def _oracle_read_csv_column(spec):
    """The two-pass reader: whole file into memory, trim, then parse.

    Reference for the streaming reader. It decodes with the locale's
    encoding and has no byte-order-mark or malformed-CSV handling, so the
    generated cases are short ASCII fields.
    """
    with open(spec.path, newline="") as fh:
        rows = list(csv.reader(fh))

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

    while rows and (not rows[-1] or all(not c.strip() for c in rows[-1])):
        rows.pop()

    values = []
    for row_no, row in enumerate(rows):
        cell = row[col_idx] if col_idx < len(row) else ""
        try:
            value, missing = _oracle_parse_cell(cell)
        except ValueError as exc:
            raise ValueError(f"unparseable value {cell!r} at data row {row_no + 1}") from exc
        if missing:
            if spec.missing_policy == "error":
                raise ValueError(f"missing value at data row {row_no + 1}")
            if spec.missing_policy == "forward_fill" and values:
                values.append(values[-1])
            continue
        values.append(value)

    if not values:
        raise ValueError(f"no usable rows in {spec.path}")
    return TimeSeries(values=np.array(values))


_pad = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _padded(draw, token):
    return draw(_pad) + token + draw(_pad)


@st.composite
def _mixed_case(draw, token):
    flips = draw(st.lists(st.booleans(), min_size=len(token), max_size=len(token)))
    return "".join(c.upper() if f else c for c, f in zip(token, flips))


_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_na = st.sampled_from(["", "na", "n/a", "nan", "null", "none"]).flatmap(_mixed_case)
_nonfinite = st.sampled_from(["inf", "-inf", "+inf", "nan", "-nan", "Infinity", "1e999", "-1e999"])
_garbage = st.sampled_from(["bogus", "1,5", "1\n2", "1.2.3", "--1", "na,na", "\"q\""])
# weighted so that most generated files parse
_value_cell = st.one_of(*[_number] * 6, _na, _na, _nonfinite, _garbage).flatmap(_padded)
_other_cell = st.one_of(
    st.sampled_from(["", " ", "x", "a,b", "line\nbreak", "say \"hi\"", "\r\n"]),
    st.text(alphabet="abc ,\n\"", max_size=5),
)

_clean_value_cell = st.one_of(*[_number] * 6, _na, _nonfinite).flatmap(_padded)
_clean_other_cell = st.sampled_from(["", " ", "x", "a b"])


@st.composite
def _csv_case(draw, max_rows=12, value_cell=_value_cell, other_cell=_other_cell):
    """A CSV text and a spec selecting one of its columns."""
    width = draw(st.integers(1, 4))
    col = draw(st.integers(1, width))

    def data_row():
        kind = draw(st.sampled_from(["full", "full", "full", "short", "blank", "spaces"]))
        if kind == "blank":
            return []
        if kind == "spaces":
            return draw(st.lists(st.sampled_from([" ", "\t", "  "]), min_size=1, max_size=3))
        n = width if kind == "full" else draw(st.integers(1, max(1, col - 1)))
        return [draw(value_cell) if i == col - 1 else draw(other_cell) for i in range(n)]

    rows = [data_row() for _ in range(draw(st.integers(0, max_rows)))]
    mode = draw(st.sampled_from(["name", "index", "index_skip_header"]))
    if mode == "name":
        names = [f"c{i}" for i in range(width)]
        header = [draw(_padded(name)) for name in names]
        rows.insert(0, header)
        column = names[col - 1] if draw(st.integers(0, 9)) else "absent"
        if draw(st.integers(0, 4)) == 0:
            rows.pop(0)  # the header row may be missing, or the file empty
        spec_kw = dict(column=column)
    else:
        if mode == "index_skip_header":
            rows.insert(0, [f"c{i}" for i in range(width)])
        spec_kw = dict(column=col, skip_header=mode == "index_skip_header")
    spec_kw["missing_policy"] = draw(st.sampled_from(MISSING_POLICIES))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
    writer.writerows(rows)
    text = buf.getvalue()
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last row
    return text, spec_kw


def _outcome(read, spec):
    try:
        return read(spec).values.tobytes(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


class TestStreamingMatchesTwoPassReader:
    # the clean longer files are ones both reads accept far more often
    @given(case=st.one_of(_csv_case(), _csv_case(40, _clean_value_cell, _clean_other_cell)))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_values_or_same_error(self, tmp_path, case):
        text, spec_kw = case
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("ascii"))
        spec = CsvSpec(path=path, **spec_kw)
        assert _outcome(read_csv_column, spec) == _outcome(_oracle_read_csv_column, spec)


_TEMPERATURES = tuple(f"{20 + i % 9}.{i % 10}" for i in range(3000))


def _climate_csv(tmp_path, cells):
    """A daily-climate file of about 37 bytes a row, its 6th column `cells`;
    a None cell is a blank line."""
    lines = ["Product code,Station,Year,Month,Day,Maximum temperature,Days,Quality"]
    lines += ["" if cell is None else f"IDCJAC0010,086071,{1917 + i // 365},{1 + i % 12},"
              f"{1 + i % 28},{cell},1,Y" for i, cell in enumerate(cells)]
    return write(tmp_path, "\n".join(lines) + "\n")


def _count_parsed_rows(monkeypatch):
    """The number of rows of each _policy_values call from now on."""
    counts = []
    policy_values = sigcast.ingest._policy_values

    def counting(rows, *args):
        rows = list(rows)
        counts.append(len(rows))
        return policy_values(rows, *args)

    monkeypatch.setattr(sigcast.ingest, "_policy_values", counting)
    return counts


class TestTailRead:
    """read_csv_column(spec, last) against the full forward read."""

    # longer files with no garbage and no quotes take the backward read more often
    @given(case=st.one_of(_csv_case(), _csv_case(40, _clean_value_cell, _clean_other_cell)),
           block=st.integers(1, 40), last=st.integers(1, 6))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_tail_or_same_error(self, tmp_path, case, block, last):
        text, spec_kw = case
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("ascii"))
        spec = CsvSpec(path=path, **spec_kw)
        full_values, full_error = _outcome(read_csv_column, spec)
        with mock.patch.object(sigcast.ingest, "_TAIL_BLOCK", block):
            tail_values, tail_error = _outcome(lambda s: read_csv_column(s, last), spec)
        if tail_error is not None:
            assert tail_error == full_error
        elif full_error is None:
            n = len(full_values) // 8
            assert tail_values == full_values[-8 * min(last, n):]
        # else: the full read fails on a row the tail read does not reach

    def test_bad_row_before_the_tail_is_not_read(self, tmp_path, monkeypatch):
        path = write(tmp_path, "bogus\n" + "".join(f"{i}.5\n" for i in range(100)))
        spec = CsvSpec(path=path)
        with pytest.raises(ValueError, match="unparseable value 'bogus' at data row 1"):
            read_csv_column(spec)
        monkeypatch.setattr(sigcast.ingest, "_TAIL_BLOCK", 64)
        assert read_csv_column(spec, 3).values.tolist() == [97.5, 98.5, 99.5]

    def test_bad_cell_100_rows_from_the_end_is_not_read(self, tmp_path):
        # the default block holds about 220 climate rows; only the last 92 are parsed
        cells = _TEMPERATURES[:2900] + ("bogus",) + _TEMPERATURES[2901:]
        spec = CsvSpec(path=_climate_csv(tmp_path, cells), column=6, skip_header=True)
        with pytest.raises(ValueError, match="unparseable value 'bogus' at data row 2901"):
            read_csv_column(spec)
        assert read_csv_column(spec, 91).values.tolist() == list(map(float, cells[-91:]))

    def test_parses_only_the_last_lines_it_needs(self, tmp_path, monkeypatch):
        spec = CsvSpec(path=_climate_csv(tmp_path, _TEMPERATURES), column=6, skip_header=True,
                       missing_policy="forward_fill")
        rows = _count_parsed_rows(monkeypatch)
        assert read_csv_column(spec, 91).values.tolist() == list(map(float, _TEMPERATURES[-91:]))
        assert sum(rows) <= 92

    @pytest.mark.parametrize("policy, gap, lines", [
        # NA cells are dropped wherever they are; blank rows are dropped at
        # the start of the lines parsed, and at the end of the file
        ("drop", "NA", [-90, -60, -2]),
        ("forward_fill", None, [-92, -91]),
        ("forward_fill", None, [-3, -2, -1]),
    ], ids=["drop-na", "forward_fill-leading-blank", "forward_fill-trailing-blank"])
    def test_gaps_in_the_last_lines_parse_the_whole_block(self, tmp_path, monkeypatch,
                                                          policy, gap, lines):
        cells = list(_TEMPERATURES)
        for line in lines:
            cells[line] = gap
        spec = CsvSpec(path=_climate_csv(tmp_path, cells), column=6, skip_header=True,
                       missing_policy=policy)
        full = read_csv_column(spec).values.tolist()
        rows = _count_parsed_rows(monkeypatch)
        assert read_csv_column(spec, 91).values.tolist() == full[-91:]
        # the last 92 lines, then the block's (about 220), not the file's
        assert rows[0] == 92 and 150 < rows[1] < 300 and len(rows) == 2

    @pytest.mark.parametrize("column, skip_header, opens", [
        (6, True, 1), ("Maximum temperature", False, 2)], ids=["index", "name"])
    def test_an_index_column_opens_the_file_once(self, tmp_path, monkeypatch,
                                                 column, skip_header, opens):
        # the tail read never reaches the header, so only a name needs the text reader
        spec = CsvSpec(path=_climate_csv(tmp_path, _TEMPERATURES), column=column,
                       skip_header=skip_header)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return open(*args, **kwargs)

        monkeypatch.setattr(sigcast.ingest, "open", counting, raising=False)
        assert read_csv_column(spec, 91).values.tolist() == list(map(float, _TEMPERATURES[-91:]))
        assert len(calls) == opens

    def test_skipped_header_is_not_read(self, tmp_path):
        # like any row before the lines parsed: bytes that are not UTF-8 in a
        # skipped header go unreported, with or without skip_header
        path = tmp_path / "data.csv"
        path.write_bytes(b"v\xff\n" + b"".join(b"%d.5\n" % i for i in range(3000)))
        for skip_header in (True, False):
            spec = CsvSpec(path=path, skip_header=skip_header)
            assert read_csv_column(spec, 2).values.tolist() == [2998.5, 2999.5]

    @pytest.mark.parametrize("policy", ["drop", "forward_fill"])
    def test_every_block_size_and_last(self, tmp_path, monkeypatch, policy):
        # a block's first line is cut short wherever the block starts
        path = write(tmp_path, "v,w\n12.5,x\n,\n-3e-05,yy\nNA,\n 7 ,z\n100.25,w\n\n8,\n\n")
        spec = CsvSpec(path=path, column="v", missing_policy=policy)
        full = read_csv_column(spec).values.tolist()
        for block in range(1, 60):
            monkeypatch.setattr(sigcast.ingest, "_TAIL_BLOCK", block)
            for last in range(1, len(full) + 2):
                assert read_csv_column(spec, last).values.tolist() == full[-last:]

    def test_quoted_field_spanning_lines(self, tmp_path, monkeypatch):
        # from its second line on, the quoted note reads as a row whose value is 7
        path = write(tmp_path, 'v,note\n1,a\n2,"z\n7,"\n3,b\n')
        spec = CsvSpec(path=path, column="v")
        assert read_csv_column(spec).values.tolist() == [1.0, 2.0, 3.0]
        for block in range(1, 30):
            monkeypatch.setattr(sigcast.ingest, "_TAIL_BLOCK", block)
            assert read_csv_column(spec, 1).values.tolist() == [3.0]
            assert read_csv_column(spec, 2).values.tolist() == [2.0, 3.0]

    def test_fewer_values_than_last_returns_all(self, tmp_path):
        path = write(tmp_path, "1\n2\n3\n")
        assert read_csv_column(CsvSpec(path=path), 5).values.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("last", [0, -2])
    def test_last_must_be_positive(self, tmp_path, last):
        path = write(tmp_path, "1\n2\n")
        with pytest.raises(ValueError, match="last must be >= 1"):
            read_csv_column(CsvSpec(path=path), last)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_is_read_forwards(self, tmp_path, monkeypatch):
        # a second open of a pipe whose writer has closed would wait forever
        monkeypatch.setattr(sigcast.ingest, "_TAIL_BLOCK", 4)
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("1\n2\n3\n4\n",), daemon=True)
        result = {}
        reader = threading.Thread(
            target=lambda: result.update(ts=read_csv_column(CsvSpec(path=path), 2)), daemon=True)
        writer.start()
        reader.start()
        writer.join(timeout=10)
        reader.join(timeout=10)
        assert not writer.is_alive() and not reader.is_alive()
        assert result["ts"].values.tolist() == [3.0, 4.0]


class TestWriteCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        ts = TimeSeries(values=rng.normal(scale=123.456, size=50))
        path = tmp_path / "series.csv"
        write_csv(ts, path)
        back = read_csv_column(CsvSpec(path=path, column="value"))
        assert np.array_equal(back.values, ts.values)


class TestWriteAtomic:
    def test_interleaved_writers_of_one_path(self, tmp_path, monkeypatch):
        # a second writer of the path runs between the first one's write and
        # its replace; with one shared temporary name the first replace would
        # find its file moved away
        path = tmp_path / "forecast_params.json"
        replace = os.replace

        def interleaved(src, dst):
            monkeypatch.setattr(os, "replace", replace)
            sigcast.ingest.write_atomic(path, "inner\n")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved)
        sigcast.ingest.write_atomic(path, "outer\n")
        assert path.read_text() == "outer\n"
        assert not list(tmp_path.glob("*.tmp"))


class TestCsvSpec:
    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            CsvSpec(path="x", column=0)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            CsvSpec(path="x", missing_policy="interpolate")
