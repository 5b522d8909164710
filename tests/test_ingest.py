import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@st.composite
def _csv_case(draw):
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
        return [draw(_value_cell) if i == col - 1 else draw(_other_cell) for i in range(n)]

    rows = [data_row() for _ in range(draw(st.integers(0, 12)))]
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
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
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
    @given(case=_csv_case())
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_values_or_same_error(self, tmp_path, case):
        text, spec_kw = case
        path = tmp_path / "case.csv"
        path.write_bytes(text.encode("ascii"))
        spec = CsvSpec(path=path, **spec_kw)
        assert _outcome(read_csv_column, spec) == _outcome(_oracle_read_csv_column, spec)


class TestWriteCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        ts = TimeSeries(values=rng.normal(scale=123.456, size=50))
        path = tmp_path / "series.csv"
        write_csv(ts, path)
        back = read_csv_column(CsvSpec(path=path, column="value"))
        assert np.array_equal(back.values, ts.values)


class TestCsvSpec:
    def test_zero_column_rejected(self):
        with pytest.raises(ValueError):
            CsvSpec(path="x", column=0)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            CsvSpec(path="x", missing_policy="interpolate")
