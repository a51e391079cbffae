import math
from itertools import chain, repeat

import numpy as np
import pytest

from lportho._serialize import (
    CHUNK,
    check_finite,
    dumps_json,
    format_float,
    json_writer,
    read_numbers,
    table_writer,
    write_rows,
)


def format_rows(row, *columns, sep=""):
    """The one-shot table formatter that write_rows replaces, the reference:
    one % template over the whole table, after the finiteness test of
    format_float on every value of a column whose sum is not finite."""
    for column in columns:
        if not math.isfinite(sum(column)):
            for v in column:
                format_float(v)
    values = tuple(columns[0]) if len(columns) == 1 else tuple(chain.from_iterable(zip(*columns)))
    return sep.join(repeat(row, len(columns[0]))) % values


def streamed(row, *columns, sep=""):
    """write_rows' output and the list of texts it passed to write."""
    parts = []
    write_rows(parts.append, row, *columns, sep=sep)
    return "".join(parts), parts


def lines(text):
    """text as its lines, ends kept: equal exactly when the texts are, and a
    failing comparison of long texts is quick to explain."""
    return text.splitlines(keepends=True)


def per_value(obj):
    """The same document with every float as np.float64, which the emitter
    formats one value at a time with format_float."""
    if isinstance(obj, dict):
        return {k: per_value(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(per_value(v) for v in obj)
    if type(obj) is float:
        return np.float64(obj)
    return obj


RNG = np.random.default_rng(11)
DOCS = [
    RNG.standard_normal(1000).tolist(),
    tuple((RNG.standard_normal(17) * 1e-300).tolist()),
    [0.1, -0.0, 5e-324, 1.7976931348623157e308, 1e308, 1e308, 2.0],
    {"components": [RNG.standard_normal(5).tolist(), [0.5]], "trend": (1.25, 3.0), "meta": {"x": [[2.5]]}},
    [1.0, 2, 3.5],
    [np.float64(0.3), 0.7],
    [True, 1.5],
    [],
]


@pytest.mark.parametrize("doc", DOCS, ids=range(len(DOCS)))
def test_float_lists_emit_the_per_value_bytes(doc):
    assert dumps_json(doc) == dumps_json(per_value(doc))


def test_float_list_layout():
    assert dumps_json({"a": [1.5, 0.1], "b": (2.0,)}) == (
        '{\n  "a": [\n    1.5,\n    0.10000000000000001\n  ],\n  "b": [\n    2\n  ]\n}\n'
    )


EDGE_VALUES = [
    -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e16, 1e17,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22, 0.1,
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_in_list_raises(bad):
    with pytest.raises(ValueError):
        dumps_json([1.0, bad, 2.0])
    with pytest.raises(ValueError):
        dumps_json((bad,))
    with pytest.raises(ValueError) as per_value_error:
        format_float(bad)
    for columns in ([np.array([0.5, bad])], [range(2), np.array([0.5, 0.5]), np.array([bad, 1.0])]):
        with pytest.raises(ValueError) as table_error:
            table_writer("", ",".join(["%.17g"] * len(columns)), *columns)
        assert str(table_error.value) == str(per_value_error.value)
    for doc in (np.array([1.0, bad, 2.0]), {"a": [np.zeros(3), np.array([bad])]}):
        with pytest.raises(ValueError) as json_error:
            json_writer(doc)
        assert str(json_error.value) == str(per_value_error.value)
    with pytest.raises(ValueError) as check_error:
        check_finite(np.zeros(2 * CHUNK), np.r_[np.zeros(CHUNK + 1), bad, np.nan])
    assert str(check_error.value) == str(per_value_error.value)


def test_writers_check_before_they_write():
    """A Writer is only returned once its values are checked: a caller that
    builds it before opening a file never leaves a partial file."""
    written = []
    with pytest.raises(ValueError):
        json_writer({"ok": np.ones(CHUNK + 1), "bad": np.r_[np.ones(3), np.inf]})(written.append)
    with pytest.raises(ValueError):
        table_writer("head\n", "%.17g\n", np.r_[np.ones(2 * CHUNK), np.nan])(written.append)
    assert written == []


def test_write_rows_matches_format_float():
    values = RNG.standard_normal(300).tolist() + [1e308, 1e308, -1e308, 5e-324] + EDGE_VALUES
    text, _ = streamed("%.17g", np.array(values), sep=",\n  ")
    assert text == ",\n  ".join(format_float(v) for v in values)


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_write_rows_edge_values(x):
    assert streamed("%.17g", np.array([x]))[0] == format_float(x)
    assert streamed("%d,%.17g,%.17g\n", range(2), np.array([x, -x]), np.array([1.0, x]))[0] == (
        f"0,{format_float(x)},{format_float(1.0)}\n1,{format_float(-x)},{format_float(x)}\n"
    )


SEAM_ROWS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]
SEAM_LAYOUTS = {
    "one_column": ("%.17g\n", 1, ""),
    "three_columns": ("%d,%.17g,%.17g\n", 3, ""),
    "json_separator": ("%.17g", 1, ",\n    "),
}


@pytest.mark.parametrize("layout", SEAM_LAYOUTS.values(), ids=SEAM_LAYOUTS.keys())
@pytest.mark.parametrize("rows", SEAM_ROWS)
def test_write_rows_at_chunk_seams(rows, layout):
    row, width, sep = layout
    floats = [RNG.standard_normal(rows) * 10.0 ** RNG.integers(-300, 300, rows) for _ in range(width - 1 or 1)]
    columns = [range(rows)] + floats if width == 3 else floats
    text, parts = streamed(row, *columns, sep=sep)
    want = format_rows(row, *[c if isinstance(c, range) else c.tolist() for c in columns], sep=sep)
    assert lines(text) == lines(want)
    chunks = parts[::2] if sep else parts
    assert len(chunks) == -(-rows // CHUNK)
    assert all(chunk.count("\n" if not sep else sep) <= CHUNK for chunk in chunks)
    if sep:
        assert parts[1::2] == [sep] * (len(chunks) - 1)


@pytest.mark.parametrize("rows", [0, 1] + SEAM_ROWS[1:])
def test_json_array_is_the_float_list(rows):
    values = RNG.standard_normal(rows)
    doc = {"trend": values, "components": [values[: rows // 2], np.zeros(1)], "meta": {"k": 1}}
    want = {"trend": values.tolist(), "components": [values[: rows // 2].tolist(), [0.0]], "meta": {"k": 1}}
    assert lines(dumps_json(doc)) == lines(dumps_json(want))
    parts = []
    json_writer(values)(parts.append)
    assert lines("".join(parts)) == lines(dumps_json(values.tolist()))


@pytest.mark.parametrize(
    "array", [np.arange(3), np.zeros((2, 2)), np.zeros(3, dtype=np.float32)], ids=["int", "2d", "float32"]
)
def test_json_array_must_be_1d_float64(array):
    with pytest.raises(TypeError):
        json_writer({"a": array})


def read_by_lines(path):
    """The line-by-line reader that read_numbers replaces: the reference."""
    values, comments = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            values.append(float(line))
    if not values:
        raise ValueError(f"no samples found in {path}")
    return np.asarray(values), comments


READABLE = [
    "1.0\n-2.5\n3\n",
    "  1.0  \n\n \t \n-2.5e-3\n",
    "# B=2\n1\n2\n3\n4",
    "#comment\n  # B = 3\n1e308\r\n-0.0\r\n5e-324\n",
    "1_000\ninf\nnan\n  +7\n",
]
UNREADABLE = ["", "\n  \n", "# only a comment\n", "1.0 2.0\n", "1.0\n2.0,3.0\n", "1.0\nx\n"]


@pytest.mark.parametrize("text", READABLE, ids=range(len(READABLE)))
def test_read_numbers_matches_line_reader(tmp_path, text):
    path = tmp_path / "v.csv"
    path.write_bytes(text.encode("utf-8"))
    values, comments = read_numbers(str(path))
    expected, expected_comments = read_by_lines(str(path))
    np.testing.assert_array_equal(values, expected)
    assert values.dtype == np.float64
    assert comments == expected_comments


@pytest.mark.parametrize("text", UNREADABLE, ids=range(len(UNREADABLE)))
def test_read_numbers_rejects_what_the_line_reader_rejects(tmp_path, text):
    path = tmp_path / "v.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as expected:
        read_by_lines(str(path))
    with pytest.raises(ValueError) as got:
        read_numbers(str(path))
    assert str(got.value) == str(expected.value)
