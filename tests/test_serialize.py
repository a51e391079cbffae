import math

import numpy as np
import pytest

from lportho._serialize import dumps_json, format_float, format_rows, read_numbers


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
    for columns in ([[0.5, bad]], [range(2), [0.5, 0.5], [bad, 1.0]]):
        with pytest.raises(ValueError) as table_error:
            format_rows(",".join(["%.17g"] * len(columns)), *columns)
        assert str(table_error.value) == str(per_value_error.value)


def test_format_rows_matches_format_float():
    values = RNG.standard_normal(300).tolist() + [1e308, 1e308, -1e308, 5e-324] + EDGE_VALUES
    assert format_rows("%.17g", values, sep=",\n  ") == ",\n  ".join(format_float(v) for v in values)


@pytest.mark.parametrize("x", EDGE_VALUES)
def test_format_rows_edge_values(x):
    assert format_rows("%.17g", [x]) == format_float(x)
    assert format_rows("%d,%.17g,%.17g\n", range(2), [x, -x], [1.0, x]) == (
        f"0,{format_float(x)},{format_float(1.0)}\n1,{format_float(-x)},{format_float(x)}\n"
    )


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
