import math
from fractions import Fraction
from itertools import chain, repeat

import numpy as np
import pytest

from lportho._serialize import (
    CHUNK,
    Rows,
    check_finite,
    dumps_json,
    format_float,
    json_writer,
    mirrored_table_writer,
    read_numbers,
    rows_text,
    table_writer,
)
import lportho._serialize as serialize


def format_rows(row, *columns, sep=""):
    """The reference table formatter: CPython's correctly rounded % over the
    whole table, after the finiteness test of format_float on every value
    of a column whose sum is not finite."""
    for column in columns:
        if not math.isfinite(sum(column)):
            for v in column:
                format_float(v)
    values = tuple(columns[0]) if len(columns) == 1 else tuple(chain.from_iterable(zip(*columns)))
    return sep.join(repeat(row, len(columns[0]))) % values


def streamed(row, *columns, sep=""):
    """The text Rows.write writes, and the list of texts it passed to write."""
    parts = []
    Rows(row, *columns, sep=sep).write(parts.append)
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
    # One write per block of CHUNK rows; a block ends with the separator
    # unless it is the last.
    assert len(parts) == -(-rows // CHUNK)
    assert [part.count("\n" if not sep else sep) for part in parts] == [CHUNK] * (len(parts) - 1) + [
        (rows - 1) % CHUNK + (not sep)
    ]


@pytest.mark.parametrize("rows", [CHUNK, 2 * CHUNK + 1])
def test_rows_block_takes_one_kernel_pass_per_column_and_chunk(rows, monkeypatch):
    formatted = []
    kernel = serialize._value_words
    monkeypatch.setattr(serialize, "_value_words", lambda x, words: formatted.append(x.size) or kernel(x, words))
    values = RNG.standard_normal(rows)
    block = Rows("%d,%.17g,%.17g\n", range(rows), values, -values).block(0, rows)
    assert formatted == [min(CHUNK, rows - start) for start in range(0, rows, CHUNK)] * 3
    assert rows_text(block) == format_rows("%d,%.17g,%.17g\n", range(rows), values.tolist(), (-values).tolist())


MIRROR_ROWS = [1, 2, 3, 4, 5, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 2 * CHUNK + 2, 4 * CHUNK + 3]
MIRROR_EDGES = [-0.0, 5e-324, 1e-5, 1e16, 1e17, 1.7976931348623157e308]


def half_spectra(n, width):
    """width columns of n//2+1 distinct values over all exponents; at small
    n as many of MIRROR_EDGES as fit, starting at a place set by n."""
    rng = np.random.default_rng(n)
    m = n // 2 + 1
    halves = []
    for c in range(width):
        half = rng.standard_normal(m) * 10.0 ** rng.integers(-300, 300, m)
        edges = np.roll(MIRROR_EDGES, n + c)[:m]
        half[rng.permutation(m)[: edges.size]] = edges
        halves.append(half)
    return halves


def written(writer):
    parts = []
    writer(parts.append)
    return "".join(parts)


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("n", MIRROR_ROWS)
def test_mirrored_table_is_the_table_of_the_mirrored_columns(n, width, monkeypatch):
    halves = half_spectra(n, width)
    j = np.arange(n)
    mirrored = [half[np.minimum(j, n - j)] for half in halves]  # v_(n-j) = v_j
    row = "%d" + ",%.17g" * width + "\n"
    want = written(table_writer("j,v\n", row, range(n), *mirrored))
    formatted = []
    kernel = serialize._value_words
    monkeypatch.setattr(serialize, "_value_words", lambda x, words: formatted.append(x.size) or kernel(x, words))
    got = written(mirrored_table_writer("j,v\n", row, n, *halves))
    assert lines(got) == lines(want)
    # Each distinct value is formatted once, and each index of the n rows.
    assert sum(formatted) == n + width * (n // 2 + 1) and max(formatted) <= CHUNK


@pytest.mark.parametrize(
    "row, halves",
    [
        ("%.17g,%.17g\n", [np.ones(3)]),
        ("%d,%.17g\n", [np.ones(4)]),
        ("%d,%.17g,%.17g\n", [np.ones(3), np.ones(2)]),
        ("%d,%.17g\n", [np.ones((3, 1))]),
    ],
    ids=["no_index", "too_long", "unequal_lengths", "two_dimensional"],
)
def test_mirrored_table_rejects_other_shapes(row, halves):
    with pytest.raises(ValueError):
        mirrored_table_writer("", row, 4, *halves)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mirrored_table_checks_before_it_writes(bad):
    with pytest.raises(ValueError) as per_value_error:
        format_float(bad)
    with pytest.raises(ValueError) as error:
        mirrored_table_writer("head\n", "%d,%.17g,%.17g\n", 4 * CHUNK, np.ones(2 * CHUNK + 1), np.r_[np.ones(2 * CHUNK), bad])
    assert str(error.value) == str(per_value_error.value)


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


# The kernel against its oracle, CPython's correctly rounded "%.17g".


def kernel_text(values, row="%.17g\n"):
    """values through Rows, one block of them all, as one string per value."""
    rows = Rows(row, values)
    return rows_text(rows.block(0, len(values))).splitlines()


def assert_oracle(values):
    values = np.asarray(values, dtype=np.float64)
    got = kernel_text(values)
    want = ["%.17g" % v for v in values.tolist()]
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:10]


def test_kernel_matches_the_oracle_on_random_bit_patterns():
    """A million float64 bit patterns, uniform over all exponents and both signs."""
    bits = np.random.default_rng(20).integers(0, 2**64, 2**20, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert_oracle(values[np.isfinite(values)])


def test_kernel_matches_the_oracle_in_the_fixed_notation_range():
    """Random significands at every decimal exponent the kernel lays out,
    and one beyond each end: all of them in one table, and each decade in
    a table of its own, whose integer digits then take the fewest words."""
    rng = np.random.default_rng(21)
    exponents = rng.integers(-6, 18, 2**18)
    values = rng.uniform(1.0, 10.0, exponents.size) * 10.0**exponents * rng.choice([-1.0, 1.0], exponents.size)
    assert_oracle(values)
    for e in range(-6, 18):
        assert_oracle(np.r_[values[exponents == e], 9.9999999999999982 * 10.0**e])


def test_kernel_matches_the_oracle_next_to_powers_of_ten():
    """10^j and its four nearest doubles on each side, j = -6..18."""
    values = []
    for j in range(-6, 19):
        below = above = float(f"1e{j}")
        values.append(below)
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
    assert_oracle(values + [-v for v in values])


def halfway_values():
    """Doubles halfway between two 17-digit decimals: x * 10^(16 - k) ends
    in .5 exactly, which for 10^k <= x < 10^(k+1) means x = odd / 2^(17 - k)."""
    rng = np.random.default_rng(22)
    values = [1000000000000000.25, 1000000000000000.75, 2251799813685246.75]
    for k in range(-4, 16):
        scale = 2.0 ** (17 - k)
        odd = 2 * rng.integers(int(10.0**k * scale) // 2, min(int(10.0 ** (k + 1) * scale), 2**53) // 2, 200) + 1
        values += [float(o) / scale for o in odd.tolist() if float(o) / scale < 10.0 ** (k + 1)]
    return values


def test_kernel_rounds_halfway_cases_to_even():
    values = halfway_values()
    for v in values:  # v * 10^(16 - k) is an odd multiple of 1/2: a tie at the 17th digit
        k = int(("%.16e" % v).partition("e")[2])
        assert (Fraction(v) * Fraction(10) ** (16 - k)).denominator == 2
    assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"
    assert_oracle(values + [-v for v in values])


def test_kernel_rounds_up_to_powers_of_ten():
    """Doubles below 10^j whose 17 digits carry into the next exponent, so
    that "%.17g" prints 10^j, and the doubles just below the powers of ten
    of the fixed range (whose 17 digits do not carry)."""
    carry = []
    for j in range(-323, 309):
        v = float(f"1e{j}")  # the double nearest 10^j
        if Fraction(v) < Fraction(10) ** j and Fraction("%.17g" % v) == Fraction(10) ** j:
            carry.append(v)
    assert 1e-14 in carry and 1e98 in carry
    below = [np.nextafter(float(f"1e{j}"), 0.0) for j in range(-4, 17)]
    assert_oracle(carry + below + [9.9999999999999995e-05, 0.00099999999999999998, 9999999999999998.0])


def test_kernel_outside_the_fixed_range():
    tiny = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300, 9.9999999999999991e-05]
    huge = [1e16, 1.0000000000000002e16, 1.7976931348623157e308, 123456789012345678.0]
    values = [0.0, -0.0] + tiny + huge
    assert_oracle(values + [-v for v in values[2:]])
    assert kernel_text(np.array([0.0, -0.0])) == ["0", "-0"]


@pytest.mark.parametrize("base", [0, 2**31, -(2**31), 2**32, 2**53 - 9, -(2**53) + 9])
def test_integer_columns_match_percent_d(base):
    ints = np.arange(base - 8, base + 8)
    text = kernel_text(ints, "%d\n")
    assert text == ["%d" % v for v in ints.tolist()]
    rows = Rows("%d,%.17g\n", range(base - 8, base + 8), ints * 0.5)
    assert rows_text(rows.block(0, 16)) == "".join("%d,%.17g\n" % (v, v * 0.5) for v in ints.tolist())


@pytest.mark.parametrize("column", [np.array([2**53]), np.array([-(2**53)]), range(2**53, 2**53 + 1), np.array([0.5])])
def test_integer_columns_stay_below_two_to_the_53(column):
    with pytest.raises(ValueError, match="2\\*\\*53"):
        table_writer("", "%d\n", column)


@pytest.mark.parametrize(
    "row, columns",
    [
        ("%s\n", [["a"]]),
        ("x%.17g\n", [np.ones(1)]),
        ("%.17g,%.17g\n", [np.ones(1)]),
        ("%.17g%%\n", [np.ones(1)]),
        ("%.6g\n", [np.ones(1)]),
        ("%.17g,%d\n", [np.ones(2), range(3)]),
    ],
    ids=["str_kind", "leading_text", "too_few_columns", "percent_literal", "other_precision", "unequal_lengths"],
)
def test_rows_reject_other_templates(row, columns):
    with pytest.raises(ValueError):
        Rows(row, *columns)


def test_rows_block_is_a_nul_padded_row_matrix():
    """Each row of Rows.block is one row of text once its NULs are gone, and
    the rows can be taken in any order, as the spectrum comparison does."""
    values = np.array([0.5, -123.25, 1e-7, 3.0])
    rows = Rows("%d,%.17g\n", range(4), values)
    block = rows.block(0, 10)
    assert block.shape[0] == 4 and block.dtype == np.uint8
    want = ["%d,%.17g\n" % (i, v) for i, v in enumerate(values.tolist())]
    assert [rows_text(row) for row in block] == want
    assert rows_text(block[[3, 1, 1, 0]]) == want[3] + want[1] + want[1] + want[0]
    assert rows_text(rows.block(2, 4)) == want[2] + want[3]
