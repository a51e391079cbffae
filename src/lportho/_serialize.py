"""Deterministic text emission and parsing helpers.

All numeric output files use 17 significant digits, the bytes of
format_float ("%.17g"), so that reruns diff cleanly and every double
round-trips exactly. Output is streamed through a Writer: a callable that
is handed a write function (an open file's write, or a list's append) and
writes the text in pieces. Each *_writer checks every value before it
returns its Writer, so a caller that builds the Writer before it opens
its file never leaves a partial file behind: a non-finite value raises
ValueError, with format_float's message, before anything is written.

Every numeric table (a float64 array in a JSON document, a CSV of spectra
or samples) is a Rows: a template such as "%d,%.17g\\n" over equal-length
columns. Rows.write formats and writes CHUNK rows at a time, and one numpy
kernel formats at most CHUNK values of one column per pass, so no more
than a block's arrays and text are held; mirrored_table_writer formats a
real spectrum's n//2+1 distinct rows once. The kernel gives the bytes of
"%.17g" % v exactly. For |v| in [1e-4, 1e16), where %g uses fixed
notation, it works in three steps:

1. Digits. k = floor(log10 |v|), and Dekker's two-product with Veltkamp
   splitting gives the exact product |v| * 10^(16 - k) = hi + lo (10^j is
   an exact double for j <= 22). When 1e16 < hi < 1e17, hi is an even
   integer, |lo| <= 8 and 1e16 < hi + lo <= 1e17 - 8: k is the
   decimal exponent, and q = hi + rint(lo) is the 17-digit significand
   rounded half to even, the digits a correctly rounded conversion gives.
2. Characters. q's digits come from a table of 4-digit groups, as uint32
   words. A value is a fixed run of words: a head (sign and first digit, or
   sign and "0."), the integer digits and the point, then the fraction
   digits. A mask chosen by k keeps each byte or makes it NUL, and the
   fraction's last nonzero group comes from a second table with its
   trailing zeros as NUL. Each row of a block is one row of a NUL-padded
   uint8 matrix: each column's words, then the literal text after it. The
   tables are built on the first pass, not at import.
3. Text. A block's NULs are removed by one bytes.translate.

Every other value goes through "%.17g" % v on its own, and its text
replaces its words: zero, -0.0, subnormals, every |v| outside the range
(the exponent notation cases), and the rare v whose hi is not strictly
between 1e16 and 1e17 (a power of ten, or a log10 rounded across one).
A "%d" column holds integers below 2**53 in magnitude, whose "%.17g" text
of the float is their "%d" text, so the same kernel formats them.

The stdlib json encoder insists on repr() for floats, and with indent it
runs its pure-Python encoder, hence json_writer. perfbench/tracer.py wraps
format_float and dumps_json (json_writer into a list) by name, and the
tests and CI size their inputs by CHUNK, so these names stay. Numeric text
input, one number per line, is read back by read_numbers.
"""

from __future__ import annotations

import functools
import json
import math
import re
from typing import Any, Callable, Union

import numpy as np

__all__ = [
    "CHUNK",
    "Writer",
    "Rows",
    "format_float",
    "check_finite",
    "rows_text",
    "table_writer",
    "mirrored_table_writer",
    "json_writer",
    "dumps_json",
    "read_numbers",
]

CHUNK = 2048  # rows per write call, and values per kernel pass: its arrays (~0.6 MB) stay in a 2 MB L2 cache
_INDENT = "  "  # per JSON nesting level

Writer = Callable[[Callable[[str], Any]], None]
Column = Union[np.ndarray, range]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} has no JSON representation")
    return format(float(x), ".17g")


def check_finite(*arrays: np.ndarray) -> None:
    """ValueError, with format_float's message for the first offending value,
    unless every entry of every array is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            format_float(float(a[~np.isfinite(a)][0]))


@functools.cache
def _kernel_tables() -> tuple:
    """The kernel's constant tables, built from short byte strings. Column c of a
    per-exponent table serves the exponent k = c - 5 estimated from log10,
    for k in -5..16; the two ends repeat k = -4 and k = 15, whose values
    then land off the grid."""
    exponents = [min(max(c - _ONE, -4), 15) for c in range(22)]
    p = np.array([float(10 ** (16 - k)) for k in exponents])  # exact: 16 - k <= 20
    p_hi = p * _SPLIT - (p * _SPLIT - p)
    # "%04d" of every group g = 100 h + l < 10**4, then the same with
    # trailing zeros NUL, from the 2-byte texts of h and l.
    two = np.frombuffer(b"".join(b"%02d" % d for d in range(100)), "<u2").astype(np.uint32)
    bare = np.frombuffer(b"".join((b"%02d" % d).rstrip(b"0").ljust(2, b"\0") for d in range(100)), "<u2")
    high, low, bare_low = two[:, None], two << 16, bare.astype(np.uint32) << 16
    trailing = np.where(np.arange(100) == 0, bare[:, None], high | bare_low)
    groups = np.concatenate([(high | low).ravel(), trailing.ravel()])
    # Head: NUL, "0." and NUL for k < 0, else the first digit in byte 3.
    heads = np.frombuffer(b"\x000.\x00" + b"".join(b"\0\0\0%d" % d for d in range(1, 10)), "<u4")

    def per_exponent(byte: Callable[[int, int], int]) -> np.ndarray:
        """The 4 words of byte(k, j) for digits j = 1..16, one column per k."""
        raw = bytes(byte(k, j) for k in exponents for j in range(1, 17))
        return np.frombuffer(raw, "<u4").reshape(len(exponents), 4).T.copy()

    # Byte b of integer/fraction word w is digit j = 4w + 1 + b. Word 0 of
    # the integer part holds the zeros and first digit of a k < 0 value
    # ("000d" with bytes 4 + k..3 kept), so its digit is j - 1 = b there.
    keep_int = per_exponent(lambda k, j: 0xFF if (j <= k if k >= 0 else j <= 4 and j - 1 >= 4 + k) else 0)
    keep_frac = per_exponent(lambda k, j: 0xFF if j > k else 0)
    point = per_exponent(lambda k, j: 46 if k >= 0 and j == k + 1 else 0)
    # The masks of the integer words and fraction words, for 1..4 integer words.
    keep = {w: np.concatenate([keep_int[:w], keep_frac]) for w in range(1, 5)}
    return np.stack([p, p_hi, p - p_hi]), groups, heads, keep, point


_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's constant for 53-bit doubles
_ONE = 5  # the column of k = 0
_LAST = np.array([[0], [0], [0], [10**4]])  # the last fraction group always drops its trailing zeros


def _value_words(x: np.ndarray, int_words: int) -> np.ndarray:
    """The "%.17g" text of every value of the finite float64 array x, as
    NUL-padded uint32 words: an array of shape (1 + int_words + 4, x.size),
    one column per value. int_words (1 to 4) must cover the integer digits
    and point of every value below 1e16 (see _int_words)."""
    powers, groups, heads, keep, point = _kernel_tables()
    n = x.size
    a = np.abs(x)
    np.maximum(a, 9.9e-5, out=a)  # zero, subnormals and huge values land
    np.minimum(a, 1e16, out=a)  # off the grid below
    e = np.log10(a)
    e += _ONE
    col = e.astype(np.intp)  # floor, as e > 0; an off-by-one k lands off the grid
    # Step 1: hi + lo = a * 10**(16 - k) exactly (Dekker's two-product).
    # As a is clipped and k is off by at most one, 1e15 < hi < 1e18.
    p = powers.take(col, axis=1)
    hi_lo = np.empty((2, n))
    hi, lo = hi_lo
    np.multiply(a, p[0], out=hi)
    a_split = np.empty((2, n))
    np.multiply(a, _SPLIT, out=a_split[0])
    np.subtract(a_split[0], a, out=a_split[1])
    np.subtract(a_split[0], a_split[1], out=a_split[0])
    np.subtract(a, a_split[0], out=a_split[1])
    part = a_split[:, None] * p[None, 1:]  # a_hi p_hi, a_hi p_lo; a_lo p_hi, a_lo p_lo
    np.subtract(part[0, 0], hi, out=lo)
    lo += part[0, 1]
    lo += part[1, 0]
    lo += part[1, 1]
    slow = ((hi <= 1e16) | (hi >= 1e17)).nonzero()[0]
    np.rint(lo, out=lo)
    q = np.add(hi, lo, dtype=np.int64, casting="unsafe")
    # g[0] is the first digit and g[1..4] the groups of digits 1..16; g[5]
    # and g[6] hold digits 1..8 and 9..16 on the way. A slow value's q may
    # have 16 or 18 digits: its g[0] is clipped to the table, and its words
    # replaced below.
    g = np.empty((7, n), np.int64)
    np.divmod(q, 10**8, out=(g[0], g[6]))
    np.divmod(g[0], 10**8, out=(g[0], g[5]))
    np.divmod(g[5:7], 10**4, out=(g[1:4:2], g[2:5:2]))
    # Step 2: the words.
    words = np.empty((1 + int_words + 4, n), np.uint32)
    below_one = col < _ONE
    heads.take(np.where(below_one, 0, g[0]), out=words[0], mode="clip")
    words[0] |= (x < 0) * np.uint32(45)
    groups.take(np.where(below_one, g[0], g[1]), out=words[1])
    groups.take(g[2:1 + int_words], out=words[2:1 + int_words])
    # A fraction group is written without its trailing zeros (the second
    # half of groups) when every later group is 0: digits 13..16 always,
    # 9..12 when g[4] is 0, 5..8 when g[6] is, 1..4 when g[2] and g[6] are.
    tail = g[[2, 6, 4]] == 0
    tail[0] &= tail[1]
    last = g[1:5] + _LAST
    last[:3] += tail * 10**4
    groups.take(last, out=words[1 + int_words:])
    words[1:] &= keep[int_words].take(col, axis=1)
    words[1:1 + int_words] |= point[:int_words].take(col, axis=1) * words[1 + int_words:].any(axis=0)
    if slow.size:
        text = np.array(["%.17g" % v for v in x[slow].tolist()], dtype=f"S{4 * words.shape[0]}")
        words[:, slow] = text.view("<u4").reshape(slow.size, -1).T
    return words


def _int_words(largest: float) -> int:
    """The integer words _value_words needs for values up to largest in
    magnitude: the point of one below 1e16, after its rounding to 17
    digits, is digit k + 1, in word (k + 1) / 4 rounded up."""
    if not largest < 1e16:
        return 4
    k = int(("%.16e" % largest).partition("e")[2])
    return max(1, -(-(k + 1) // 4))


class Rows:
    """The rows row % (columns[0][i], columns[1][i], ...), i = 0..n-1, each
    followed by sep but the last, as the formatting kernel gives them.

    row is a conversion, "%.17g" for a float column or "%d" for an integer
    one, then the literal text up to the next conversion, and so on. The
    columns are 1-d and of equal length; a "%d" column (an integer array
    or a range) must stay below 2**53 in magnitude, ValueError otherwise.
    Float values are not checked here: a caller checks them with
    check_finite before its first write.
    """

    def __init__(self, row: str, *columns: Column, sep: str = "") -> None:
        parts = re.split(r"(%\.17g|%d)", row + sep)
        kinds, literals = parts[1::2], parts[2::2]
        if parts[0] or len(kinds) != len(columns) or not kinds or any("%" in text for text in literals):
            raise ValueError(f"row {row!r} must be {len(columns)} conversions %.17g or %d, each followed by text")
        self.columns = [c if isinstance(c, range) else np.asarray(c) for c in columns]
        self.n = len(self.columns[0])
        if any(len(c) != self.n or not isinstance(c, range) and c.ndim != 1 for c in self.columns):
            raise ValueError("the columns of a table must be 1-d and of equal length")
        largest = 0.0
        for kind, c in zip(kinds, self.columns):
            if len(c):
                top = max(abs(c[0]), abs(c[-1])) if isinstance(c, range) else max(float(c.max()), -float(c.min()))
                if kind == "%d" and not ((isinstance(c, range) or c.dtype.kind in "iu") and top < 2**53):
                    raise ValueError("a %d column must hold integers below 2**53 in magnitude")
                largest = max(largest, top)
        self.int_words = _int_words(largest)
        self.sep = sep
        # A row is each column's words, then its literal text; an integer
        # has no fraction, so a "%d" column takes no fraction words.
        self.fields, blank = [], b""
        for kind, text in zip(kinds, literals):
            count = 1 + self.int_words + (4 if kind == "%.17g" else 0)
            self.fields.append((len(blank), count))
            blank += bytes(4 * count) + text.encode("ascii")
        self.blank = np.frombuffer(blank, np.uint8)

    def block(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1 (stop is clipped to n) as a NUL-padded uint8
        matrix, one row of it per row of text: rows_text gives the text.
        The last row keeps its sep."""
        rows = len(range(self.n)[start:stop])
        out = np.tile(self.blank, (rows, 1))
        for column, (offset, count) in zip(self.columns, self.fields):
            part = column[start:stop]
            values = np.arange(part.start, part.stop, part.step) if isinstance(part, range) else part
            values = values.astype(float, copy=False)
            field = out[:, offset:offset + 4 * count].view("<u4")
            for first in range(0, rows, CHUNK):
                field[first:first + CHUNK] = _value_words(values[first:first + CHUNK], self.int_words)[:count].T
        return out

    def write(self, write: Callable[[str], Any]) -> None:
        """Pass the rows to write, CHUNK at a time: one call per block."""
        for start in range(0, self.n, CHUNK):
            text = rows_text(self.block(start, start + CHUNK))
            write(text[:-len(self.sep)] if self.sep and start + CHUNK >= self.n else text)


def rows_text(block: np.ndarray) -> str:
    """The text of a Rows.block, or of blocks joined side by side or with
    their rows reordered: its bytes in order with the NULs removed."""
    return block.tobytes().translate(None, b"\0").decode("ascii")


def table_writer(head: str, row: str, *columns: Column) -> Writer:
    """A Writer of head followed by the Rows of row over columns, one row per
    line as row says. The columns are checked here: the float64 arrays
    finite, the "%d" ones below 2**53."""
    check_finite(*(c for c in columns if isinstance(c, np.ndarray) and c.dtype.kind == "f"))
    rows = Rows(row, *columns)

    def write_table(write: Callable[[str], Any]) -> None:
        write(head)
        rows.write(write)

    return write_table


def mirrored_table_writer(head: str, row: str, n: int, *halves: np.ndarray) -> Writer:
    """table_writer(head, row, range(n), *columns) for the columns of a real
    spectrum, v_(n-j) == v_j, given as their n//2+1 distinct values: row
    starts with "%d" and its text, and each half is checked here, n//2+1
    finite values (ValueError otherwise). Each distinct row is formatted
    once, and row j > n/2 takes the value bytes of row n - j."""
    index_row = re.match(r"%d[^%]+", row)
    if index_row is None or any(np.shape(h) != (n // 2 + 1,) for h in halves):
        raise ValueError(f"a mirrored table of {n} rows takes a row that starts with %d and columns of {n // 2 + 1} values")
    check_finite(*halves)
    index, values = Rows(index_row[0], range(n)), Rows(row[index_row.end():], *halves)

    def write_table(write: Callable[[str], Any]) -> None:
        distinct = values.block(0, n // 2 + 1)
        write(head)
        for start in range(0, n, CHUNK):
            j = np.arange(start, min(start + CHUNK, n))
            write(rows_text(np.hstack([index.block(start, start + CHUNK), distinct[np.minimum(j, n - j)]])))

    return write_table


def read_numbers(path: str) -> tuple[np.ndarray, list[str]]:
    """The numbers of a text file, one per line, and its comments.

    Blank and whitespace-only lines are skipped. A line whose first
    non-blank character is '#' is a comment, returned stripped and without
    the '#'. Every other line must hold one float; ValueError otherwise,
    and when the file holds no number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = list(filter(None, map(str.strip, text.split("\n"))))
    comments = []
    if "#" in text:
        comments = [line[1:].strip() for line in lines if line[0] == "#"]
        lines = [line for line in lines if line[0] != "#"]
    if not lines:
        raise ValueError(f"no samples found in {path}")
    return np.fromiter(map(float, lines), float, len(lines)), comments


def _plan(obj: Any, out: list, level: int) -> None:
    """Append obj's JSON text to out: str pieces, and the Rows of each float
    array, written later."""
    pad = _INDENT * (level + 1)
    closepad = _INDENT * level
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        # Delegate string escaping to the stdlib encoder.
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
            out.append(pad + json.dumps(k) + ": ")
            _plan(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closepad + "}")
    elif isinstance(obj, np.ndarray):
        if obj.ndim != 1 or obj.dtype != np.float64:
            raise TypeError(f"JSON arrays must be 1-d float64, got {obj.ndim}-d {obj.dtype}")
        if obj.size == 0:
            out.append("[]")
            return
        check_finite(obj)
        out += ["[\n" + pad, Rows("%.17g", obj, sep=",\n" + pad), "\n" + closepad + "]"]
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _plan(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closepad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def json_writer(obj: Any) -> Writer:
    """A Writer of obj as indented JSON and a final newline.

    obj is built from dicts with str keys, lists, tuples, str, int, float,
    bool, None and 1-d float64 arrays; an array is written as a list of its
    values, with the layout and bytes of the same list of floats. Every
    float is checked finite here, and an unsupported type is a TypeError.
    """
    pieces: list = []
    _plan(obj, pieces, 0)
    pieces.append("\n")

    def write_json(write: Callable[[str], Any]) -> None:
        for piece in pieces:
            if isinstance(piece, str):
                write(piece)
            else:
                piece.write(write)

    return write_json


def dumps_json(obj: Any) -> str:
    """obj as the text json_writer writes."""
    parts: list[str] = []
    json_writer(obj)(parts.append)
    return "".join(parts)
