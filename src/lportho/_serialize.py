"""Deterministic text emission and parsing helpers.

All numeric output files use 17 significant digits so that reruns diff
cleanly and every double round-trips exactly. Output is streamed through a
Writer: a callable that is handed a write function (an open file's write,
or a list's append) and writes the text in pieces. json_writer and
table_writer check every value before they return their Writer, so a
caller that builds the Writer before it opens its file never leaves a
partial file behind: a non-finite value raises ValueError, with
format_float's message, before anything is written.

Every numeric table (a float64 array in a JSON document, a CSV of spectra
or samples) goes through write_rows. It formats CHUNK rows at a time with
one C-level % template, "%.17g" per float (the bytes of format_float), and
writes each chunk as it goes: it never holds a Python list of a whole
column, nor the whole table's text. The stdlib json encoder insists on
repr() for floats, and with indent it runs its pure-Python encoder, hence
json_writer. format_float and dumps_json (json_writer into a list) stay
named functions: perfbench/tracer.py wraps both by name. Numeric text
input, one number per line, is read back by read_numbers.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from typing import Any, Callable, Sequence, Union

import numpy as np

__all__ = [
    "CHUNK",
    "Writer",
    "format_float",
    "check_finite",
    "write_rows",
    "table_writer",
    "json_writer",
    "dumps_json",
    "read_numbers",
]

CHUNK = 4096  # rows formatted and written per write call
_INDENT = "  "  # per JSON nesting level

Writer = Callable[[Callable[[str], Any]], None]


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


def write_rows(write: Callable[[str], Any], row: str, *columns: Union[np.ndarray, Sequence], sep: str = "") -> None:
    """Write row % (columns[0][i], columns[1][i], ...) for every i, joined by sep.

    row holds one % conversion per column: "%.17g" for a float64 array,
    "%d" for an integer column such as a range, "%s" for a list of str. The
    columns have equal lengths. CHUNK rows are formatted at a time, each
    chunk by one % template and passed to write in one call (a separator
    between chunks in another). Values are not checked here: a caller
    checks its float columns with check_finite before its first write.
    """
    for start in range(0, len(columns[0]), CHUNK):
        part = [c[start:start + CHUNK] for c in columns]
        part = [p.tolist() if isinstance(p, np.ndarray) else p for p in part]
        values = tuple(part[0]) if len(part) == 1 else tuple(chain.from_iterable(zip(*part)))
        if start and sep:
            write(sep)
        write(sep.join(repeat(row, len(part[0]))) % values)


def table_writer(head: str, row: str, *columns: Union[np.ndarray, Sequence]) -> Writer:
    """A Writer of head followed by write_rows(row, *columns), one row per
    line as row says. The float64 array columns are checked finite here."""
    check_finite(*(c for c in columns if isinstance(c, np.ndarray)))

    def write_table(write: Callable[[str], Any]) -> None:
        write(head)
        write_rows(write, row, *columns)

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
    """Append obj's JSON text to out: str pieces, and an (array, separator)
    pair for each float array, whose rows write_rows writes later."""
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
        out += ["[\n" + pad, (obj, ",\n" + pad), "\n" + closepad + "]"]
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
                array, sep = piece
                write_rows(write, "%.17g", array, sep=sep)

    return write_json


def dumps_json(obj: Any) -> str:
    """obj as the text json_writer writes."""
    parts: list[str] = []
    json_writer(obj)(parts.append)
    return "".join(parts)
