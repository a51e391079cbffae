"""Deterministic text emission and parsing helpers.

All numeric output files use 17 significant digits so that reruns diff
cleanly and every double round-trips exactly. The stdlib json encoder
insists on repr() for floats, and with indent it runs its pure-Python
encoder, hence the small emitter below. Every numeric table (a float list
in JSON, a CSV of spectra or samples) goes through format_rows: one
finiteness test, then one C-level % template for the whole table, with
the same bytes as formatting each value with format_float. Numeric text
input, one number per line, is read back by read_numbers.
"""

from __future__ import annotations

import json
import math
from itertools import chain, repeat
from typing import Any, Sequence

import numpy as np

__all__ = ["format_float", "format_rows", "read_numbers", "dumps_json"]

_INDENT = "  "  # per JSON nesting level


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} has no JSON representation")
    return format(float(x), ".17g")


def format_rows(row: str, *columns: Sequence[float], sep: str = "") -> str:
    """One line per index i, joined by sep: row % (columns[0][i], columns[1][i], ...).

    row holds one % conversion per column, "%.17g" for a float (the bytes
    of format_float) and "%d" for an integer column such as range(n). The
    columns are sequences of Python numbers of equal length. A column with
    a finite sum is all finite; only a sum that is not (a non-finite value,
    or an overflow) checks the values one by one, raising as format_float
    does.
    """
    for column in columns:
        if not math.isfinite(sum(column)):
            for v in column:
                format_float(v)
    values = tuple(columns[0]) if len(columns) == 1 else tuple(chain.from_iterable(zip(*columns)))
    return sep.join(repeat(row, len(columns[0]))) % values


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


def _emit(obj: Any, out: list[str], level: int) -> None:
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
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closepad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        if all(type(v) is float for v in obj):
            out.append("[\n" + pad + format_rows("%.17g", obj, sep=",\n" + pad) + "\n" + closepad + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closepad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)
