"""Deterministic JSON/CSV emission helpers.

All numeric output files use 17 significant digits so that reruns diff
cleanly and every double round-trips exactly. The stdlib json encoder
insists on repr() for floats, and with indent it runs its pure-Python
encoder, hence the small emitter below. A list or tuple made only of
floats (a signal, a spectrum) is formatted array-at-a-time by
format_floats: one finiteness test, then C-level formatting joined once,
with the same bytes as formatting each value with format_float.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Any, IO, Iterator, Sequence

__all__ = ["format_float", "format_floats", "dumps_json", "dump_json"]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} has no JSON representation")
    return format(float(x), ".17g")


def format_floats(values: Sequence[float]) -> Iterator[str]:
    """format_float over a sequence of Python floats, raising as it does.

    A finite sum means every value is finite; only a sum that is not
    (a non-finite value, or an overflow) checks the values one by one.
    """
    if not math.isfinite(sum(values)):
        for v in values:
            format_float(v)
    return map(format, values, repeat(".17g"))


def _emit(obj: Any, out: list[str], indent: int, level: int) -> None:
    pad = " " * (indent * (level + 1))
    closepad = " " * (indent * level)
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
        import json

        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k).__name__}")
            import json

            out.append(pad + json.dumps(k) + ": ")
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closepad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        if all(type(v) is float for v in obj):
            out.append("[\n" + pad + (",\n" + pad).join(format_floats(obj)) + "\n" + closepad + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closepad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj: Any, indent: int = 2) -> str:
    parts: list[str] = []
    _emit(obj, parts, indent, 0)
    parts.append("\n")
    return "".join(parts)


def dump_json(obj: Any, fh: IO[str], indent: int = 2) -> None:
    fh.write(dumps_json(obj, indent=indent))
