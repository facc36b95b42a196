"""Report serialization helpers.

All numbers are emitted with 17 significant digits so that reports are
bit-reproducible and round-trip exactly through text (non-finite ones as json's NaN and ±Infinity).
"""

from __future__ import annotations

import json

import numpy as np

_MARK = "\x00f17\x00"
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def format_float(x: float) -> str:
    text = format(float(x), ".17g")
    return _NON_FINITE.get(text, text)


def _wrap(obj):
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return f"{_MARK}{format_float(obj)}{_MARK}"
    if isinstance(obj, dict):
        return {str(k): _wrap(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_wrap(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps(obj) -> str:
    """json.dumps, indented by 2, with floats rendered at 17 significant digits.

    ``obj`` nests dicts, lists and tuples of None, bools, ints, strings and
    floats; numpy scalars become Python scalars, so a numpy float is written
    with the same 17 digits.  Any other type raises TypeError.
    """
    text = json.dumps(_wrap(obj), indent=2)
    # unquote the marked float tokens (the marker is escaped inside strings)
    mark = "\\u0000f17\\u0000"
    return text.replace(f'"{mark}', "").replace(f'{mark}"', "")


def csv_row(values) -> str:
    parts = []
    for v in values:
        if isinstance(v, float):
            parts.append(format_float(v))
        else:
            parts.append(str(v))
    return ",".join(parts)
