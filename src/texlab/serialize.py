"""Canonical report serialization.

Reports must be byte-identical for identical inputs, so floats are emitted
with a fixed 17-significant-digit format (enough to round-trip IEEE doubles)
instead of relying on ``json.dumps`` float formatting. Infinities serialize
as the string ``"inf"`` because JSON has no infinity literal.

The shared input rules live here too: ``require_integer`` words every count
refusal, and ``parse_complex_array`` reads every nested list of [re, im]
entries, so each refusal names its field the same way everywhere.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

ARTIFACT_VERSION = "0.3.0"


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (bit-exact round trip)."""
    if math.isnan(value):
        return '"nan"'
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    return f"{value:.17g}"


def complex_pair(z: complex) -> list[float]:
    """Represent a complex number as a two-element [real, imag] list."""
    z = complex(z)
    return [z.real, z.imag]


#: What ``json.dumps`` calls for a str.
_quote = json.encoder.encode_basestring_ascii


def _emit(obj: Any, parts: list[str]) -> None:
    # The types a report holds come first, floats and ints by exact type (a
    # bool is an int, a NumPy float a float); the rest follow.
    kind = type(obj)
    if kind is float:
        parts.append(format_float(obj))
    elif kind is int:
        parts.append(str(obj))
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            if i:
                parts.append(", ")
            parts.append(_quote(key))
            parts.append(": ")
            _emit(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray) and obj.ndim == 1):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit(complex_pair(complex(obj)), parts)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    """Serialize to canonical JSON text (insertion-ordered keys, fixed floats)."""
    parts: list[str] = []
    _emit(obj, parts)
    parts.append("\n")
    return "".join(parts)


def dumps_csv(columns, rows) -> str:
    """CSV text: a header line, then one line per row (floats at 17
    significant digits, other values through ``str``)."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(
            ",".join(
                format_float(v) if isinstance(v, float) else str(v) for v in row
            )
        )
    return "\n".join(lines) + "\n"


def require_integer(value: Any, *, name: str, minimum: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer (a
    NumPy integer counts, a bool does not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        rule = {0: "be non-negative", 1: "be a positive integer"}.get(
            minimum, f"be at least {minimum}"
        )
        raise ValueError(f"{name}: must {rule}, got {value}")


def _is_real(value: Any) -> bool:
    """An int or a float, but not a bool (a JSON true is no amplitude)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_complex_field(value: Any, *, name: str) -> complex:
    """Parse a [real, imag] pair (a bare real number is accepted; a bool,
    bare or in the pair, is refused)."""
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = value
        if _is_real(re) and _is_real(im):
            return complex(float(re), float(im))
    raise ValueError(f"{name}: expected [real, imag], got {value!r}")


def parse_complex_array(value: Any, shape: tuple[int, ...], *, name: str) -> np.ndarray:
    """Parse nested lists of ``parse_complex_field`` entries into a complex
    array of ``shape``. A list of the wrong length, or a non-list where one
    is due, is refused by its path (``name[i][j]``) before any array is
    allocated: a list of entries at the last level, of rows above it."""
    entries: list[complex] = []

    def walk(item: Any, depth: int, path: str) -> None:
        if depth == len(shape):
            entries.append(parse_complex_field(item, name=path))
            return
        if not isinstance(item, list) or len(item) != shape[depth]:
            what = "entries" if depth == len(shape) - 1 else "rows"
            got = len(item) if isinstance(item, list) else type(item).__name__
            raise ValueError(f"{path}: expected a list of {shape[depth]} {what}, got {got}")
        for i, sub in enumerate(item):
            walk(sub, depth + 1, f"{path}[{i}]")

    walk(value, 0, name)
    return np.array(entries, dtype=np.complex128).reshape(shape)
