"""Canonical JSON serialization.

Checkpoints, verification reports and matrix files must be byte-identical
across runs, so floats are rendered with an explicit fixed rule (shortest
form of ``%.17g``, which round-trips float64 exactly) and object keys are
emitted in sorted order.  Parsing is plain ``json.loads``.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import SerializationError

__all__ = ["format_float", "canonical_dumps", "loads", "require_field"]


def format_float(x: float) -> str:
    """Decimal rendering with 17 significant digits; round-trips exactly."""
    if math.isinf(x) or math.isnan(x):
        raise SerializationError(f"non-finite number {x!r} cannot be serialized")
    s = format(float(x), ".17g")
    # normalize -0.0 so equal values serialize identically
    return "0" if s == "-0" else s


def _encode(obj: Any, out: list) -> None:
    if isinstance(obj, np.bool_):
        obj = bool(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.floating):
        obj = float(obj)
    if obj is None or isinstance(obj, bool):
        out.append("null" if obj is None else ("true" if obj else "false"))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise SerializationError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    else:
        raise SerializationError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_dumps(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, 17-digit floats."""
    out: list = []
    _encode(obj, out)
    return "".join(out)


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"malformed JSON: {exc}") from exc


def require_field(doc: dict, name: str, kind: type):
    """Fetch a mandatory field, raising SerializationError naming it."""
    if name not in doc:
        raise SerializationError(f"missing field {name!r}")
    value = doc[name]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SerializationError(f"field {name!r} must be a number, got {value!r}")
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise SerializationError(
            f"field {name!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value
