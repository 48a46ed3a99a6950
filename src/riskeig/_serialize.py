"""Deterministic JSON/CSV emission with 17-significant-digit floats.

The stdlib json module offers no control over float formatting, and repr()
round-trips but varies in width; %.17g is the shortest fixed rule that
guarantees exact binary round-trips, so reports are byte-stable across runs.
A dataclass is emitted as an object of its fields in declaration order; a
field's key is ``field.metadata["json"]`` when set (``None`` leaves it out),
else its name.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass

import numpy as np

INDENT = 2


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def _emit(obj, out: list, level: int):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, level)
    elif is_dataclass(obj) and not isinstance(obj, type):
        keyed = ((f.metadata.get("json", f.name), getattr(obj, f.name)) for f in fields(obj))
        _emit({k: v for k, v in keyed if k is not None}, out, level)
    elif isinstance(obj, dict):
        _emit_items([(json.dumps(str(k)) + ": ", v) for k, v in obj.items()], "{}", out, level)
    elif isinstance(obj, (list, tuple)):
        _emit_items([("", v) for v in obj], "[]", out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_items(items: list, brackets: str, out: list, level: int):
    """An object's or an array's items, one ``prefix value`` per line, inside its brackets."""
    if not items:
        out.append(brackets)
        return
    pad = " " * (INDENT * (level + 1))
    out.append(brackets[0])
    for i, (prefix, v) in enumerate(items):
        out.append((",\n" if i else "\n") + pad + prefix)
        _emit(v, out, level + 1)
    out.append("\n" + " " * (INDENT * level) + brackets[1])


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def config_hash(obj) -> str:
    """Stable digest of a config dict (order-insensitive at every level)."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_csv(path, header: list[str], columns):
    """CSV of equal-length columns; a float column, chosen by dtype, takes the JSON float rule."""
    # Python floats format faster than NumPy scalars, to the same digits
    cols = [np.asarray(c) for c in columns]
    cells = [map(format_float if c.dtype.kind == "f" else str, c.tolist()) for c in cols]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))
