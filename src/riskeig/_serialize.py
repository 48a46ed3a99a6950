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


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def _emit(obj, out: list, indent: int, level: int):
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
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
        _emit(obj.tolist(), out, indent, level)
    elif is_dataclass(obj) and not isinstance(obj, type):
        keyed = ((f.metadata.get("json", f.name), getattr(obj, f.name)) for f in fields(obj))
        _emit({k: v for k, v in keyed if k is not None}, out, indent, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(pad + json.dumps(str(k)) + ": ")
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    out: list[str] = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def write_json(path, obj, indent: int = 2):
    with open(path, "w") as fh:
        fh.write(dumps(obj, indent))


def config_hash(obj) -> str:
    """Stable digest of a config dict (order-insensitive at every level)."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canon.encode()).hexdigest()


def write_csv(path, header: list[str], rows):
    """CSV with the same float rule as the JSON emitter."""

    def cell(x) -> str:
        if isinstance(x, (float, np.floating)):
            return format_float(float(x))
        return str(x)

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(x) for x in row) + "\n")
