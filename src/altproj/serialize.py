"""Deterministic text rendering for exports.

Floats are rendered with 17 significant digits, which round-trips binary64
exactly and is byte-stable across runs.  `render_json` writes one indented
document, such as a run config or a trace.  Writers of many small records
-- the `gen` table and the `union-batch` verdict lines -- fill `%`
templates instead, whose `%.17g` renders a finite float as `fmt17` does.
"""

from __future__ import annotations

import json
import math

import numpy as np


def fmt17(x) -> str:
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(v, ".17g")


def render_json(obj, _indent: int = 0) -> str:
    """Render JSON with fmt17 floats.  Supports dict/list/str/bool/None/numbers."""
    if obj is None or obj is True or obj is False or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    if isinstance(obj, np.ndarray):
        if (obj.dtype == np.float64 and obj.ndim in (1, 2) and obj.size
                and np.isfinite(obj).all()):
            # one %-format for the whole array; "%.17g" renders as fmt17 does
            item = "%.17g" if obj.ndim == 1 else "[" + ", ".join(["%.17g"] * obj.shape[1]) + "]"
            return ("[" + ", ".join([item] * len(obj)) + "]") % tuple(obj.ravel().tolist())
        return render_json(obj.tolist(), _indent)
    if isinstance(obj, (list, tuple)):
        items = [render_json(v, _indent) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        pad = " " * _indent
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {render_json(v, _indent + 2)}'
            for k, v in obj.items()
        )
        return "".join(("{\n", inner, "\n", pad, "}"))  # copies `inner` once, not twice
    raise TypeError(f"cannot serialize {type(obj).__name__}")
