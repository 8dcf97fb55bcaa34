"""JSON and JSONL helpers shared by the CLI, the campaign store, the trace
writer and the service."""

from __future__ import annotations

import math
import os

import numpy as np


def jsonable(value):
    """Coerce numpy scalars/arrays (and nested containers) to JSON types.

    Non-finite floats become ``None``: ``json.dumps`` would otherwise emit
    bare ``NaN``/``Infinity`` tokens, which are not valid strict JSON and
    break non-Python consumers of the machine-readable dumps.
    """
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, np.ndarray):
        # tolist() of a 0-d array is a bare scalar, of an n-d array a
        # (nested) list — recursion handles both
        return jsonable(value.tolist())
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    return value


def open_append(path: str):
    """Open the JSONL file ``path`` for appending whole lines.

    Creates the parent directory.  A process killed mid-append leaves a
    partial line without its newline; a fresh line is started after it, so
    the next row is not glued to (and lost with) the torn one.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    torn = False
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, "rb") as tail:
            tail.seek(-1, os.SEEK_END)
            torn = tail.read(1) != b"\n"
    handle = open(path, "a", encoding="utf-8")
    if torn:
        handle.write("\n")
    return handle
