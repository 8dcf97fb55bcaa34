"""JSON and JSONL helpers shared by the CLI, the campaign store, the trace
writer and the service."""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading

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


def write_json(path: str, document, indent: int | None = 2) -> None:
    """Write ``document`` to the JSON file ``path`` atomically.

    The text goes to a temp file beside ``path`` (the same filesystem, so
    the rename is atomic; named by process and thread, so concurrent writers
    of one path never share one), which then replaces ``path`` in one
    ``os.replace``.  A write that fails or is killed part way leaves the
    previous file as it was, and a failure removes the temp file.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=indent)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
