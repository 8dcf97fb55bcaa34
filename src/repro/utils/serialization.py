"""JSON serialisation helpers shared by the CLI, the campaign store and the service."""

from __future__ import annotations

import math

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
