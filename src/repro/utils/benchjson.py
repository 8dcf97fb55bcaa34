"""Persisted benchmark histories (``BENCH_<topic>.json``).

A repo-level performance trajectory: every benchmark run appends one record
(timestamp, git revision, parameters, metrics) to ``BENCH_<topic>.json`` at
the repository root, so regressions and improvements are visible across
commits without an external dashboard.

File schema (version 1)::

    {
      "schema_version": 1,
      "topic": "train_hotpath",
      "runs": [
        {
          "timestamp": "2026-08-08T12:34:56+00:00",
          "git_revision": "3b80baa",
          "params": {...},
          "metrics": {...}
        },
        ...
      ]
    }

Writes are atomic (temp file + ``os.replace``) so a crashed benchmark never
corrupts the history; unknown or corrupt files fail loudly rather than being
silently overwritten.

The module is also the one harness under every persisted benchmark
(:mod:`repro.workflow.train_hotpath`, :mod:`repro.workflow.learning`).  A
benchmark is a :class:`BenchCase`: its topic, its description, a
``run(args)`` returning a result with ``params()`` / ``metrics()`` /
``equivalent``, the result's text rendering and the message of a failed
gate.  The harness supplies the rest:
:func:`best_of_interleaved` (the measurement loop), the shared flags
(``--repeats``, ``--output-dir``, ``--no-persist``), persistence, and one
exit-code policy — 2 for a ``ValueError`` (a bad argument), 1 for a failed
equivalence gate, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.utils.serialization import jsonable, write_json

SCHEMA_VERSION = 1


def bench_path(topic: str, directory: str = ".") -> str:
    """The ``BENCH_<topic>.json`` path of ``topic`` under ``directory``."""
    if not topic or any(c in topic for c in "/\\ "):
        raise ValueError(f"invalid benchmark topic {topic!r}")
    return os.path.join(directory, f"BENCH_{topic}.json")


def git_revision(directory: str) -> Optional[str]:
    """The short git revision of ``directory``, or ``None`` outside a repo."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=directory or ".", capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def make_record(params: Dict[str, object], metrics: Dict[str, object],
                directory: str) -> Dict[str, object]:
    """One run record: UTC timestamp + git revision + params + metrics."""
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_revision": git_revision(directory),
        "params": jsonable(params),
        "metrics": jsonable(metrics),
    }


def load_history(path: str) -> Dict[str, object]:
    """Load a benchmark history file, validating the schema.

    A file that is not one — torn JSON included — raises ``ValueError``
    naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path} is not a benchmark history file "
                             f"({error})") from None
    if not isinstance(data, dict) or "runs" not in data:
        raise ValueError(f"{path} is not a benchmark history file")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path} has unsupported schema version {version!r} "
                         f"(expected {SCHEMA_VERSION})")
    if not isinstance(data["runs"], list):
        raise ValueError(f"{path} holds a non-list 'runs' entry")
    return data


def append_run(topic: str, params: Dict[str, object],
               metrics: Dict[str, object], directory: str) -> str:
    """Append one run record to ``BENCH_<topic>.json``; returns the path.

    Creates the file (with the schema header) on first use.  The write is
    atomic (:func:`repro.utils.serialization.write_json`).
    """
    path = bench_path(topic, directory)
    os.makedirs(directory or ".", exist_ok=True)
    if os.path.exists(path):
        history = load_history(path)
        if history["topic"] != topic:
            raise ValueError(f"{path} records topic {history['topic']!r}, "
                             f"refusing to append topic {topic!r}")
    else:
        history = {"schema_version": SCHEMA_VERSION, "topic": topic, "runs": []}
    history["runs"].append(make_record(params, metrics, directory))
    write_json(path, history)
    return path


# --------------------------------------------------------------------------- #
# The harness every persisted benchmark runs under
# --------------------------------------------------------------------------- #
def best_of_interleaved(timed: Mapping[str, Callable[[], Tuple[float, Any]]],
                        repeats: int) -> Dict[str, Tuple[float, Any]]:
    """Measure the named callables in ``repeats`` interleaved blocks.

    Each callable returns ``(rate, payload)``; per name, the block with the
    highest rate is kept, payload included.  Interleaving makes background
    load hit every side alike instead of whichever happened to run during a
    busy window, and the best block is the usual robust wall-clock
    estimator.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best: Dict[str, Tuple[float, Any]] = {}
    for _ in range(repeats):
        for name, measure in timed.items():
            rate, payload = measure()
            if name not in best or rate > best[name][0]:
                best[name] = (rate, payload)
    return best


@dataclass
class BenchCase:
    """What one persisted benchmark supplies to the harness."""

    #: the history file is ``BENCH_<topic>.json``
    topic: str
    #: the ``--help`` text of the entry points
    description: str
    #: measures; ``ValueError`` means a bad argument.  The result exposes
    #: ``params()``, ``metrics()`` and the gate verdict ``equivalent``
    run: Callable[[argparse.Namespace], Any]
    #: the human-readable table of a result
    format_result: Callable[[Any], str]
    #: one line naming the sides that disagree in a failed-gate result
    gate_failure: Callable[[Any], str]


def add_case_arguments(parser: argparse.ArgumentParser,
                       case: BenchCase) -> None:
    """Declare the harness flags every case shares."""
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved measurement blocks; the best block "
                             "of each side is recorded (default 3)")
    parser.add_argument("--output-dir", type=str, default=".",
                        help=f"directory of {bench_path(case.topic, '')} "
                             f"(default .)")
    parser.add_argument("--no-persist", action="store_true",
                        help="measure and print only; do not touch the "
                             "BENCH_*.json history")


def run_case(case: BenchCase, args: argparse.Namespace) -> int:
    """Run, print, persist and gate ``case``; returns the exit code."""
    try:
        result = case.run(args)
        print(case.format_result(result))
        if not args.no_persist:
            params = dict(result.params(), repeats=args.repeats)
            path = append_run(case.topic, params, result.metrics(),
                              args.output_dir)
            print(f"  recorded in {path}")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not result.equivalent:
        print(f"error: {case.gate_failure(result)}", file=sys.stderr)
        return 1
    return 0
