"""Append-only JSONL trace export, stored next to the campaign store.

A campaign launch writes its spans through a :class:`TraceWriter` into a
sibling of the campaign's record store — ``runs.campaign.jsonl`` gets
``runs.trace.jsonl`` (:func:`trace_path_for`) — so a store directory is
self-describing: records and their timing trees travel together, and the
``repro.cli trace`` command can find a campaign's trace from nothing but
the store path.  :func:`read_spans` is the reading half, tolerant of
torn/corrupt tail lines the same way the record store's reader is.
"""

from __future__ import annotations

import json
import os
import threading
from typing import List, Union

from repro.telemetry.spans import Span

#: Suffix of every trace file.
TRACE_SUFFIX = ".trace.jsonl"


def trace_path_for(store_path: Union[str, os.PathLike]) -> str:
    """The trace-file path paired with a campaign store path.

    ``x.campaign.jsonl`` → ``x.trace.jsonl``; any other ``*.jsonl`` swaps
    its extension; anything else gets ``.trace.jsonl`` appended.
    """
    path = os.fspath(store_path)
    if path.endswith(".campaign.jsonl"):
        return path[: -len(".campaign.jsonl")] + TRACE_SUFFIX
    if path.endswith(".jsonl"):
        return path[: -len(".jsonl")] + TRACE_SUFFIX
    return path + TRACE_SUFFIX


class TraceWriter:
    """A span sink that appends one JSON line per finished span.

    The file (and its directory) is created lazily on the first emit, so
    merely constructing a writer for a campaign that never runs leaves no
    artifact; a torn tail line a killed launch left is closed off first
    (:func:`repro.utils.serialization.open_append`).  Writes are
    line-buffered and flushed per span — a reader (or a crashed process's
    post-mortem) always sees whole lines.
    Thread-safe: the scheduler's settle path and the resolve span emit
    from different call sites.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._file = None

    def emit(self, span: Union[Span, dict]) -> None:
        """Append one span (a :class:`Span` or an already-dict row)."""
        row = span.to_dict() if isinstance(span, Span) else dict(span)
        line = json.dumps(row, sort_keys=True)
        with self._lock:
            if self._file is None:
                # imported here so that importing telemetry stays stdlib-only
                from repro.utils.serialization import open_append
                self._file = open_append(self.path)
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


def read_spans(path: Union[str, os.PathLike]) -> List[Span]:
    """Every span in a trace file, skipping corrupt or torn lines."""
    spans: List[Span] = []
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                spans.append(Span.from_dict(row))
            except (ValueError, TypeError):
                continue
    return spans
