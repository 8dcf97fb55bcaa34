"""Structured spans: correlated timing trees across threads and processes.

One campaign run crosses several boundaries — the scheduler resolves and
dispatches in the parent, :func:`repro.campaign.scheduler._attempt_run`
executes in a worker process, the record settles back in the parent — and
a span tree ties the pieces together: every :class:`Span` carries a
``trace_id`` (the whole launch), its own ``span_id`` and a ``parent_id``.

Propagation is explicit and transport-agnostic: a span's context is the
small JSON-able dict ``{"trace_id", "span_id"}``; a child created with
``span(name, ctx=that_dict)`` joins the remote trace.  The
campaign layer rides this across the worker-pool pipe protocol by tucking
the context into the run payload and shipping finished spans back as an
undeclared attribute on the pickled ``RunRecord`` — no wire-format
change, no telemetry dependency in the protocol.

Recording is sink-based: spans are only captured while a sink (a
:class:`SpanRecorder` or a
:class:`repro.telemetry.export.TraceWriter`) is activated on the current
thread with :func:`recording`.  No sink — for example in ordinary library
use, or with telemetry disabled — means ``span(...)`` yields ``None`` and
costs one thread-local read.  A new thread starts without either; a
target wrapped by :func:`carry_trace` joins the trace of the thread that
wrapped it.

:class:`Timer` is how every layer times itself: ``section(name)`` adds
to the timer's totals and, while a sink records, is also a child span
``"{prefix}.{name}"`` — so a traced run's tree reaches from the campaign
launch down to ``pic.gather`` and ``continual.backward``.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro.telemetry.state import is_enabled

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Id source: seeded from the OS, re-seeded in a forked child.  Not
#: ``os.urandom`` per id: that call releases the GIL, so every span a
#: thread opened would hand the interpreter to a busy sibling thread.
_IDS = random.Random()
os.register_at_fork(after_in_child=_IDS.seed)


def new_id() -> str:
    """A fresh 64-bit hex id (trace or span)."""
    return f"{_IDS.getrandbits(64):016x}"


@dataclass
class Span:
    """One timed operation in a trace tree.

    ``start_s``/``end_s`` are wall-clock epoch seconds (spans cross
    process boundaries, so a monotonic clock would not compare); an open
    span has ``end_s is None``.
    """

    name: str
    trace_id: str
    span_id: str = field(default_factory=new_id)
    parent_id: Optional[str] = None
    start_s: float = field(default_factory=time.time)
    end_s: Optional[float] = None
    status: str = STATUS_OK
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        """Seconds from start to end, or ``None`` while the span is open."""
        return None if self.end_s is None else self.end_s - self.start_s

    def finish(self) -> "Span":
        """Close the span now (idempotent: an already-set end is kept).

        Returns:
            The span itself, for chaining into a sink's ``emit``.
        """
        if self.end_s is None:
            self.end_s = time.time()
        return self

    def to_dict(self) -> Dict[str, object]:
        """The span as a plain JSON-able dict (one trace-file row)."""
        return {"name": self.name, "trace_id": self.trace_id,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "start_s": self.start_s, "end_s": self.end_s,
                "status": self.status, "attrs": dict(self.attrs)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Span":
        """Rebuild a span from its :meth:`to_dict` row.

        Raises:
            TypeError: if ``data`` is not a span row.
        """
        return cls(**dict(data))


class SpanRecorder:
    """A sink collecting finished spans into a list (thread-safe: one
    ``list.append`` per span, no lock a sibling thread could stall on).

    The worker-side half of cross-process tracing: activated around
    ``_attempt_run`` so the execute span and every :class:`Timer` section
    below it accumulate here, then travel back to the parent attached to
    the run record.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def emit(self, span: Span) -> None:
        """Collect one finished span."""
        self.spans.append(span)


class _ThreadState(threading.local):
    """Per-thread current sink + open-span stack."""

    def __init__(self) -> None:
        self.sink = None
        self.stack: List[Span] = []


_STATE = _ThreadState()


def current_span() -> Optional[Span]:
    """The innermost open span of the current thread, or ``None``."""
    return _STATE.stack[-1] if _STATE.stack else None


@contextmanager
def recording(sink) -> Iterator[None]:
    """Activate a span sink on the current thread for the block's duration.

    Args:
        sink: anything with an ``emit(span)`` method — a
            :class:`SpanRecorder` or a
            :class:`repro.telemetry.export.TraceWriter`.
    """
    previous = _STATE.sink
    _STATE.sink = sink
    try:
        yield
    finally:
        _STATE.sink = previous


@contextmanager
def span(name: str, attrs: Dict[str, object],
         ctx: Optional[Mapping[str, str]]) -> Iterator[Optional[Span]]:
    """Open a span under the current one (or a remote ``ctx``), then emit it.

    Yields the open :class:`Span` so the body can add attributes — or
    ``None`` when telemetry is disabled or no sink is active, in which
    case the block runs uninstrumented.  An exception inside the block
    marks the span ``error`` (recording the exception type) and
    re-raises.

    Args:
        name: the span name (e.g. ``execute``).
        attrs: initial attributes.
        ctx: a remote parent's ``{"trace_id", "span_id"}``; with ``None`` the
            parent is the thread's current span (a fresh trace id is
            minted at the root).
    """
    sink = _STATE.sink
    if sink is None or not is_enabled():
        yield None
        return
    opened = _open(name, attrs, ctx)
    try:
        yield opened
    except BaseException as exc:
        _close(sink, opened, exc)
        raise
    _close(sink, opened, None)


def _open(name: str, attrs: Optional[Dict[str, object]],
          ctx: Optional[Mapping[str, str]]) -> Span:
    """A new span under ``ctx`` or the current one, pushed on the stack."""
    parent = current_span()
    if ctx is not None:
        trace_id = str(ctx["trace_id"])
        parent_id: Optional[str] = str(ctx["span_id"])
    elif parent is not None:
        trace_id, parent_id = parent.trace_id, parent.span_id
    else:
        trace_id, parent_id = new_id(), None
    opened = Span(name=name, trace_id=trace_id, parent_id=parent_id,
                  attrs=dict(attrs or {}))
    _STATE.stack.append(opened)
    return opened


def _close(sink, opened: Span, error: Optional[BaseException]) -> None:
    """Finish the innermost span (``error`` if the block raised) and emit it."""
    if error is None:
        opened.finish()
    else:
        opened.attrs.setdefault("exception", type(error).__name__)
        opened.status = STATUS_ERROR
        opened.finish()
    _STATE.stack.pop()
    sink.emit(opened)


def carry_trace(target: Callable) -> Callable:
    """``target`` wrapped to record into this thread's trace from another.

    A new thread starts with no sink and no open span; the wrapper, built
    on the calling thread, carries both over, so spans ``target`` opens on
    its thread become children of the span open here.  Without a sink
    ``target`` comes back as it is.
    """
    sink, parent = _STATE.sink, current_span()
    if sink is None:
        return target

    def traced(*args, **kwargs):
        previous, depth = _STATE.sink, len(_STATE.stack)
        _STATE.sink = sink
        if parent is not None:
            _STATE.stack.append(parent)
        try:
            return target(*args, **kwargs)
        finally:
            _STATE.sink = previous
            del _STATE.stack[depth:]
    return traced


class Timer:
    """Accumulating named sections of one layer: its totals and its spans.

    ``section(name)`` always adds its wall time to :meth:`totals` under the
    bare ``name``; while a sink records on the thread it is also a child
    span of the current one, named ``"{prefix}.{name}"``.  Untraced, the
    only cost beyond the clock is the thread-local sink read :func:`span`
    makes.  Several threads may time sections of one timer, also of one
    name: a section's update of its totals is atomic.

    Examples
    --------
    >>> timer = Timer("pic")
    >>> with timer.section("push"):
    ...     pass
    >>> list(timer.totals())
    ['push']
    """

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self._totals: Dict[str, float] = {}
        self._lock = threading.Lock()

    def section(self, name: str) -> "_Section":
        """Time a ``with`` block as section ``name`` (a span too while
        tracing).  An exception inside the block still counts and
        re-raises; the span, if any, is marked ``error``."""
        return _Section(self, name)

    def totals(self) -> Dict[str, float]:
        """Seconds per section name."""
        with self._lock:
            return dict(self._totals)

    def reset(self) -> None:
        """Forget every section."""
        with self._lock:
            self._totals.clear()


class _Section:
    """The context manager of one :meth:`Timer.section` block.

    A class rather than a generator: the PIC step and the trainer open
    dozens of sections per step, so its cost shows in a traced run's
    spans as time the parent has and no child does.
    """

    __slots__ = ("timer", "name", "sink", "span", "start")

    def __init__(self, timer: Timer, name: str) -> None:
        self.timer, self.name = timer, name

    def __enter__(self) -> None:
        sink = self.sink = _STATE.sink
        self.span = None
        if sink is not None and is_enabled():
            self.span = _open(f"{self.timer.prefix}.{self.name}", None, None)
        self.start = time.perf_counter()

    def __exit__(self, exc_type, error, traceback) -> None:
        elapsed = time.perf_counter() - self.start
        timer, name = self.timer, self.name
        with timer._lock:
            timer._totals[name] = timer._totals.get(name, 0.0) + elapsed
        if self.span is not None:
            _close(self.sink, self.span, error)
