"""The in-process broker connecting one writer to its readers.

The SST engine holds produced steps in a bounded queue ("QueueLimit" in
ADIOS2 terms).  When the queue is full the writer blocks — stalling the
simulation, which the paper explicitly allows ("as long as we have some
leeway to stall the running simulation"); the in-transit trainer relies on
never losing a step.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Optional

from repro.streaming.step import Step
from repro.telemetry import REGISTRY

_STREAM_STEPS = REGISTRY.counter(
    "repro_stream_steps_total",
    "SST broker step events (written/read), by event")
_STREAM_BYTES = REGISTRY.counter(
    "repro_stream_bytes_total", "Bytes written through the SST brokers")


#: Seconds a put or get may block before it raises: a deadlock guard, not a
#: tuning knob.
TIMEOUT_S = 30.0


class StreamClosedError(RuntimeError):
    """Raised when interacting with a stream whose writer has closed it."""


class SSTBroker:
    """Bounded, thread-safe step queue between a writer and one reader group.

    The reproduction drives producer and consumer either from the same
    thread (strictly alternating puts and gets, the serial driver) or from
    separate threads (the pipelined driver); the broker supports both via
    condition variables with timeouts.
    """

    def __init__(self, stream_name: str, queue_limit: int = 2) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.stream_name = stream_name
        self.queue_limit = int(queue_limit)
        self._queue: Deque[Step] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    # -- writer side -------------------------------------------------------- #
    def put_step(self, step: Step) -> None:
        """Enqueue a finished step, blocking while the queue is full (up to
        :data:`TIMEOUT_S`)."""
        with self._lock:
            if self._closed:
                raise StreamClosedError(f"stream {self.stream_name!r} is closed")
            if len(self._queue) >= self.queue_limit:
                deadline_ok = self._not_full.wait_for(
                    lambda: len(self._queue) < self.queue_limit or self._closed,
                    timeout=TIMEOUT_S)
                if not deadline_ok:
                    raise TimeoutError("timed out waiting for the reader to drain the queue")
                if self._closed:
                    raise StreamClosedError(f"stream {self.stream_name!r} is closed")
            self._queue.append(step)
            _STREAM_STEPS.inc(1, event="written")
            _STREAM_BYTES.inc(step.nbytes)
            self._not_empty.notify_all()

    def close(self) -> None:
        """Mark the end of the stream (:meth:`get_step` returns ``None`` once drained)."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    # -- reader side ----------------------------------------------------------- #
    def get_step(self) -> Optional[Step]:
        """Dequeue the next step, waiting up to :data:`TIMEOUT_S` for one;
        ``None`` signals end of stream."""
        with self._lock:
            ready = self._not_empty.wait_for(
                lambda: self._queue or self._closed, timeout=TIMEOUT_S)
            if not ready:
                raise TimeoutError("timed out waiting for the writer to produce a step")
            if not self._queue:
                return None  # closed and drained
            step = self._queue.popleft()
            _STREAM_STEPS.inc(1, event="read")
            self._not_full.notify_all()
            return step

    # -- introspection ------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def queued_steps(self) -> int:
        with self._lock:
            return len(self._queue)
