"""Fan-out: one writer stream feeding an arbitrary number of reader groups.

ADIOS2's SST engine connects one parallel writer to *N* independent reader
applications; each reader cohort gets every step and acknowledges it
separately.  Here a step is an in-process :class:`repro.streaming.step.Step`
and one :class:`repro.streaming.broker.SSTBroker` queue is consuming (a step
popped by one reader is gone), so :class:`FanOutBroker` models the cohorts:
it exposes the broker *writer* interface (``put_step`` / ``close`` plus the
introspection attributes the drivers sample) and tees every step into one
downstream :class:`SSTBroker` per consumer, each with its own bounded queue
and back-pressure.

A downstream broker that has been closed (e.g. because its consumer died)
is skipped instead of poisoning the whole stream — the surviving consumers
keep receiving data, which is exactly the loose-coupling property the paper
argues for.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.streaming.broker import SSTBroker, StreamClosedError
from repro.streaming.step import Step


def _copy_step(step: Step) -> Step:
    """Copy every array so one consumer cannot mutate another's buffers."""
    return Step(step.index, {path: data.copy() for path, data in step.arrays.items()},
                dict(step.attributes))


class FanOutBroker:
    """Writer-side tee over one bounded :class:`SSTBroker` per consumer.

    The first live consumer receives the producer's buffers zero-copy (the
    in-transit fast path); every further consumer gets its own copy, as
    independent SST reader cohorts would — so no consumer can corrupt the
    data another one trains on.
    """

    def __init__(self, stream_name: str, downstreams: Sequence[SSTBroker]) -> None:
        if not downstreams:
            raise ValueError("a FanOutBroker needs at least one downstream broker")
        self.stream_name = stream_name
        self.downstreams: List[SSTBroker] = list(downstreams)
        self.steps_written = 0
        self.bytes_written = 0

    # -- writer interface (what the writer Series calls) -------------------- #
    def put_step(self, step: Step) -> None:
        """Present one step to every live downstream queue."""
        delivered = 0
        for broker in self.downstreams:
            if broker.closed:
                continue
            try:
                broker.put_step(step if delivered == 0 else _copy_step(step))
            except StreamClosedError:
                continue  # the consumer went away between the check and the put
            delivered += 1
        if delivered == 0:
            raise StreamClosedError(
                f"stream {self.stream_name!r} has no live consumers left")
        self.steps_written += 1
        self.bytes_written += step.nbytes

    def close(self) -> None:
        for broker in self.downstreams:
            broker.close()

    # -- introspection ------------------------------------------------------ #
    @property
    def queued_steps(self) -> int:
        """Depth of the fullest downstream queue (the back-pressure driver)."""
        return max(broker.queued_steps for broker in self.downstreams)
