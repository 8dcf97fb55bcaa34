"""Execution drivers: strategies for driving one workflow session.

Every driver takes a built :class:`repro.workflow.builder.WorkflowSession`
and returns the same :class:`repro.workflow.report.RunResult`.

* :class:`SerialDriver` — one simulation step then drain; the
  deterministic steady-state schedule.  When the run has the box to itself
  (:func:`has_the_box`) it owns one helper thread for the run and lends it
  to every :meth:`~repro.pic.simulation.PICSimulation.step`, which steps a
  second species on it (bit for bit the one-thread step).
* :class:`PipelinedDriver` — the simulation in a producer thread, every
  consumer in its own thread, coupled by the bounded SST queues plus
  explicit back-pressure: the producer admits at most ``max_in_flight``
  streamed iterations that the slowest consumer has not finished yet,
  overlapping simulation and training while bounding how far training
  lags.  It also records a queue-depth timeline.

Both time the same two things with the session's
:class:`repro.telemetry.Timer`: ``simulation.step()`` as section ``pic``
(the ``on_step`` hooks stay outside it) and each consumer's drain as a
section named after the consumer; the report's ``simulation_time`` and
``training_time`` are those totals.  Producer and consumer exceptions are
always captured (never silently dropped) and surfaced together on the
``RunResult``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, TYPE_CHECKING, Type

from repro.streaming.broker import StreamClosedError
from repro.telemetry.spans import carry_trace
from repro.workflow.report import RunResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.builder import WorkflowSession

#: name prefix of the serial driver's PIC helper thread
HELPER_THREAD = "pic-helper"


def has_the_box() -> bool:
    """Whether a run started here may take a second core for a helper.

    Only a run on the main thread of a process no pool started, on a box of
    two cores or more.  Its siblings busy the other cores wherever runs go
    side by side: a campaign's worker processes, the service's job threads,
    a pipelined producer beside its trainer.  A helper there is one more
    busy thread than there are cores, which loses (0.94x measured beside
    the pipelined producer).
    """
    return (threading.current_thread() is threading.main_thread()
            and multiprocessing.parent_process() is None
            and (os.cpu_count() or 1) >= 2)


def _iteration_callback(session: "WorkflowSession", name: str,
                        extra: Optional[Callable[[int, int], None]] = None):
    """Compose the session's hook dispatch with a driver-internal callback."""
    def callback(iteration_index: int, n_samples: int) -> None:
        session.notify_iteration(name, iteration_index, n_samples)
        if extra is not None:
            extra(iteration_index, n_samples)
    return callback


def _drain(session: "WorkflowSession", name: str, consumer,
           consumer_errors: Dict[str, BaseException],
           max_iterations: Optional[int] = None) -> None:
    """One timed ``consume`` call of a serial run; a failure is recorded
    and closes the consumer's queue."""
    try:
        with session.timer.section(name):
            consumer.consume(max_iterations=max_iterations,
                             on_iteration=_iteration_callback(session, name))
    except BaseException as error:  # noqa: BLE001 - surfaced in the result
        consumer_errors[name] = error
        session.brokers[name].close()


def _collect_summaries(session: "WorkflowSession") -> Dict[str, Dict[str, object]]:
    return {name: consumer.summary()
            for name, consumer in session.consumers.items()}


def _true_producer_error(producer_error: Optional[BaseException],
                         consumer_errors: Dict[str, BaseException]
                         ) -> Optional[BaseException]:
    """Drop a secondary stream-closed error caused by the consumers dying.

    When the last consumer fails, its queue is closed and the producer's
    next put raises ``StreamClosedError("no live consumers left")`` — a
    symptom, not a producer failure.  Reporting it as one would mask the
    consumers' root-cause exceptions behind ``raise_if_failed()``.
    """
    if (isinstance(producer_error, StreamClosedError) and consumer_errors):
        return None
    return producer_error


class ExecutionDriver:
    """Strategy interface: drive a session for ``n_steps`` steps."""

    name: str = "abstract"

    def execute(self, session: "WorkflowSession", n_steps: int) -> RunResult:
        raise NotImplementedError


class SerialDriver(ExecutionDriver):
    """Alternate one simulation step with draining every consumer's queue."""

    name = "serial"

    def execute(self, session: "WorkflowSession", n_steps: int) -> RunResult:
        start = time.perf_counter()
        producer_error: Optional[BaseException] = None
        consumer_errors: Dict[str, BaseException] = {}
        max_depth = 0
        depth_samples: List[int] = []

        steps_done = 0
        with ExitStack() as stack:
            if has_the_box():
                # one helper thread for the run, lent to every step: started
                # by the first step with a species large enough to use it,
                # joined on exit
                helper = stack.enter_context(ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=HELPER_THREAD))
                stack.enter_context(session.simulation.lent(helper))
            for index in range(n_steps):
                try:
                    with session.timer.section("pic"):
                        session.simulation.step()
                    session.fire_step(index)
                    steps_done += 1
                except BaseException as error:  # noqa: BLE001 - surfaced in the result
                    producer_error = error
                    break
                depth = session.queue_depth()
                depth_samples.append(depth)
                max_depth = max(max_depth, depth)
                for name, consumer in session.consumers.items():
                    queued = session.brokers[name].queued_steps
                    if queued and name not in consumer_errors:
                        _drain(session, name, consumer, consumer_errors, queued)

        # flush: end the stream and let every consumer drain what is left
        try:
            session.writer_series.close()
        except BaseException as error:  # noqa: BLE001
            producer_error = producer_error or error
        for name, consumer in session.consumers.items():
            if name not in consumer_errors:
                _drain(session, name, consumer, consumer_errors)

        wall = time.perf_counter() - start
        # report the steps actually completed, not the ones requested — the
        # two differ when the producer failed mid-run
        report = session.build_report(n_steps=steps_done, wall_time=wall)
        return RunResult(report=report, driver=self.name, max_queue_depth=max_depth,
                         queue_depth_samples=depth_samples,
                         producer_exception=_true_producer_error(producer_error,
                                                                 consumer_errors),
                         consumer_exceptions=consumer_errors,
                         consumer_summaries=_collect_summaries(session))


#: Seconds the producer waits for the consumers to make room in the stream,
#: and seconds the run waits for its threads to finish, before giving up.
WAIT_TIMEOUT_S = 60.0
JOIN_TIMEOUT_S = 300.0


class PipelinedDriver(ExecutionDriver):
    """The simulation in a producer thread, every consumer in its own thread.

    The bounded SST queues couple the threads (the paper's co-scheduled
    steady state), and on top of the per-queue limits the producer only
    starts a simulation step while fewer than ``max_in_flight`` streamed
    iterations are still unconsumed by the *slowest* live consumer.  This
    bounds end-to-end staleness (how far training lags the simulation)
    rather than just queue memory.  ``max_in_flight=None`` derives the
    bound from the brokers' ``queue_limit``.
    """

    name = "pipelined"

    def __init__(self, max_in_flight: Optional[int] = None) -> None:
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.max_in_flight = max_in_flight

    def execute(self, session: "WorkflowSession", n_steps: int) -> RunResult:
        lock = threading.Lock()
        abort = threading.Event()
        context: dict = {
            "producer_error": None, "consumer_errors": {},
            "max_depth": 0, "depth_samples": [], "steps_done": 0,
        }
        limit = self.max_in_flight
        if limit is None:
            limit = max(2, min(b.queue_limit for b in session.brokers.values()))
        # back-pressure state, guarded by the condition
        condition = threading.Condition()
        consumed_counts = {name: 0 for name in session.consumers}
        dead_consumers: set = set()
        start = time.perf_counter()

        def in_flight() -> int:
            counts = [count for name, count in consumed_counts.items()
                      if name not in dead_consumers]
            if not counts:
                return 0  # nobody left to wait for
            return session.producer.iterations_streamed - min(counts)

        def wait_for_room() -> None:
            with condition:
                done = condition.wait_for(
                    lambda: in_flight() < limit or abort.is_set(),
                    timeout=WAIT_TIMEOUT_S)
            if not done:
                raise TimeoutError(
                    "pipelined back-pressure stalled: no consumer drained the "
                    f"stream for {WAIT_TIMEOUT_S:.0f} s")

        def produce() -> None:
            try:
                for index in range(n_steps):
                    wait_for_room()
                    if abort.is_set():
                        break
                    with session.timer.section("pic"):
                        session.simulation.step()
                    session.fire_step(index)
                    depth = session.queue_depth()
                    # all run accounting updates under one lock so the final
                    # snapshot is coherent even if this thread leaks past the
                    # join timeout
                    with lock:
                        context["steps_done"] += 1
                        context["depth_samples"].append(depth)
                        context["max_depth"] = max(context["max_depth"], depth)
            except BaseException as error:  # noqa: BLE001 - surfaced in the result
                with lock:
                    context["producer_error"] = error
            finally:
                # always end the stream so no consumer waits forever
                try:
                    session.writer_series.close()
                except BaseException as error:  # noqa: BLE001
                    with lock:
                        if context["producer_error"] is None:
                            context["producer_error"] = error

        def consume(name: str, consumer) -> None:
            def consumed_one(iteration_index: int, n_samples: int) -> None:
                with condition:
                    consumed_counts[name] += 1
                    condition.notify_all()

            try:
                with session.timer.section(name):
                    consumer.consume(on_iteration=_iteration_callback(
                        session, name, extra=consumed_one))
            except BaseException as error:  # noqa: BLE001
                with lock:
                    context["consumer_errors"][name] = error
                session.brokers[name].close()
                with condition:
                    dead_consumers.add(name)
                    if len(dead_consumers) == len(consumed_counts):
                        abort.set()
                    condition.notify_all()

        # both sides record into the caller's trace, under its open span;
        # the consumers start first, so their start-up never lands inside
        # the producer's first step
        threads = [threading.Thread(target=carry_trace(consume),
                                    args=(name, consumer),
                                    name=f"workflow-consumer-{name}", daemon=True)
                   for name, consumer in session.consumers.items()]
        threads.append(threading.Thread(target=carry_trace(produce),
                                        name="workflow-producer", daemon=True))
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        stuck = []
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                stuck.append(thread.name)
        if stuck:
            abort.set()
            timeout_error = TimeoutError(
                f"threads did not finish within {JOIN_TIMEOUT_S:.0f} s: "
                f"{', '.join(stuck)}")
            with lock:
                if context["producer_error"] is None:
                    context["producer_error"] = timeout_error

        wall = time.perf_counter() - start
        # snapshot the shared state: a thread leaked past the join timeout
        # must not mutate the result the caller is already inspecting
        with lock:
            steps_done = context["steps_done"]
            consumer_errors = dict(context["consumer_errors"])
            producer_error = context["producer_error"]
            depth_samples = list(context["depth_samples"])
            max_depth = context["max_depth"]
        report = session.build_report(n_steps=steps_done, wall_time=wall)
        return RunResult(report=report, driver=self.name,
                         max_queue_depth=max_depth,
                         queue_depth_samples=depth_samples,
                         producer_exception=_true_producer_error(producer_error,
                                                                 consumer_errors),
                         consumer_exceptions=consumer_errors,
                         consumer_summaries=_collect_summaries(session))


#: bench/tracing.py (frozen this round) patches the concurrent driver's
#: ``execute`` under this name; the next [benchmark] PR renames its target.
_ConcurrentDriverBase = PipelinedDriver


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_DRIVERS: Dict[str, Type[ExecutionDriver]] = {
    SerialDriver.name: SerialDriver,
    PipelinedDriver.name: PipelinedDriver,
}


def available_drivers() -> tuple:
    return tuple(sorted(_DRIVERS))


def get_driver(name: str, **kwargs) -> ExecutionDriver:
    """Instantiate a driver by name (``serial``, ``pipelined``)."""
    try:
        driver_cls = _DRIVERS[name]
    except KeyError:
        raise ValueError(f"unknown driver {name!r}; valid drivers: "
                         f"{', '.join(available_drivers())}") from None
    return driver_cls(**kwargs)
