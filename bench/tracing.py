"""Spans recorded from outside the program, for the benchmark's traced runs.

No span lives inside ``src/``: :func:`installed` temporarily replaces the
public callables at each layer boundary (a module attribute or a class
method) with a timing wrapper and puts the originals back in ``finally``.
A span is ``(id, name, start, end, parent, thread, rep)``; the parent is
whatever span was open on the *same thread* when the call started (a
thread-local stack), and a call made on a thread with nothing open hangs
off the repetition's root span, so the threaded drivers still give one
tree per repetition.  Spans stay in memory until :meth:`Tracer.write`.

A layer's *self time* is its span minus the same-thread children inside
it, so the self times of one thread add up to that thread's busy time and
nothing is counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    rep: int

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``(owner, attribute, span name)`` — where each layer boundary is looked
#: up at call time.  A function imported with ``from x import f`` is patched
#: in the *importing* module, because that is the name the caller resolves.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # pic
    ("repro.pic.simulation:PICSimulation", "step", "pic.step"),
    ("repro.pic.simulation", "gather_fields", "pic.gather"),
    ("repro.pic.simulation", "boris_push_fused", "pic.push"),
    ("repro.pic.simulation", "advance_positions", "pic.push"),
    ("repro.pic.simulation", "deposit_current_esirkepov", "pic.deposit"),
    ("repro.pic.maxwell:YeeSolver", "step", "pic.fields"),
    # radiation + transforms + producer plugin
    ("repro.core.transforms", "radiation_amplitude_step", "radiation.amplitude"),
    ("repro.core.transforms", "spectrum_from_amplitude", "radiation.amplitude"),
    ("repro.core.producer", "make_training_samples", "core.transforms"),
    ("repro.core.producer:StreamingProducerPlugin", "on_step", "core.producer"),
    ("repro.core.mlapp:MLApp", "samples_from_iteration", "core.decode"),
    # stream
    ("repro.openpmd.series:Series", "close_iteration", "streaming.write"),
    ("repro.streaming.broker:SSTBroker", "put_step", "streaming.write_wait"),
    ("repro.streaming.broker:SSTBroker", "get_step", "streaming.read_wait"),
    ("repro.streaming.reduction:ReductionPipeline", "reduce_step",
     "streaming.reduce"),
    ("repro.workflow.fanout:FanOutBroker", "put_step", "workflow.fanout"),
    # drivers and consumers
    ("repro.workflow.drivers:SerialDriver", "execute", "workflow.driver"),
    ("repro.workflow.drivers:_ConcurrentDriverBase", "execute",
     "workflow.driver"),
    ("repro.workflow.consumers:MLAppConsumer", "consume", "workflow.consume"),
    ("repro.workflow.consumers:HistogramMonitorConsumer", "consume",
     "workflow.monitor"),
    # trainer
    ("repro.continual.trainer:InTransitTrainer", "train_on_stream_step",
     "continual.stream_step"),
    ("repro.continual.trainer:InTransitTrainer", "train_iteration",
     "continual.iteration"),
    ("repro.continual.buffer:TrainingBuffer", "add_many", "continual.ingest"),
    ("repro.continual.buffer:TrainingBuffer", "batch_arrays", "continual.batch"),
    ("repro.models.model:ArtificialScientistModel", "forward", "models.forward"),
    ("repro.models.losses:CombinedLoss", "__call__", "models.loss"),
    ("repro.mlcore.tensor:Tensor", "backward", "mlcore.backward"),
    ("repro.mlcore.optim:Optimizer", "zero_grad", "mlcore.zero_grad"),
    ("repro.mlcore.optim:Adam", "step", "mlcore.optimizer_step"),
    ("repro.mlcore.functional", "pairwise_squared_distances",
     "mlcore.pairwise_sqdist"),
    # campaign (parent process only)
    ("repro.campaign.spec:CampaignSpec", "resolve", "campaign.resolve"),
    ("repro.campaign.workers:WorkerPoolExecutor", "execute", "campaign.execute"),
    ("repro.campaign.scheduler:SerialExecutor", "execute", "campaign.execute"),
    ("repro.campaign.store:CampaignStore", "append", "campaign.store_append"),
    ("repro.campaign.cache:ResultCache", "put", "campaign.cache_put"),
    ("repro.campaign.cache:ResultCache", "get", "campaign.cache_get"),
)


class Tracer:
    """Collects spans; one instance per traced workload."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: Optional[int] = None
        self._rep = 0

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._root
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent,
                                   threading.get_ident(), self._rep))

    @contextmanager
    def root(self, name: str, rep: int) -> Iterator[None]:
        """The root span of one repetition; orphan calls on other threads
        made while it is open become its children."""
        self._rep = rep
        with self.span(name):
            self._root = self._stack()[-1]
            try:
                yield
            finally:
                self._root = None

    def wrap(self, function, name: str):
        stack_of = self._stack
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else self._root
            if parent is None:          # outside every repetition: no span
                return function(*args, **kwargs)
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, ident(),
                                  self._rep))

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every target with a tracing wrapper; restore on exit."""
    originals = []
    try:
        for owner_path, attribute, name in TARGETS:
            owner = _resolve(owner_path)
            original = vars(owner)[attribute]
            if isinstance(original, staticmethod):
                replacement = staticmethod(tracer.wrap(original.__func__, name))
            else:
                replacement = tracer.wrap(original, name)
            setattr(owner, attribute, replacement)
            originals.append((owner, attribute, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
class LayerTimes(NamedTuple):
    self_s: float       #: span time minus same-thread children
    total_s: float      #: span time, children included
    calls: int


def layer_times(spans: Iterable[Span]) -> Dict[str, LayerTimes]:
    """Per span name: summed self time, summed inclusive time, call count."""
    spans = list(spans)
    child_time: Dict[int, float] = {}
    threads = {span.id: span.thread for span in spans}
    for span in spans:
        if span.parent is not None and threads.get(span.parent) == span.thread:
            child_time[span.parent] = child_time.get(span.parent, 0.0) \
                + span.duration
    out: Dict[str, List[float]] = {}
    for span in spans:
        row = out.setdefault(span.name, [0.0, 0.0, 0])
        row[0] += span.duration - child_time.get(span.id, 0.0)
        row[1] += span.duration
        row[2] += 1
    return {name: LayerTimes(*row) for name, row in out.items()}


def time_inside(spans: Iterable[Span], name: str, ancestor: str) -> float:
    """Summed duration of the ``name`` spans that sit below an ``ancestor``
    span — e.g. the stream reads of the trainer, not of the monitor."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        above = by_id.get(span.parent)
        while above is not None and above.name != ancestor:
            above = by_id.get(above.parent)
        if above is not None:
            total += span.duration
    return total


def coverage(spans: Iterable[Span]) -> float:
    """Share of the root spans' time covered by the union of their direct
    children (on any thread)."""
    spans = list(spans)
    roots = [span for span in spans if span.parent is None]
    covered = total = 0.0
    for root in roots:
        intervals = sorted((max(span.start, root.start), min(span.end, root.end))
                           for span in spans if span.parent == root.id)
        reach = root.start
        for start, end in intervals:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        total += root.duration
    return covered / total if total else 0.0


def nesting_errors(spans: Iterable[Span]) -> List[str]:
    """Violations of the trace's shape: a child outside its parent, a
    dangling parent id, or a repetition without exactly one root."""
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    errors = []
    roots_per_rep: Dict[int, int] = {}
    for span in spans:
        if span.parent is None:
            roots_per_rep[span.rep] = roots_per_rep.get(span.rep, 0) + 1
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            errors.append(f"span {span.id} ({span.name}): unknown parent "
                          f"{span.parent}")
        elif span.start < parent.start or span.end > parent.end:
            errors.append(f"span {span.id} ({span.name}) is not inside its "
                          f"parent {parent.id} ({parent.name})")
    for rep in sorted({span.rep for span in spans}):
        if roots_per_rep.get(rep, 0) != 1:
            errors.append(f"repetition {rep} has {roots_per_rep.get(rep, 0)} "
                          f"root spans")
    return errors


def read_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]
