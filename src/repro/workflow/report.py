"""Uniform result types of the composable workflow API.

Both drivers of :mod:`repro.workflow.drivers` — serial and
pipelined — return the same two-level result: a :class:`WorkflowReport`
with the producer/trainer accounting (the schema the seed API already used)
wrapped in a :class:`RunResult` that adds driver metadata, per-consumer
summaries and any exceptions raised concurrently.  Callers therefore never
need to know which execution strategy drove the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class WorkflowReport:
    """Outcome of one coupled run."""

    n_steps: int
    iterations_streamed: int
    samples_streamed: int
    training_iterations: int
    bytes_streamed: int
    wall_time: float
    simulation_time: float
    training_time: float
    final_losses: Dict[str, float]
    loss_history_total: List[float] = field(default_factory=list)

    @property
    def streamed_megabytes(self) -> float:
        return self.bytes_streamed / 1e6

    def summary(self) -> Dict[str, object]:
        return {
            "steps": self.n_steps,
            "iterations_streamed": self.iterations_streamed,
            "samples_streamed": self.samples_streamed,
            "training_iterations": self.training_iterations,
            "streamed_megabytes": round(self.streamed_megabytes, 2),
            "wall_time_s": round(self.wall_time, 3),
            "simulation_time_s": round(self.simulation_time, 3),
            "training_time_s": round(self.training_time, 3),
            "final_total_loss": self.final_losses.get("total"),
        }


@dataclass
class RunResult:
    """What a driver hands back: the report plus how the run went.

    The producer and every consumer run under exception capture so that a
    failure on one side never silently swallows the other side's error —
    both are surfaced here.
    """

    report: WorkflowReport
    driver: str
    max_queue_depth: int = 0
    queue_depth_samples: List[int] = field(default_factory=list)
    producer_exception: Optional[BaseException] = None
    consumer_exceptions: Dict[str, BaseException] = field(default_factory=dict)
    consumer_summaries: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.producer_exception is None and not self.consumer_exceptions

    def raise_if_failed(self) -> "RunResult":
        """Re-raise the first captured exception (producer first), if any."""
        if self.producer_exception is not None:
            raise self.producer_exception
        for error in self.consumer_exceptions.values():
            raise error
        return self

    def summary(self) -> Dict[str, object]:
        out = dict(self.report.summary())
        out["driver"] = self.driver
        out["max_queue_depth"] = self.max_queue_depth
        out["ok"] = self.ok
        return out
