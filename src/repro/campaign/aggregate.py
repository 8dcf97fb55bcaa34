"""Campaign-level aggregation: from run records to one sweep report.

Turns the store's :class:`repro.campaign.store.RunRecord` rows into a
:class:`CampaignReport`: overall loss statistics, per-parameter summaries
(grouped by each swept value), best-run selection and throughput figures.

The report separates **deterministic** content (losses, streamed/training
counters — identical whenever the same seeded runs are re-executed) from
**timing** content (wall times, throughput — machine- and load-dependent).
``deterministic_dict()`` exposes only the former, which is what makes "a
resumed campaign reports exactly what an uninterrupted one would" a
testable property rather than a hope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.campaign.store import RunRecord


def status_document(campaign: str, total_runs: int,
                    records: Sequence[RunRecord],
                    telemetry: Optional[Dict[str, object]],
                    store: Optional[str] = None, include_records: bool = False
                    ) -> Dict[str, object]:
    """The machine-readable campaign status document.

    One serializer, two transports: ``campaign status --json`` on the CLI
    and ``GET /v1/campaigns/{id}`` on the :mod:`repro.service` control
    plane emit exactly this shape, so clients never have to reconcile two
    status schemas.

    Args:
        campaign: the campaign name.
        total_runs: resolved size of the campaign (``len(spec.resolve())``).
        records: the campaign's recorded runs (latest record per run id,
            already scoped to this campaign's run ids).
        telemetry: JSON-able telemetry summary (executor counter deltas,
            event-bus drops, cache stats) appended verbatim under a
            ``telemetry`` key — the service fills it from its job
            bookkeeping, the CLI from the launch's persisted trace
            (``None`` before a launch left one: no key).
        store: optional store path to include (the CLI always has one).
        include_records: append a ``records`` list with one
            :meth:`repro.campaign.store.RunRecord.to_dict` row per recorded
            run — the service's per-run detail; the CLI summary omits it.

    Returns:
        A flat JSON-able dict: counts (``total_runs`` / ``completed`` /
        ``failed`` / ``pending``), cache provenance (``cached``), executor
        throughput (``runs_per_sec`` — executed completed runs divided by
        their summed wall time, ``None`` until something was actually
        executed rather than cache-served) and the terminal flag ``done``.
    """
    completed = sum(1 for record in records if record.completed)
    executed = [record for record in records
                if record.completed and not record.cached]
    executed_elapsed = sum(record.elapsed_s for record in executed)
    document: Dict[str, object] = {
        "campaign": campaign,
        "total_runs": int(total_runs),
        "completed": completed,
        "failed": len(records) - completed,
        "pending": int(total_runs) - completed,
        "cached": sum(1 for record in records
                      if record.completed and record.cached),
        "runs_per_sec": (len(executed) / executed_elapsed
                         if executed and executed_elapsed > 0 else None),
        "done": completed == int(total_runs),
    }
    if store is not None:
        document["store"] = str(store)
    if telemetry is not None:
        document["telemetry"] = telemetry
    if include_records:
        document["records"] = [record.to_dict() for record in records]
    return document


def _stats(values: Sequence[float]) -> Dict[str, float]:
    """Mean / min / max over a non-empty value list (JSON-able floats)."""
    values = [float(v) for v in values]
    return {"n": len(values), "mean": sum(values) / len(values),
            "min": min(values), "max": max(values)}


def _loss_of(record: RunRecord) -> Optional[float]:
    loss = record.summary.get("final_total_loss")
    if loss is None:
        return None
    loss = float(loss)
    # a diverged run (NaN/inf loss) must not poison the stats or win the
    # best-run comparison ('loss < nan' is always False)
    return loss if math.isfinite(loss) else None


@dataclass
class CampaignReport:
    """Aggregated outcome of every recorded run of one campaign."""

    campaign: str
    n_runs: int
    n_completed: int
    n_failed: int
    #: loss statistics over all completed runs
    loss: Optional[Dict[str, float]]
    #: ``param -> value str -> {loss stats + mean counters}``
    per_parameter: Dict[str, Dict[str, Dict[str, float]]]
    #: the completed run with the lowest final total loss
    best_run: Optional[Dict[str, object]]
    #: deterministic volume counters summed over completed runs
    totals: Dict[str, float]
    #: wall-time / throughput figures (machine-dependent)
    timing: Dict[str, float] = field(default_factory=dict)
    #: recorded runs served from a result cache rather than executed
    #: (provenance, not content: excluded from ``deterministic_dict``)
    n_cached: int = 0

    def deterministic_dict(self) -> Dict[str, object]:
        """Everything that must be identical across re-executions.

        Cache provenance (``n_cached``) and timing are excluded: whether a
        run was served from cache, and how long it took, depend on machine
        state — the losses and counters do not.
        """
        return {"campaign": self.campaign, "n_runs": self.n_runs,
                "n_completed": self.n_completed, "n_failed": self.n_failed,
                "loss": self.loss, "per_parameter": self.per_parameter,
                "best_run": self.best_run, "totals": self.totals}

    def to_dict(self) -> Dict[str, object]:
        """The full report (deterministic content + timing + provenance)."""
        out = self.deterministic_dict()
        out["timing"] = self.timing
        out["n_cached"] = self.n_cached
        return out

    def format_text(self) -> str:
        """Human-readable multi-line report for the CLI."""
        lines = [f"campaign {self.campaign!r}: {self.n_completed} completed, "
                 f"{self.n_failed} failed of {self.n_runs} recorded runs"]
        if self.n_cached:
            lines.append(f"  served from cache: {self.n_cached} of "
                         f"{self.n_completed} completed runs")
        if self.loss is not None:
            lines.append(f"  final total loss : mean {self.loss['mean']:.4f}  "
                         f"min {self.loss['min']:.4f}  max {self.loss['max']:.4f}")
        if self.best_run is not None:
            lines.append(f"  best run         : {self.best_run['run_id']}  "
                         f"loss {self.best_run['final_total_loss']:.4f}  "
                         f"params {self.best_run['params']}")
        for key in ("training_iterations", "samples_streamed", "streamed_megabytes"):
            if key in self.totals:
                lines.append(f"  total {key:<22}: {self.totals[key]}")
        if "total_wall_s" in self.timing:
            lines.append(f"  wall time        : total {self.timing['total_wall_s']:.2f} s"
                         f"  mean/run {self.timing['mean_wall_s']:.2f} s"
                         f"  {self.timing['samples_per_s']:.1f} samples/s")
        if "runs_per_sec" in self.timing:
            lines.append(f"  throughput       : "
                         f"{self.timing['runs_per_sec']:.2f} runs/s "
                         f"over executed runs")
        for param, groups in sorted(self.per_parameter.items()):
            lines.append(f"  sweep {param}:")
            for value, stats in sorted(groups.items()):
                line = f"    {value:>16}: n={stats['n']:.0f}"
                if "loss_mean" in stats:  # absent when no run reported a loss
                    line += (f"  loss mean {stats['loss_mean']:.4f}  "
                             f"min {stats['loss_min']:.4f}")
                lines.append(line)
        return "\n".join(lines)


def aggregate(records: Sequence[RunRecord],
              campaign: str = "campaign") -> CampaignReport:
    """Build the campaign report from run records (failed runs counted only)."""
    # Store order depends on executor completion order; sort so float
    # summation (and best-run tie-breaks) are identical across executors.
    records = sorted(records, key=lambda record: record.run_id)
    completed = [record for record in records if record.completed]
    losses = [loss for loss in (_loss_of(r) for r in completed) if loss is not None]

    best: Optional[Dict[str, object]] = None
    for record in completed:
        loss = _loss_of(record)
        if loss is None:
            continue
        if best is None or loss < best["final_total_loss"]:
            best = {"run_id": record.run_id, "params": record.params,
                    "driver": record.driver, "final_total_loss": loss}

    # group completed runs by every swept parameter value
    per_parameter: Dict[str, Dict[str, Dict[str, float]]] = {}
    swept = sorted({key for record in completed for key in record.params})
    for param in swept:
        groups: Dict[str, List[RunRecord]] = {}
        for record in completed:
            if param in record.params:
                # str, not repr: swept string values must not grow
                # embedded quotes in the report keys
                groups.setdefault(str(record.params[param]), []).append(record)
        per_parameter[param] = {}
        for value, members in groups.items():
            member_losses = [loss for loss in (_loss_of(r) for r in members)
                             if loss is not None]
            stats: Dict[str, float] = {"n": float(len(members))}
            if member_losses:
                loss_stats = _stats(member_losses)
                stats.update(loss_mean=loss_stats["mean"],
                             loss_min=loss_stats["min"],
                             loss_max=loss_stats["max"])
            iterations = [r.summary.get("training_iterations") for r in members]
            iterations = [float(v) for v in iterations if v is not None]
            if iterations:
                stats["mean_training_iterations"] = \
                    sum(iterations) / len(iterations)
            per_parameter[param][value] = stats

    totals: Dict[str, float] = {}
    for key in ("training_iterations", "samples_streamed", "iterations_streamed",
                "streamed_megabytes"):
        values = [record.summary.get(key) for record in completed]
        values = [float(v) for v in values if v is not None]
        if values:
            total = sum(values)
            totals[key] = round(total, 3) if key == "streamed_megabytes" else total

    timing: Dict[str, float] = {}
    walls = [record.summary.get("wall_time_s") for record in completed]
    walls = [float(v) for v in walls if v is not None]
    if walls:
        total_wall = sum(walls)
        timing = {"total_wall_s": total_wall,
                  "mean_wall_s": total_wall / len(walls),
                  "samples_per_s": (totals.get("samples_streamed", 0.0) / total_wall
                                    if total_wall > 0 else 0.0)}
    # executor throughput: executed (non-cache-served) completed runs over
    # their summed wall time — the figure the worker-pool backend optimises
    executed = [record for record in completed if not record.cached]
    executed_elapsed = sum(record.elapsed_s for record in executed)
    if executed and executed_elapsed > 0:
        timing["runs_per_sec"] = len(executed) / executed_elapsed

    return CampaignReport(
        campaign=campaign, n_runs=len(records), n_completed=len(completed),
        n_failed=len(records) - len(completed),
        loss=_stats(losses) if losses else None,
        per_parameter=per_parameter, best_run=best, totals=totals,
        timing=timing,
        n_cached=sum(1 for record in records if record.cached))
