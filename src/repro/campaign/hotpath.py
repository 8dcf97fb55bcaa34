"""The campaign-throughput benchmark case: serial vs workers.

The campaign-layer sibling of :mod:`repro.pic.hotpath`: where that case
tracks steps/second of the PIC kernels, this one tracks **runs/second of
the campaign executors** on one whole ``execute()`` of the smoke preset —
the launch shape the CLI and :mod:`repro.service.jobs` both use — so the
perf trajectory covers the orchestration layer, not just the kernels (see
``docs/performance.md``).  This module is the *case*: its flags, its timing
callable, its gate and its record schema; the measurement loop, the shared
flags, persistence to ``BENCH_campaign_throughput.json`` and the exit codes
belong to the harness in :mod:`repro.utils.benchjson`.

The gate: the ``workers`` executor must produce records equivalent to
``serial`` (same run ids in the same submission order, all completed,
identical deterministic aggregate report).  Run it with ``python -m
repro.cli bench-campaign``; exit status 1 means the gate failed, 2 a bad
argument.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.aggregate import aggregate
from repro.campaign.presets import get_campaign_preset
from repro.campaign.scheduler import (SerialExecutor, default_pool_workers,
                                      execute_run)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import RunRecord
from repro.campaign.workers import WorkerPool, WorkerPoolExecutor
from repro.telemetry import disabled as telemetry_disabled
from repro.utils.benchjson import BenchCase, best_of_interleaved

#: The executors the benchmark compares, in measurement order.
BENCH_EXECUTORS = ("serial", "workers")

#: The campaign preset driven through the executors.
DEFAULT_PRESET = "campaign-smoke"


@dataclass
class CampaignThroughputResult:
    """One campaign-throughput measurement plus the equivalence verdict."""

    #: best observed executor throughput, runs/second, per executor name
    runs_per_sec: Dict[str, float]
    preset: str
    n_runs: int
    max_workers: int
    start_method: str
    #: lifetime worker-pool counters over the whole benchmark (warmup and
    #: every measured block included)
    pool_stats: Dict[str, object] = field(default_factory=dict)
    #: whether workers' records match serial's (the correctness gate)
    equivalent: bool = False
    #: empty when equivalent, else a one-line description of the mismatch
    equivalence_detail: str = ""

    def speedup(self, executor: str, baseline: str) -> float:
        """The throughput ratio of one executor over a baseline executor."""
        return self.runs_per_sec[executor] / self.runs_per_sec[baseline]

    def params(self) -> Dict[str, object]:
        """The benchmark's identity knobs (the benchjson ``params`` block)."""
        return {"preset": self.preset, "n_runs": self.n_runs,
                "max_workers": self.max_workers,
                "start_method": self.start_method,
                "executors": list(BENCH_EXECUTORS)}

    def metrics(self) -> Dict[str, object]:
        """The measured figures (the benchjson ``metrics`` block)."""
        return {"runs_per_sec": dict(self.runs_per_sec),
                "speedup_workers_vs_serial": self.speedup("workers",
                                                          "serial"),
                "pool_stats": dict(self.pool_stats),
                "equivalent": self.equivalent,
                "equivalence_detail": self.equivalence_detail}


def _time_execute(executor, payloads: Sequence[Dict[str, object]]
                  ) -> Tuple[float, List[RunRecord]]:
    """Runs/second + records of one ``execute()`` over all the payloads."""
    start = time.perf_counter()
    records = executor.execute(payloads, execute_run)
    wall = time.perf_counter() - start
    return len(payloads) / wall, records


def check_equivalence(serial: Sequence[RunRecord],
                      workers: Sequence[RunRecord]) -> Tuple[bool, str]:
    """Whether a workers launch reproduced the serial launch's records.

    Checks, in order: same run ids in the same submission order, every
    workers run completed, and an identical deterministic aggregate
    report (losses, counters, best run — everything that must survive a
    change of executor; timing and cache provenance excluded).

    Returns:
        ``(equivalent, detail)`` — ``detail`` is empty on success and a
        one-line mismatch description otherwise.
    """
    serial_ids = [record.run_id for record in serial]
    workers_ids = [record.run_id for record in workers]
    if serial_ids != workers_ids:
        return False, (f"run id order differs: serial {serial_ids} "
                       f"vs workers {workers_ids}")
    failed = [record.run_id for record in workers if not record.completed]
    if failed:
        return False, f"workers runs failed: {failed}"
    serial_report = aggregate(serial).deterministic_dict()
    workers_report = aggregate(workers).deterministic_dict()
    if serial_report != workers_report:
        keys = [key for key in serial_report
                if serial_report[key] != workers_report.get(key)]
        return False, f"deterministic aggregate differs in {keys}"
    return True, ""


def run_campaign_benchmark(repeats: int = 3,
                           max_workers: Optional[int] = None,
                           start_method: Optional[str] = None,
                           repetitions: Optional[int] = None
                           ) -> CampaignThroughputResult:
    """Measure executor throughput on one launch of the smoke preset.

    Each executor runs the preset's resolved payloads in one ``execute()``
    call, in ``repeats`` interleaved blocks of which the best per executor
    is kept (:func:`best_of_interleaved`).  The workers executor drives a
    dedicated :class:`repro.campaign.workers.WorkerPool` that is warmed once
    before timing (that one-off spawn+import cost is exactly what the pool
    amortises away in steady state) and shut down afterwards.

    Args:
        repeats: interleaved measurement blocks per executor.
        max_workers: pool width (default
            :func:`repro.campaign.scheduler.default_pool_workers`).
        start_method: worker start method (default: the workers module
            default, ``spawn``).
        repetitions: override the preset's ensemble repetitions (scales
            the run count without changing per-run work).

    Returns:
        The measured :class:`CampaignThroughputResult`.

    Raises:
        ValueError: on a bad ``repeats``/``repetitions``/``max_workers``.
    """
    spec = get_campaign_preset(DEFAULT_PRESET)
    if repetitions is not None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        document = spec.to_dict()
        document["repetitions"] = repetitions
        spec = CampaignSpec.from_dict(document)
    payloads = [run.payload() for run in spec.resolve()]
    workers_n = (default_pool_workers() if max_workers is None
                 else max_workers)

    pool = WorkerPool(workers_n, start_method=start_method)
    executors = {"serial": SerialExecutor(),
                 "workers": WorkerPoolExecutor(max_workers=workers_n,
                                               pool=pool)}

    def warm_up() -> None:
        pool.wait_ready()
        # a few untimed runs per executor (page caches, imports)
        for name in BENCH_EXECUTORS:
            executors[name].execute(payloads[:workers_n], execute_run)

    try:
        # telemetry off for the whole measured region: the persisted perf
        # trajectory is the guard that instrumentation costs nothing when
        # disabled, so the timed sections must never include it
        with telemetry_disabled():
            best = best_of_interleaved(
                {name: partial(_time_execute, executors[name], payloads)
                 for name in BENCH_EXECUTORS}, repeats, setup=warm_up)
            pool_stats = pool.stats()
    finally:
        pool.shutdown()

    equivalent, detail = check_equivalence(best["serial"][1],
                                           best["workers"][1])
    return CampaignThroughputResult(
        runs_per_sec={name: rate for name, (rate, _) in best.items()},
        preset=spec.name, n_runs=len(payloads), max_workers=workers_n,
        start_method=pool.start_method, pool_stats=pool_stats,
        equivalent=equivalent, equivalence_detail=detail)


def format_result(result: CampaignThroughputResult) -> str:
    """Human-readable multi-line summary of one benchmark result."""
    lines = [
        f"campaign throughput, preset {result.preset!r}, {result.n_runs} "
        f"runs, {result.max_workers} workers ({result.start_method}), "
        f"one execute() per executor:",
    ]
    for name in BENCH_EXECUTORS:
        lines.append(f"  {name:>8}: {result.runs_per_sec[name]:7.2f} runs/s")
    lines.append(f"  workers vs serial: "
                 f"{result.speedup('workers', 'serial'):.2f}x")
    status = "OK" if result.equivalent else "FAILED"
    lines.append(f"  workers == serial records: {status}"
                 + (f" ({result.equivalence_detail})"
                    if result.equivalence_detail else ""))
    return "\n".join(lines)


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repetitions", type=int, default=None,
                        help="override the preset's ensemble repetitions "
                             "(scales the run count)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="pool width (default: machine-derived)")
    parser.add_argument("--start-method", type=str, default=None,
                        choices=("spawn", "fork", "forkserver"),
                        help="worker start method (default spawn)")


CASE = BenchCase(
    topic="campaign_throughput",
    description="benchmark the campaign executors (serial/workers) on one "
                f"whole launch of the {DEFAULT_PRESET} preset each (appends "
                "to BENCH_campaign_throughput.json)",
    add_arguments=_add_arguments,
    run=lambda args: run_campaign_benchmark(
        repeats=args.repeats, max_workers=args.max_workers,
        start_method=args.start_method, repetitions=args.repetitions),
    format_result=format_result,
    gate_failure=lambda result: "workers and serial executors disagree: "
                                f"{result.equivalence_detail}")
