"""The training hot-path benchmark case: one replay iteration, phase by phase.

The trainer-side sibling of :mod:`repro.pic.hotpath`: it measures
iterations/second of :meth:`InTransitTrainer.train_iteration` — the loop the
paper's MLapp runs ``n_rep`` times per streamed step — at the ``bench-tiny``
and ``laptop`` models, split into the trainer's own timer sections
(``batch`` assembly, ``forward`` = model forward + Eq. (1) loss,
``backward``, ``optimizer``), plus the autograd nodes one iteration builds
(:func:`count_nodes`, the count ``tests/mlcore/test_fused_ops.py`` also
bounds by :data:`MAX_TAPE_NODES`).  Each size trains a trainer built by
:func:`repro.core.mlapp.build_trainer` from the preset's ``MLConfig`` on a
replay buffer filled with seeded synthetic samples of the model's shapes,
so the measurement is the trainer alone, with no simulation in front of it.
This module is the *case*; the measurement loop, the shared flags,
persistence to ``BENCH_train_hotpath.json`` and the exit codes belong to the
harness in :mod:`repro.utils.benchjson`.

The gate: every timed loss term is finite, one ``bench-tiny`` iteration
builds at most :data:`MAX_TAPE_NODES` nodes, and two trainers built from the
same seed produce bit-identical loss histories.  Run it with ``python -m
repro.cli bench-train``; exit status 1 means the gate failed, 2 a bad
argument.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.continual.buffer import TrainingSample
from repro.continual.trainer import InTransitTrainer
from repro.core.mlapp import build_trainer
from repro.mlcore.tensor import Tensor
from repro.models.config import POINT_DIM
from repro.utils.benchjson import BenchCase, best_of_interleaved
from repro.workflow.presets import get_preset

#: the model sizes measured: the benchmark's train-bound size and the
#: package defaults
SIZES = ("bench-tiny", "laptop")

#: the node budget of one ``bench-tiny`` iteration
MAX_TAPE_NODES = 40

#: seeds the model, the replay sampling and the synthetic samples
SEED = 11

#: timed and untimed (warmup) training iterations per size and block
ITERATIONS = 100
WARMUP = 10


@dataclass
class TrainHotpathResult:
    """Per-size iteration rates and phase costs plus the gate's findings."""

    iterations_per_sec: Dict[str, float]
    phases_ms: Dict[str, Dict[str, float]]
    tape_nodes: Dict[str, int]
    n_parameters: Dict[str, int]
    #: every loss term of every timed iteration is finite
    finite: bool
    #: a second same-seed trainer reproduced the loss history bit for bit
    deterministic: bool

    @property
    def equivalent(self) -> bool:
        return (self.finite and self.deterministic
                and self.tape_nodes["bench-tiny"] <= MAX_TAPE_NODES)

    def params(self) -> Dict[str, object]:
        return {"sizes": list(SIZES), "n_parameters": self.n_parameters,
                "n_iterations": ITERATIONS, "warmup": WARMUP, "seed": SEED}

    def metrics(self) -> Dict[str, object]:
        return {"iterations_per_sec": self.iterations_per_sec,
                "phases_ms_per_iteration": self.phases_ms,
                "tape_nodes_per_iteration": self.tape_nodes,
                "finite": self.finite, "deterministic": self.deterministic,
                "equivalent": self.equivalent}


def _trainer(size: str) -> InTransitTrainer:
    """A ``size`` trainer whose now- and EP-buffers are full."""
    ml = get_preset(size).ml
    trainer = build_trainer(ml, rng=SEED)
    rng = np.random.default_rng(SEED)
    shape = (ml.model.n_input_points, POINT_DIM)
    trainer.buffer.add_many([
        TrainingSample(point_cloud=rng.normal(size=shape),
                       spectrum=rng.random(ml.model.spectrum_dim), step=index)
        for index in range(ml.now_buffer_size + ml.ep_buffer_size)])
    return trainer


def _train(size: str) -> Tuple[float, Tuple[Dict[str, float], List[dict]]]:
    """Iterations/sec of one fresh trainer + (per-phase ms, timed loss terms)."""
    trainer = _trainer(size)
    for step in range(WARMUP):
        trainer.train_iteration(step)
    trainer.timer.reset()
    start = time.perf_counter()
    for step in range(WARMUP, WARMUP + ITERATIONS):
        trainer.train_iteration(step)
    wall = time.perf_counter() - start
    phases = {name: 1e3 * total / ITERATIONS
              for name, total in trainer.timer.totals().items()}
    return ITERATIONS / wall, (phases, trainer.history.terms[WARMUP:])


def count_nodes(trainer: InTransitTrainer) -> int:
    """``Tensor._make`` calls — autograd nodes built — of one iteration."""
    built = []
    make = vars(Tensor)["_make"]
    Tensor._make = staticmethod(
        lambda *args: built.append(1) or make.__func__(*args))
    try:
        trainer.train_iteration(0)
    finally:
        Tensor._make = make
    return len(built)


def run_train_benchmark(repeats: int = 3) -> TrainHotpathResult:
    """Measure every size in ``repeats`` interleaved blocks (the best block
    per size is kept, :func:`best_of_interleaved`) and check the gate."""
    best = best_of_interleaved({size: partial(_train, size) for size in SIZES},
                               repeats)
    terms = {size: history for size, (_, (_, history)) in best.items()}
    fresh = {size: _trainer(size) for size in SIZES}
    return TrainHotpathResult(
        iterations_per_sec={size: rate for size, (rate, _) in best.items()},
        phases_ms={size: phases for size, (_, (phases, _)) in best.items()},
        tape_nodes={size: count_nodes(trainer) for size, trainer in fresh.items()},
        n_parameters={size: trainer.model.num_parameters()
                      for size, trainer in fresh.items()},
        finite=all(math.isfinite(value) for history in terms.values()
                   for iteration in history for value in iteration.values()),
        deterministic=all(_train(size)[1][1] == terms[size] for size in SIZES))


def format_result(result: TrainHotpathResult) -> str:
    lines = [f"training hot path, seed {SEED}, {ITERATIONS} timed iterations "
             f"after {WARMUP} warmup, per size:"]
    for size in SIZES:
        split = ", ".join(f"{name} {ms:.3f}" for name, ms in
                          result.phases_ms[size].items())
        lines.append(f"  {size:>10}: {result.iterations_per_sec[size]:7.1f} "
                     f"it/s  (ms/it: {split}; {result.tape_nodes[size]} nodes, "
                     f"{result.n_parameters[size]} parameters)")
    nodes = result.tape_nodes["bench-tiny"]
    lines.append(
        f"  losses finite: {'OK' if result.finite else 'FAILED'}; bench-tiny "
        f"tape {nodes} <= {MAX_TAPE_NODES}: "
        f"{'OK' if nodes <= MAX_TAPE_NODES else 'FAILED'}; same-seed loss "
        f"histories identical: {'OK' if result.deterministic else 'FAILED'}")
    return "\n".join(lines)


def gate_failure(result: TrainHotpathResult) -> str:
    failed = []
    if not result.finite:
        failed.append("a timed loss term is not finite")
    if result.tape_nodes["bench-tiny"] > MAX_TAPE_NODES:
        failed.append(f"a bench-tiny iteration builds "
                      f"{result.tape_nodes['bench-tiny']} nodes "
                      f"(> {MAX_TAPE_NODES})")
    if not result.deterministic:
        failed.append("two trainers with the same seed diverged")
    return "; ".join(failed)


CASE = BenchCase(
    topic="train_hotpath",
    description="benchmark one in-transit training iteration, phase by phase, "
                "at the bench-tiny and laptop models (appends to "
                "BENCH_train_hotpath.json)",
    add_arguments=lambda parser: None,
    run=lambda args: run_train_benchmark(repeats=args.repeats),
    format_result=format_result,
    gate_failure=gate_failure)
