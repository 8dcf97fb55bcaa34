"""The learning benchmark case: what the in-transit model learns from a
non-steady stream (``docs/performance.md``, "What the model learns").

*Replay against forgetting* (Sec. IV-C): two phases with the same clouds and
conflicting spectra stream into a trainer with replay off and on, per seed;
replay-off must forget the early phase's spectrum, replay-on must end lower,
by more than replay-off's spread.  *The inversion* (Fig. 9): a ``bench-tiny``
session's metrics must stay in their ten-seed :data:`BANDS` at every seed;
the wall-clock loss, clipped share and ratios to a spectrum-blind constant
(:meth:`InversionReport.ratios`) are recorded, not gated.  Seed 0's
``--repeats`` sessions are timed, the one with the most steps in the
wall-clock budget kept.  Run it with ``python -m repro.cli bench-learning``;
exit status 1 means the gate failed, 2 a bad argument.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.continual.buffer import TrainingSample
from repro.core.config import MLConfig, WorkflowConfig
from repro.core.mlapp import build_trainer
from repro.models.config import POINT_DIM, ModelConfig
from repro.utils.benchjson import BenchCase, best_of_interleaved
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.presets import get_preset

#: a replay-off/replay-on pair each, and the sessions of the bands
SEEDS = tuple(range(10))
#: streamed samples a phase, held-out early-phase samples, spectrum levels
PHASE_SAMPLES = 20
HELD_OUT_SAMPLES = 8
LEVELS = (0.8, 0.2)
#: the gate: shares of the seeds that forget (replay off) and win (on)
MIN_FORGETTING_SHARE = 0.9
MIN_WIN_SHARE = 0.8

#: the stream's model: a seed pair takes about a second
STREAM_MODEL = ModelConfig(n_input_points=32, encoder_channels=(16, 32),
                           encoder_head_hidden=24, latent_dim=24,
                           decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                           spectrum_dim=8, inn_blocks=2, inn_hidden=(24,))

#: the session's budgets; it keeps every region's sample for the evaluation
STEPS = 200
WALL_BUDGET_S = 1.0
KEEP_FOR_EVALUATION = 4

#: metrics recorded with their band but never gated
UNGATED = {"loss_at_wall_budget": "depends on the machine's speed"}

#: each metric over the sessions at SEEDS, widened by 10 % of the width
#: (measure_bands at 200 steps; the wall-clock band on a two-core x86-64 box)
BANDS: Dict[str, Tuple[float, float]] = {
    "loss_at_step_budget": (30.9947, 31.5640),
    "loss_at_wall_budget": (28.7758, 84.8148),
    "surrogate_spectrum_mse": (0.0692, 0.4094),
    "latent_classifier_accuracy": (0.8170, 0.9880),
}


def stream_config(replay: bool) -> MLConfig:
    """Adam at 1e-2, ``n_rep`` 8, now/EP buffers of 4/16 (no EP buffer
    with replay off)."""
    return MLConfig(model=STREAM_MODEL, n_rep=8, now_buffer_size=4,
                    ep_buffer_size=16 if replay else 0,
                    n_ep=4 if replay else 0, base_learning_rate=1e-2)


def _phase(rng: np.random.Generator, level: float, n: int,
           first_step: int) -> List[TrainingSample]:
    shape = (STREAM_MODEL.n_input_points, POINT_DIM)
    return [TrainingSample(
        point_cloud=rng.normal(scale=0.05, size=shape),
        spectrum=np.clip(level + rng.normal(
            scale=0.05, size=STREAM_MODEL.spectrum_dim), 0.0, 1.0),
        step=first_step + index) for index in range(n)]


def run_stream(replay: bool, seed: int) -> Tuple[float, float]:
    """Held-out early-phase ``mse`` after the early and after the late
    phase, for one arm at one seed."""
    trainer = build_trainer(stream_config(replay), rng=seed)
    rng = np.random.default_rng([seed, 1])
    phases = [_phase(rng, level, PHASE_SAMPLES, PHASE_SAMPLES * index)
              for index, level in enumerate(LEVELS)]
    held_out = _phase(rng, LEVELS[0], HELD_OUT_SAMPLES, 2 * PHASE_SAMPLES)
    readings = []
    for phase in phases:
        for sample in phase:
            trainer.train_on_stream_step([sample], step=sample.step)
        readings.append(trainer.evaluate(held_out)["mse"])
    return readings[0], readings[1]


def session_config(seed: int) -> WorkflowConfig:
    config = get_preset("bench-tiny")
    return replace(config, khi=replace(config.khi, seed=seed), seed=seed)


def _tail_loss(totals: np.ndarray) -> float:
    """Mean total loss over the last 10 % of the iterations (the benchmark's
    ``final_loss``), NaN without any."""
    return float(np.mean(totals[-max(1, len(totals) // 10):])) \
        if len(totals) else math.nan


def run_session(seed: int) -> Tuple[int, Dict[str, object]]:
    """Steps done inside the wall-clock budget + the session's metrics."""
    in_budget: List[int] = []       # iterations trained after each step

    def mark(session, *_) -> None:
        if time.perf_counter() - start <= WALL_BUDGET_S:
            in_budget.append(len(session.mlapp.history))

    session = (WorkflowBuilder().config(session_config(seed)).driver("serial")
               .on_iteration_consumed(mark).build())
    start = time.perf_counter()
    session.run(STEPS, keep_for_evaluation=KEEP_FOR_EVALUATION).raise_if_failed()
    totals = session.mlapp.history.series("total")
    report = session.evaluate(n_posterior_samples=2)
    return len(in_budget), {
        "loss_at_step_budget": _tail_loss(totals),
        "loss_at_wall_budget": _tail_loss(totals[:in_budget[-1]]
                                          if in_budget else []),
        "surrogate_spectrum_mse": report.surrogate_spectrum_mse,
        "latent_classifier_accuracy": report.latent_classifier_accuracy,
        "clipped_fraction": report.clipped_fraction,
        "ratios_to_constant": report.ratios()}


def measure_bands() -> Dict[str, Tuple[float, float]]:
    """:data:`BANDS` measured over :data:`SEEDS` — to regenerate only when
    a change means to alter training."""
    runs = [run_session(seed)[1] for seed in SEEDS]
    bands = {}
    for name in BANDS:
        values = [run[name] for run in runs]
        low, high = min(values), max(values)
        pad = 0.1 * (high - low)
        bands[name] = (low - pad, high + pad)
    return bands


@dataclass
class LearningResult:
    """Both arms of the forgetting stream and the coupled session, per seed."""

    #: per seed, held-out early-phase ``mse`` (after early, after late)
    replay_off: List[Tuple[float, float]]
    replay_on: List[Tuple[float, float]]
    #: per seed, :func:`run_session`'s metrics (seed 0's steps the best)
    sessions: List[Dict[str, object]]
    steps_in_wall_budget: int

    def forgetting(self) -> Dict[str, object]:
        """The paired statistics: seeds on which replay-off forgot and on
        which replay-on ended lower, the median gap, and Q3 - Q1 of
        replay-off's final early-phase ``mse``."""
        before, after = np.array(self.replay_off).T
        gaps = after - np.array(self.replay_on)[:, 1]
        q1, q3 = np.percentile(after, [25, 75])
        return {"replay_off": self.replay_off, "replay_on": self.replay_on,
                "replay_off_forgot": int(np.sum(after > before)),
                "replay_on_wins": int(np.sum(gaps > 0)),
                "median_gap": float(np.median(gaps)),
                "replay_off_quartile_distance": float(q3 - q1)}

    def stream_checks(self) -> List[Tuple[str, bool]]:
        n, stats = len(self.replay_off), self.forgetting()
        forgot, wins = stats["replay_off_forgot"], stats["replay_on_wins"]
        gap, spread = stats["median_gap"], stats["replay_off_quartile_distance"]
        return [(f"replay-off forgot on {forgot}/{n} seeds (needs "
                 f"{MIN_FORGETTING_SHARE:.0%})", forgot >= MIN_FORGETTING_SHARE * n),
                (f"replay-on ended lower on {wins}/{n} seeds (needs "
                 f"{MIN_WIN_SHARE:.0%})", wins >= MIN_WIN_SHARE * n),
                (f"median gap {gap:.4f} vs replay-off's quartile distance "
                 f"{spread:.4f} (needs the gap larger)", gap > spread)]

    def verdicts(self) -> Dict[str, Dict[str, object]]:
        """Per banded metric: band and its width, why it is not gated
        (``None`` if it is) and its value at each seed outside the band."""
        return {name: {"band": (low, high), "band_width": high - low,
                       "ungated_reason": UNGATED.get(name),
                       "outside": {seed: session[name] for seed, session
                                   in zip(SEEDS, self.sessions)
                                   if not low <= session[name] <= high}}
                for name, (low, high) in BANDS.items()}

    def failures(self) -> List[str]:
        failed = [text for text, ok in self.stream_checks() if not ok]
        for name, verdict in self.verdicts().items():
            if verdict["ungated_reason"] is None and verdict["outside"]:
                values = ", ".join(f"{value:.4f} at seed {seed}" for seed, value
                                   in verdict["outside"].items())
                failed.append(f"{name} {values} left its band " + "..".join(
                    f"{bound:.4f}" for bound in verdict["band"]))
        return failed

    @property
    def equivalent(self) -> bool:
        return not self.failures()

    def params(self) -> Dict[str, object]:
        return {"seeds": list(SEEDS), "phase_samples": PHASE_SAMPLES,
                "held_out_samples": HELD_OUT_SAMPLES, "levels": list(LEVELS),
                "stream_config": {"replay_off": asdict(stream_config(False)),
                                  "replay_on": asdict(stream_config(True))},
                "session_steps": STEPS, "wall_budget_s": WALL_BUDGET_S,
                "keep_for_evaluation": KEEP_FOR_EVALUATION}

    def metrics(self) -> Dict[str, object]:
        return {"forgetting": self.forgetting(), "bands": self.verdicts(),
                "sessions": self.sessions,
                "steps_in_wall_budget": self.steps_in_wall_budget,
                "equivalent": self.equivalent}


def run_learning_benchmark(repeats: int = 1) -> LearningResult:
    """The best of ``repeats`` sessions at seed 0 (they differ only in the
    wall-clock reading), one at every other seed, and both stream arms."""
    best = best_of_interleaved({"session": partial(run_session, SEEDS[0])},
                               repeats)
    steps, first = best["session"]
    return LearningResult(
        replay_off=[run_stream(False, seed) for seed in SEEDS],
        replay_on=[run_stream(True, seed) for seed in SEEDS],
        sessions=[first] + [run_session(seed)[1] for seed in SEEDS[1:]],
        steps_in_wall_budget=steps)


def format_result(result: LearningResult) -> str:
    lines = [f"forgetting stream, {PHASE_SAMPLES} samples a phase, held-out "
             f"early-phase spectrum mse:"]
    lines += [f"  {text}: {'OK' if ok else 'FAILED'}"
              for text, ok in result.stream_checks()]
    lines.append(f"{STEPS}-step sessions at {len(result.sessions)} seeds, min..max "
                 f"(seed 0: {result.steps_in_wall_budget} steps in {WALL_BUDGET_S:g} s):")
    for name, verdict in result.verdicts().items():
        (low, high), values = verdict["band"], [session[name] for session
                                                in result.sessions]
        state = verdict["ungated_reason"] or (
            "FAILED" if verdict["outside"] else "OK")
        lines.append(f"  {name:>26}: {min(values):.4f}..{max(values):.4f}  "
                     f"(band {low:.4f}..{high:.4f}; {state})")
    return "\n".join(lines)


CASE = BenchCase(
    topic="learning",
    description="benchmark what the in-transit model learns: replay against "
                "forgetting over ten seeds, and bench-tiny sessions' loss "
                "and Fig. 9 metrics in their bands at ten seeds (appends to "
                "BENCH_learning.json)",
    add_arguments=lambda parser: None,
    run=lambda args: run_learning_benchmark(repeats=args.repeats),
    format_result=format_result,
    gate_failure=lambda result: "; ".join(result.failures()))
