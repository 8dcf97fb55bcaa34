"""The learning benchmark case: what the in-transit model learns from a
non-steady stream (``docs/performance.md``, "What the model learns").

*Replay against forgetting* (Sec. IV-C): two phases with the same clouds and
conflicting spectra stream into a trainer with replay off and on, per seed;
replay-off must forget the early phase's spectrum, replay-on must end lower,
by more than replay-off's spread.  *The inversion* (Fig. 9): a ``bench-tiny``
session's losses and :meth:`WorkflowSession.evaluate`'s metrics must stay in
their ten-seed :data:`BANDS`; a band that reaches its metric's worst value
and the wall-clock loss are recorded, not gated.  ``--repeats`` sessions are
timed, the one with the most steps in the wall-clock budget kept.  Run it
with ``python -m repro.workflow.learning`` or ``python -m repro.cli
bench-learning``; exit status 1 means the gate failed, 2 a bad argument.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.regions import REGION_NAMES
from repro.continual.buffer import TrainingSample
from repro.core.config import MLConfig, WorkflowConfig
from repro.core.mlapp import build_trainer
from repro.models.config import POINT_DIM, ModelConfig
from repro.utils.benchjson import BenchCase, best_of_interleaved, case_main
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

#: the worst value a bounded metric can take (higher is worse for both); no
#: regression can leave a band that reaches within 2 % of it
WORST = {"histogram_l1": 2.0, "clipped_fraction": 1.0}
#: metrics recorded with their band but never gated
UNGATED = {"loss_at_wall_budget": "depends on the machine's speed"}

#: each metric over the sessions at SEEDS, widened by 10 % of the width
#: but not past its worst value (measure_bands at 200 steps; the wall-clock
#: band on a two-core x86-64 box)
BANDS: Dict[str, Tuple[float, float]] = {
    "loss_at_step_budget": (30.9947, 31.5640),
    "loss_at_wall_budget": (28.7758, 84.8148),
    "histogram_l1.approaching": (1.3779, 2.0),
    "histogram_l1.receding": (1.4645, 2.0),
    "histogram_l1.vortex": (1.0975, 2.0),
    "surrogate_spectrum_mse": (0.0692, 0.4094),
    "latent_classifier_accuracy": (0.8170, 0.9880),
    "clipped_fraction": (0.5081, 1.0),
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


def run_session(seed: int) -> Tuple[int, Dict[str, float]]:
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
    metrics = {"loss_at_step_budget": _tail_loss(totals),
               "loss_at_wall_budget": _tail_loss(totals[:in_budget[-1]]
                                                 if in_budget else [])}
    metrics.update((f"histogram_l1.{region}", report.regions[region].histogram_l1
                    if region in report.regions else math.nan)
                   for region in REGION_NAMES.values())
    metrics.update((name, value) for name, value in report.summary().items()
                   if name != "mean_peak_error")
    return len(in_budget), metrics


def measure_bands() -> Dict[str, Tuple[float, float]]:
    """:data:`BANDS` measured over :data:`SEEDS` (a metric missing at a seed
    gets none) — to regenerate only when a change means to alter training."""
    runs = [run_session(seed)[1] for seed in SEEDS]
    bands = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        if not any(map(math.isnan, values)):
            low, high = min(values), max(values)
            pad = 0.1 * (high - low)
            bands[name] = (low - pad, min(high + pad, WORST.get(
                name.split(".")[0], math.inf)))
    return bands


@dataclass
class LearningResult:
    """Both arms of the forgetting stream per seed + the coupled session."""

    #: per seed, held-out early-phase ``mse`` (after early, after late)
    replay_off: List[Tuple[float, float]]
    replay_on: List[Tuple[float, float]]
    session: Dict[str, float]
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
        """Per session metric: value, band and its width, why it is not
        gated (``None`` if it is) and whether it is inside its band."""
        verdicts = {}
        for name, value in self.session.items():
            band = BANDS.get(name)
            reason = UNGATED.get(name) or ("no band" if band is None else None)
            worst = WORST.get(name.split(".")[0])
            if reason is None and worst is not None and band[1] >= 0.98 * worst:
                reason = f"its band reaches the worst value {worst:g}"
            verdicts[name] = {"value": value, "band": band,
                              "band_width": band and band[1] - band[0],
                              "ungated_reason": reason,
                              "inside": band and band[0] <= value <= band[1]}
        return verdicts

    def failures(self) -> List[str]:
        failed = [text for text, ok in self.stream_checks() if not ok]
        for name, verdict in self.verdicts().items():
            if verdict["ungated_reason"] is None and not verdict["inside"]:
                low, high = verdict["band"]
                failed.append(f"{name} {verdict['value']:.4f} left its band "
                              f"{low:.4f}..{high:.4f}")
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
        return {"forgetting": self.forgetting(), "session": self.verdicts(),
                "steps_in_wall_budget": self.steps_in_wall_budget,
                "equivalent": self.equivalent}


def run_learning_benchmark(repeats: int = 1) -> LearningResult:
    """The best of ``repeats`` sessions (only the wall-clock reading differs
    between them), then both arms of the stream at every seed."""
    best = best_of_interleaved({"session": partial(run_session, SEEDS[0])},
                               repeats)
    steps, session = best["session"]
    return LearningResult(
        replay_off=[run_stream(False, seed) for seed in SEEDS],
        replay_on=[run_stream(True, seed) for seed in SEEDS],
        session=session, steps_in_wall_budget=steps)


def format_result(result: LearningResult) -> str:
    lines = [f"forgetting stream, {PHASE_SAMPLES} samples a phase, held-out "
             f"early-phase spectrum mse:"]
    lines += [f"  {text}: {'OK' if ok else 'FAILED'}"
              for text, ok in result.stream_checks()]
    lines.append(f"bench-tiny session, seed {SEEDS[0]}, {STEPS} steps "
                 f"({result.steps_in_wall_budget} inside {WALL_BUDGET_S:g} s):")
    for name, verdict in result.verdicts().items():
        band = verdict["band"]
        state = verdict["ungated_reason"] or (
            "OK" if verdict["inside"] else "FAILED")
        where = f"band {band[0]:.4f}..{band[1]:.4f}; " if band else ""
        lines.append(f"  {name:>26}: {verdict['value']:10.4f}  ({where}{state})")
    return "\n".join(lines)


CASE = BenchCase(
    topic="learning",
    description="benchmark what the in-transit model learns: replay against "
                "forgetting over ten seeds, and a bench-tiny session's loss "
                "and Fig. 9 metrics in their ten-seed bands (appends to "
                "BENCH_learning.json)",
    add_arguments=lambda parser: None,
    run=lambda args: run_learning_benchmark(repeats=args.repeats),
    format_result=format_result,
    gate_failure=lambda result: "; ".join(result.failures()))


def main(argv: Optional[Sequence[str]] = None) -> int:
    return case_main(CASE, "python -m repro.workflow.learning", argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
