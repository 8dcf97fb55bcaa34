"""The PIC hot-path benchmark case: fused kernels vs their reference oracle.

Measures steps/second of the full PIC step (gather → push → Esirkepov
deposit → field solve) on the bench-tiny KHI problem (or any ``--grid``)
twice — :meth:`PICSimulation.step` on the :mod:`repro.pic.kernels` it runs
(``"fused"``) and :func:`reference_step` on the readable oracles
(``"reference"``) — and checks that the two stay numerically equivalent.
This module is the *case*: its flags, its timing callable, its equivalence
gate and its record schema.  The measurement loop, the shared flags,
persistence to ``BENCH_pic_hotpath.json`` and the exit codes belong to the
harness in :mod:`repro.utils.benchjson` (see ``docs/performance.md``).

Run it with ``python -m repro.pic.hotpath`` or ``python -m repro.cli
bench-hotpath`` (the same flag declarations); exit status 1 means the fused
and reference paths disagree, which lets CI use the benchmark as an
equivalence gate, 2 means a bad argument.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.pic import kernels
from repro.pic.deposition import deposit_current_esirkepov_reference
from repro.pic.interpolation import gather_fields_reference
from repro.pic.khi import KHIConfig, make_khi_simulation
from repro.pic.pusher import advance_positions, boris_push
from repro.pic.simulation import PICSimulation
from repro.utils.benchjson import BenchCase, best_of_interleaved, case_main

#: bench-tiny problem: the KHI grid/ppc of the ``bench-tiny`` workflow preset.
BENCH_TINY_GRID = (8, 16, 2)
BENCH_TINY_PPC = 4

#: relative tolerance of the fused-vs-reference field comparison; the paths
#: differ only in floating-point summation order, which stays many orders of
#: magnitude below this over a handful of steps
EQUIVALENCE_RTOL = 1e-9


@dataclass
class HotpathResult:
    """One hot-path measurement: per-kernel rates plus the equivalence check."""

    steps_per_sec: Dict[str, float]
    sections_ms: Dict[str, Dict[str, float]]
    n_steps: int
    warmup: int
    n_macro_particles: int
    grid_shape: Tuple[int, int, int]
    #: share of particles one step leaves in their cell along all three axes
    #: — the property the two-width Esirkepov deposit's saving scales with
    stay_fraction: float
    #: bytes of kernel scratch the fused path's simulation holds after its
    #: steps: the largest one kernel call needs (``Workspace.nbytes``)
    scratch_bytes: int
    equivalence_error: float
    equivalent: bool

    @property
    def speedup(self) -> float:
        return self.steps_per_sec["fused"] / self.steps_per_sec["reference"]

    @property
    def particle_updates_per_sec(self) -> Dict[str, float]:
        """Fig. 4's figure of merit, per path (as :meth:`PICSimulation.run`)."""
        return {kernel: self.n_macro_particles * rate
                for kernel, rate in self.steps_per_sec.items()}

    def params(self) -> Dict[str, object]:
        return {"grid_shape": list(self.grid_shape),
                "particles_per_cell": BENCH_TINY_PPC,
                "n_macro_particles": self.n_macro_particles,
                "chunk": kernels.CHUNK,
                "stay_fraction": self.stay_fraction,
                "n_steps": self.n_steps, "warmup": self.warmup}

    def metrics(self) -> Dict[str, object]:
        return {"steps_per_sec": self.steps_per_sec,
                "particle_updates_per_sec": self.particle_updates_per_sec,
                "speedup": self.speedup,
                "sections_ms_per_step": self.sections_ms,
                "scratch_bytes": self.scratch_bytes,
                "equivalence_error": self.equivalence_error,
                "equivalent": self.equivalent}


def reference_step(simulation: PICSimulation) -> None:
    """Advance ``simulation`` by one step on the reference kernels.

    The oracle of :meth:`PICSimulation.step`: the same phases in the same
    order, the same plugin hooks and timer sections, with
    :func:`~repro.pic.interpolation.gather_fields_reference`,
    :func:`~repro.pic.pusher.boris_push` and
    :func:`~repro.pic.deposition.deposit_current_esirkepov_reference` in
    place of the :mod:`repro.pic.kernels` the simulation runs.
    """
    if not simulation._started:
        for plugin in simulation.plugins:
            plugin.on_start(simulation)
        simulation._started = True
    dt = simulation.config.dt
    extent = simulation.config.grid.extent
    grid, timer = simulation.grid, simulation.timer

    grid.clear_currents()
    for s in simulation.species:
        with timer.section("gather"):
            e_at_p, b_at_p = gather_fields_reference(grid, s.positions)
        with timer.section("push"):
            boris_push(s, e_at_p, b_at_p, dt)
            old_positions = s.positions
            new_positions = advance_positions(s, dt, extent)
        with timer.section("deposit"):
            deposit_current_esirkepov_reference(grid, old_positions, new_positions,
                                                s.charge, s.weights, dt)
    with timer.section("fields"):
        simulation.solver.step(dt)
    simulation.step_index += 1
    with timer.section("plugins"):
        for plugin in simulation.plugins:
            plugin.on_step(simulation)


#: how each kernel path advances a simulation by one step
STEP = {"fused": PICSimulation.step, "reference": reference_step}


def _bench_config(grid_shape=BENCH_TINY_GRID, seed: int = 11) -> KHIConfig:
    return KHIConfig(grid_shape=tuple(grid_shape),
                     particles_per_cell=BENCH_TINY_PPC, seed=seed)


def _stay_fraction(simulation) -> float:
    """Step once; the share of particles that kept their cell."""
    cell = np.asarray(simulation.grid.config.cell_size)
    before = [np.floor(s.positions / cell) for s in simulation.species]
    simulation.step()
    return float(np.mean(np.concatenate(
        [(np.floor(s.positions / cell) == cells).all(axis=1)
         for s, cells in zip(simulation.species, before)])))


def _time_kernel(kernel: str, n_steps: int, warmup: int,
                 grid_shape) -> Tuple[float, Tuple[Dict[str, float], int]]:
    """Steps/sec of one kernel path + (per-section ms/step, particle count)."""
    step = STEP[kernel]
    simulation = make_khi_simulation(_bench_config(grid_shape))
    for _ in range(warmup):
        step(simulation)
    simulation.timer.reset()
    start = time.perf_counter()
    for _ in range(n_steps):
        step(simulation)
    wall = time.perf_counter() - start
    sections = {name: 1e3 * total / n_steps
                for name, total in simulation.timer.totals().items()}
    return n_steps / wall, (sections, simulation.n_macro_particles)


def check_equivalence(n_steps: int = 10,
                      grid_shape=BENCH_TINY_GRID) -> float:
    """Max relative field/position deviation, fused vs reference, after a run.

    Both paths step the *same* initial state; the return value is the worst
    relative difference over all six field components and the particle
    positions of every species.
    """
    sims = {kernel: make_khi_simulation(_bench_config(grid_shape))
            for kernel in STEP}
    for kernel, simulation in sims.items():
        for _ in range(n_steps):
            STEP[kernel](simulation)
    fused, reference = sims["fused"], sims["reference"]
    worst = 0.0
    for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz"):
        a = fused.grid.component(name)
        b = reference.grid.component(name)
        scale = np.max(np.abs(b)) + 1e-300
        worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    for s_fused, s_ref in zip(fused.species, reference.species):
        scale = np.max(np.abs(s_ref.positions)) + 1e-300
        worst = max(worst, float(np.max(np.abs(s_fused.positions
                                               - s_ref.positions)) / scale))
    return worst


def run_hotpath_benchmark(n_steps: int = 40, warmup: int = 5,
                          equivalence_steps: int = 10, repeats: int = 3,
                          grid_shape=BENCH_TINY_GRID) -> HotpathResult:
    """Measure both kernel paths and their equivalence on bench-tiny.

    The two kernels are measured in ``repeats`` interleaved blocks and the
    best block per kernel is kept (:func:`best_of_interleaved`).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    best = best_of_interleaved(
        {kernel: partial(_time_kernel, kernel, n_steps, warmup, grid_shape)
         for kernel in ("reference", "fused")}, repeats)
    rates: Dict[str, float] = {}
    sections: Dict[str, Dict[str, float]] = {}
    for kernel, (rate, (per_section, n_macro)) in best.items():
        rates[kernel] = rate
        sections[kernel] = per_section
    error = check_equivalence(equivalence_steps, grid_shape)
    simulation = make_khi_simulation(_bench_config(grid_shape))
    for _ in range(warmup):
        simulation.step()
    return HotpathResult(steps_per_sec=rates, sections_ms=sections,
                         n_steps=n_steps, warmup=warmup,
                         n_macro_particles=n_macro,
                         grid_shape=tuple(grid_shape),
                         stay_fraction=_stay_fraction(simulation),
                         scratch_bytes=simulation._workspace.nbytes,
                         equivalence_error=error,
                         equivalent=error < EQUIVALENCE_RTOL)


def format_result(result: HotpathResult) -> str:
    lines = [
        f"PIC hot path, {'x'.join(str(n) for n in result.grid_shape)} cells, "
        f"{result.n_macro_particles} macro-particles "
        f"({result.stay_fraction:.1%} stay in their cell), {result.n_steps} steps:",
    ]
    for kernel in ("reference", "fused"):
        split = ", ".join(f"{name} {ms:.2f}" for name, ms in
                          sorted(result.sections_ms[kernel].items(),
                                 key=lambda kv: -kv[1]) if ms >= 0.01)
        lines.append(f"  {kernel:>9}: {result.steps_per_sec[kernel]:7.1f} "
                     f"steps/s, {result.particle_updates_per_sec[kernel] / 1e6:.2f} M "
                     f"particle updates/s  (ms/step: {split})")
    lines.append(f"  speedup  : {result.speedup:.2f}x")
    lines.append(f"  scratch  : {result.scratch_bytes / 1e6:.2f} MB mapped for "
                 f"the fused kernels (the largest call's need)")
    status = "OK" if result.equivalent else "FAILED"
    lines.append(f"  fused == reference: {status} "
                 f"(max rel deviation {result.equivalence_error:.2e})")
    return "\n".join(lines)


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--steps", type=int, default=40,
                        help="timed steps per kernel (default 40)")
    parser.add_argument("--warmup", type=int, default=5,
                        help="untimed warmup steps per kernel (default 5)")
    parser.add_argument("--grid", type=int, nargs=3, default=BENCH_TINY_GRID,
                        metavar=("NX", "NY", "NZ"),
                        help="override the bench-tiny grid cells")


CASE = BenchCase(
    topic="pic_hotpath",
    description="benchmark the fused vs reference PIC hot path on the "
                "bench-tiny problem (appends to BENCH_pic_hotpath.json)",
    add_arguments=_add_arguments,
    run=lambda args: run_hotpath_benchmark(
        n_steps=args.steps, warmup=args.warmup, repeats=args.repeats,
        grid_shape=tuple(args.grid)),
    format_result=format_result,
    gate_failure=lambda result: "fused and reference kernels disagree")


def main(argv: Optional[Sequence[str]] = None) -> int:
    return case_main(CASE, "python -m repro.pic.hotpath", argv)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
