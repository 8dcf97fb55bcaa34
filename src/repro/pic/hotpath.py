"""The PIC hot-path benchmark case: fused kernels vs their reference oracle.

Measures steps/second of the full PIC step (gather → push → Esirkepov
deposit → field solve) on the bench-tiny KHI problem (or any ``--grid``)
— :meth:`PICSimulation.step` on the :mod:`repro.pic.kernels` it runs
(``"fused"``) and :func:`reference_step` on the readable oracles
(``"reference"``) — and checks that the two stay numerically equivalent.
When the problem gives a helper thread a species (one of at least ``CHUNK``
particles, as at ``--grid 32 64 6``) it also times the fused step with a
helper lent, as the serial driver does (``"helper"``), and checks that it
is the fused step bit for bit.
This module is the *case*: its flags, its timing callable, its equivalence
gate and its record schema.  The measurement loop, the shared flags,
persistence to ``BENCH_pic_hotpath.json`` and the exit codes belong to the
harness in :mod:`repro.utils.benchjson` (see ``docs/performance.md``).

Run it with ``python -m repro.cli bench-hotpath``; exit status 1 means a
gate failed — fused and reference disagree, or the helper's step differs from
the one-thread step in any bit — which lets CI use the benchmark as an
equivalence gate, 2 means a bad argument.
"""

from __future__ import annotations

import argparse
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

import numpy as np

from repro.pic import kernels
from repro.pic.deposition import deposit_current_esirkepov_reference
from repro.pic.interpolation import gather_fields_reference
from repro.pic.khi import KHIConfig, make_khi_simulation
from repro.pic.pusher import advance_positions, boris_push, wrap_periodic
from repro.pic.simulation import PICSimulation
from repro.utils.benchjson import BenchCase, best_of_interleaved

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
    #: bytes of kernel scratch a simulation holds after steps with a helper:
    #: every ``Workspace`` of the stepping thread and the helper's
    scratch_bytes: int
    equivalence_error: float
    #: the helper's step left every array as the one-thread step did;
    #: ``None`` when the problem gives the helper no species (no row timed)
    helper_identical: Optional[bool]

    @property
    def equivalent(self) -> bool:
        """The gate: fused == reference within tolerance, helper == fused."""
        return (self.equivalence_error < EQUIVALENCE_RTOL
                and self.helper_identical is not False)

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
                "helper_identical": self.helper_identical,
                "equivalent": self.equivalent}


#: Seed of the benchmarked KHI problem, and the steps the equivalence
#: checks run both paths for.
BENCH_SEED = 11
EQUIVALENCE_STEPS = 10


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
            new_positions = advance_positions(s, dt)
        with timer.section("deposit"):
            deposit_current_esirkepov_reference(grid, s.positions, new_positions,
                                                s.charge, s.weights, dt)
            s.positions = wrap_periodic(new_positions, extent)
    with timer.section("fields"):
        simulation.solver.step(dt)
    simulation.step_index += 1
    with timer.section("plugins"):
        for plugin in simulation.plugins:
            plugin.on_step(simulation)


#: how each kernel path advances a simulation by one step
STEP = {"fused": PICSimulation.step, "reference": reference_step}
#: the paths the case can time: the kernel paths, and the fused one with a
#: helper (only on a problem that gives the helper a species)
PATHS = ("reference", "fused", "helper")


@contextmanager
def _stepping(path: str, simulation: PICSimulation):
    """The step of ``path`` on ``simulation``, with a helper lent while the
    block runs for ``"helper"``."""
    if path != "helper":
        yield partial(STEP[path], simulation)
        return
    with ThreadPoolExecutor(max_workers=1) as helper, simulation.lent(helper):
        yield simulation.step


def _bench_config(grid_shape=BENCH_TINY_GRID) -> KHIConfig:
    return KHIConfig(grid_shape=tuple(grid_shape),
                     particles_per_cell=BENCH_TINY_PPC, seed=BENCH_SEED)


def engages_helper(grid_shape=BENCH_TINY_GRID) -> bool:
    """Whether a step of the problem hands a lent helper a species: the
    second of a pair holds at least ``CHUNK`` particles."""
    species = make_khi_simulation(_bench_config(grid_shape)).species
    return any(s.n_macro >= kernels.CHUNK for s in species[1::2])


def _stay_fraction(simulation) -> float:
    """Step once; the share of particles that kept their cell."""
    cell = np.asarray(simulation.grid.config.cell_size)
    before = [np.floor(s.positions / cell) for s in simulation.species]
    simulation.step()
    return float(np.mean(np.concatenate(
        [(np.floor(s.positions / cell) == cells).all(axis=1)
         for s, cells in zip(simulation.species, before)])))


def _time_kernel(path: str, n_steps: int, warmup: int,
                 grid_shape) -> Tuple[float, Tuple[Dict[str, float], int]]:
    """Steps/sec of one path + (per-section ms/step, particle count).  The
    sections of a helper's step add up both threads' time."""
    simulation = make_khi_simulation(_bench_config(grid_shape))
    with _stepping(path, simulation) as step:
        for _ in range(warmup):
            step()
        simulation.timer.reset()
        start = time.perf_counter()
        for _ in range(n_steps):
            step()
        wall = time.perf_counter() - start
    sections = {name: 1e3 * total / n_steps
                for name, total in simulation.timer.totals().items()}
    return n_steps / wall, (sections, simulation.n_macro_particles)


def check_equivalence(grid_shape=BENCH_TINY_GRID) -> float:
    """Max relative field/position deviation, fused vs reference, after
    :data:`EQUIVALENCE_STEPS` steps.

    Both paths step the *same* initial state; the return value is the worst
    relative difference over all six field components and the particle
    positions of every species.
    """
    sims = {kernel: make_khi_simulation(_bench_config(grid_shape))
            for kernel in STEP}
    for kernel, simulation in sims.items():
        for _ in range(EQUIVALENCE_STEPS):
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


def helper_is_identical(grid_shape) -> bool:
    """Whether :data:`EQUIVALENCE_STEPS` steps with a helper lent leave every
    field, current, position and momentum as the one-thread steps do, bit
    for bit."""
    states = []
    for path in ("fused", "helper"):
        simulation = make_khi_simulation(_bench_config(grid_shape))
        with _stepping(path, simulation) as step:
            for _ in range(EQUIVALENCE_STEPS):
                step()
        grid = simulation.grid
        states.append([grid.component(name) for name in
                       ("Ex", "Ey", "Ez", "Bx", "By", "Bz", "Jx", "Jy", "Jz")]
                      + [array for s in simulation.species
                         for array in (s.positions, s.momenta)])
    return all(np.array_equal(a, b) for a, b in zip(*states))


def run_hotpath_benchmark(n_steps: int = 40, warmup: int = 5,
                          repeats: int = 3,
                          grid_shape=BENCH_TINY_GRID) -> HotpathResult:
    """Measure both kernel paths and their equivalence on bench-tiny.

    The two kernels are measured in ``repeats`` interleaved blocks and the
    best block per kernel is kept (:func:`best_of_interleaved`).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    engaged = engages_helper(grid_shape)
    best = best_of_interleaved(
        {path: partial(_time_kernel, path, n_steps, warmup, grid_shape)
         for path in (PATHS if engaged else PATHS[:2])}, repeats)
    rates: Dict[str, float] = {}
    sections: Dict[str, Dict[str, float]] = {}
    for path, (rate, (per_section, n_macro)) in best.items():
        rates[path] = rate
        sections[path] = per_section
    error = check_equivalence(grid_shape)
    simulation = make_khi_simulation(_bench_config(grid_shape))
    with _stepping("helper", simulation) as step:
        for _ in range(warmup):
            step()
        stay_fraction = _stay_fraction(simulation)
    return HotpathResult(steps_per_sec=rates, sections_ms=sections,
                         n_steps=n_steps, warmup=warmup,
                         n_macro_particles=n_macro,
                         grid_shape=tuple(grid_shape),
                         stay_fraction=stay_fraction,
                         scratch_bytes=simulation.scratch_bytes,
                         equivalence_error=error,
                         helper_identical=helper_is_identical(grid_shape)
                         if engaged else None)


def format_result(result: HotpathResult) -> str:
    lines = [
        f"PIC hot path, {'x'.join(str(n) for n in result.grid_shape)} cells, "
        f"{result.n_macro_particles} macro-particles "
        f"({result.stay_fraction:.1%} stay in their cell), {result.n_steps} steps:",
    ]
    for path in (path for path in PATHS if path in result.steps_per_sec):
        split = ", ".join(f"{name} {ms:.2f}" for name, ms in
                          sorted(result.sections_ms[path].items(),
                                 key=lambda kv: -kv[1]) if ms >= 0.01)
        lines.append(f"  {path:>9}: {result.steps_per_sec[path]:7.1f} "
                     f"steps/s, {result.particle_updates_per_sec[path] / 1e6:.2f} M "
                     f"particle updates/s  (ms/step: {split})")
    rates = result.steps_per_sec
    speedup = f"  speedup  : {result.speedup:.2f}x fused over reference"
    if "helper" in rates:
        speedup += f", {rates['helper'] / rates['fused']:.2f}x helper over fused"
    lines.append(speedup)
    lines.append(f"  scratch  : {result.scratch_bytes / 1e6:.2f} MB for "
                 f"the fused kernels on both threads (each one's largest "
                 f"call)")
    status = "OK" if result.equivalence_error < EQUIVALENCE_RTOL else "FAILED"
    lines.append(f"  fused == reference: {status} "
                 f"(max rel deviation {result.equivalence_error:.2e})")
    if result.helper_identical is None:
        lines.append(f"  helper == fused: not run (no species of "
                     f"{kernels.CHUNK} particles for a helper)")
    else:
        status = "OK" if result.helper_identical else "FAILED"
        lines.append(f"  helper == fused: {status} (bit for bit)")
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
    gate_failure=lambda result: (
        "fused and reference kernels disagree"
        if result.equivalence_error >= EQUIVALENCE_RTOL
        else "the step with a helper differs from the one-thread step"))
