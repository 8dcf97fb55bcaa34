"""The fused kernels against the reference oracle over a long run.

Tier-1 compares ``PICSimulation.step`` with ``reference_step`` over five
steps; a drift that only shows after a hundred would pass it.  This is the
suite's ``slow`` test (skipped unless ``--runslow`` is given; CI runs it in
the ``bench-smoke`` job).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.pic.diagnostics import ChargeConservationMonitor
from repro.pic.khi import make_khi_simulation
from repro.workflow import get_preset
from tests.pic.test_kernels_fused import EQUIVALENCE_RTOL, STEP

REFERENCE_JSON = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                              "bench", "reference.json")
#: ``coupled-train-bound`` is this problem (the ``bench-tiny`` KHI at a seed
#: ``bench/make_reference.py`` used) stepped 80 times
BAND_KEY, BAND_STEPS, SEED = "coupled-train-bound@80", 80, 11


def worst_deviation(fused, reference) -> float:
    """Largest relative difference over the six fields and every momentum."""
    pairs = [(fused.grid.component(name), reference.grid.component(name))
             for name in ("Ex", "Ey", "Ez", "Bx", "By", "Bz")]
    pairs += [(a.momenta, b.momenta) for a, b in zip(fused.species, reference.species)]
    return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b))) for a, b in pairs)


@pytest.mark.slow
def test_fused_tracks_reference_over_200_steps():
    with open(REFERENCE_JSON, encoding="utf-8") as handle:
        low, high = json.load(handle)["workloads"][BAND_KEY]["energy_drift"]
    khi = replace(get_preset("bench-tiny").khi, seed=SEED)
    assert khi.grid_shape == (8, 16, 2)
    sims = {kernel: make_khi_simulation(khi) for kernel in STEP}
    monitors = {kernel: ChargeConservationMonitor() for kernel in sims}
    for kernel, simulation in sims.items():
        simulation.add_plugin(monitors[kernel])
    energy_before = {kernel: sim.total_energy() for kernel, sim in sims.items()}
    for step in range(1, 201):
        for kernel, simulation in sims.items():
            STEP[kernel](simulation)
        if step in (1, 100, 200):           # continuity, every step so far
            for kernel, monitor in monitors.items():
                assert len(monitor.residuals) == step
                assert monitor.max_residual() < 1e-12, (kernel, step)
        # the paths differ by summation order only: ten steps stay below
        # EQUIVALENCE_RTOL (the tier-1 gate) and the bound grows with the run
        assert worst_deviation(sims["fused"], sims["reference"]) \
            < EQUIVALENCE_RTOL * max(1.0, step / 10), step
        if step == BAND_STEPS:
            for kernel, simulation in sims.items():
                drift = simulation.total_energy() / energy_before[kernel] - 1.0
                assert low <= drift <= high, (kernel, drift)
    for kernel, simulation in sims.items():     # and no blow-up afterwards
        drift = simulation.total_energy() / energy_before[kernel] - 1.0
        assert 0.0 < drift < 1e-3, (kernel, drift)
