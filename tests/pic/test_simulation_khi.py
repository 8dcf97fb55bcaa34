"""Integration tests of the full PIC loop and the KHI setup."""

from __future__ import annotations

import numpy as np
import pytest

from repro import constants
from repro.analysis.histograms import momentum_histogram
from repro.pic.diagnostics import ChargeConservationMonitor, EnergyHistory
from repro.pic.grid import GridConfig
from repro.pic.khi import (FLOW_AXIS, SHEAR_AXIS, KHIConfig, growth_rate_estimate,
                           make_khi_simulation)
from repro.pic.particles import ParticleSpecies
from repro.pic.simulation import PICSimulation, Plugin, SimulationConfig


def tiny_khi(steps_grid=(8, 16, 2), ppc=4, seed=3):
    return KHIConfig(grid_shape=steps_grid, particles_per_cell=ppc, seed=seed)


class TestSimulationLoop:
    def test_single_particle_free_streaming(self):
        grid = GridConfig(shape=(8, 8, 8), cell_size=(1e-5,) * 3)
        electrons = ParticleSpecies.electrons(
            positions=np.array([[4e-5, 4e-5, 4e-5]]),
            momenta=np.array([[0.1, 0.0, 0.0]]),
            weights=np.array([1.0]))
        sim = PICSimulation(SimulationConfig(grid=grid), species=[electrons])
        x0 = electrons.positions[0, 0]
        v = 0.1 / np.sqrt(1.01) * constants.SPEED_OF_LIGHT
        sim.step()
        # single macro-particle with weight 1: self-fields are negligible
        assert electrons.positions[0, 0] == pytest.approx(x0 + v * sim.config.dt, rel=1e-6)

    def test_plugin_hooks_invoked(self):
        events = []

        class Probe(Plugin):
            def on_start(self, simulation):
                events.append("start")

            def on_step(self, simulation):
                events.append("step")

            def on_finish(self, simulation):
                events.append("finish")

        cfg = tiny_khi()
        sim = make_khi_simulation(cfg)
        sim.add_plugin(Probe())
        sim.run(3)
        assert events == ["start", "step", "step", "step", "finish"]

    @pytest.mark.parametrize("name, bad", [("Ex", np.nan), ("Bz", np.inf)])
    def test_a_non_finite_field_fails_its_step(self, name, bad):
        """Even when a plugin writes it in the last step, which no later
        deposit would see: the step raises and names the step."""
        class Poison(Plugin):
            order = 200

            def on_step(self, simulation):
                if simulation.step_index == 3:
                    simulation.grid.component(name)[0, 1, 0] = bad

        sim = make_khi_simulation(tiny_khi())
        sim.add_plugin(Poison())
        sim.step()
        sim.step()
        with pytest.raises(FloatingPointError,
                           match=f"non-finite {name} after step 3"):
            sim.step()

    def test_run_advances_n_steps(self):
        sim = make_khi_simulation(tiny_khi())
        assert sim.run(2) is None
        assert sim.step_index == 2

    def test_invalid_config(self):
        grid = GridConfig(shape=(4, 4, 4), cell_size=(1e-5,) * 3)
        with pytest.raises(ValueError):
            SimulationConfig(grid=grid, dt=1.0)
        # NaN passes both ``dt <= 0`` and ``dt > CFL`` unless asked directly
        with pytest.raises(ValueError, match="positive and finite"):
            SimulationConfig(grid=grid, dt=float("nan"))

    def test_get_species(self):
        sim = make_khi_simulation(tiny_khi())
        assert sim.get_species("electrons").name == "electrons"
        with pytest.raises(KeyError):
            sim.get_species("positrons")


class TestKHISetup:
    def test_counterstreaming_initialisation(self):
        cfg = tiny_khi()
        sim = make_khi_simulation(cfg)
        electrons = sim.get_species("electrons")
        y = electrons.positions[:, SHEAR_AXIS]
        extent_y = cfg.grid_config.extent[SHEAR_AXIS]
        inner = (y > 0.25 * extent_y) & (y < 0.75 * extent_y)
        ux = electrons.momenta[:, FLOW_AXIS]
        assert np.mean(ux[inner]) > 0.1
        assert np.mean(ux[~inner]) < -0.1

    def test_charge_neutral_start(self):
        sim = make_khi_simulation(tiny_khi())
        charges = {s.name: s.charge * s.weights.sum() for s in sim.species}
        total_charge = sum(charges.values())
        electron_charge = abs(charges["electrons"])
        assert abs(total_charge) < 1e-9 * electron_charge

    def test_particle_count_matches_ppc(self):
        cfg = tiny_khi(ppc=5)
        sim = make_khi_simulation(cfg)
        assert sim.get_species("electrons").n_macro == cfg.n_macro_electrons
        assert cfg.n_macro_electrons == np.prod(cfg.grid_shape) * 5

    def test_paper_preset(self):
        """Section IV-A: 192x256x12 cubic cells of 93.5 um on 16 GPUs,
        beta = 0.2, 9 particles per cell."""
        cfg = KHIConfig.paper()
        assert cfg.grid_shape == constants.PAPER_SMALLEST_GRID
        assert cfg.grid_config.cell_size == (pytest.approx(93.5e-6),) * 3
        assert cfg.particles_per_cell == 9
        assert cfg.beta == pytest.approx(0.2)
        assert cfg.n_macro_electrons == 192 * 256 * 12 * 9
        assert constants.PAPER_SMALLEST_GPUS == 16

    def test_unstable_config_warns(self):
        assert KHIConfig().omega_p_dt() < 2.0    # the default density is stable
        cfg = KHIConfig(grid_shape=(4, 8, 2), density=1e28)
        with pytest.warns(RuntimeWarning):
            make_khi_simulation(cfg)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1e-15])
    def test_a_bad_time_step_fails_in_the_config(self, dt):
        """The time step is no longer a KHI setting: the simulation's own
        config refuses a bad one before any particle is pushed."""
        grid = tiny_khi().grid_config
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            SimulationConfig(grid=grid, dt=dt)

    def test_the_time_step_is_the_courant_step_and_every_species_moves(self):
        cfg = tiny_khi()
        sim = make_khi_simulation(cfg)
        assert sim.config.dt == cfg.grid_config.courant_time_step()
        before = [s.positions.copy() for s in sim.species]
        sim.step()
        assert [s.name for s in sim.species] == ["electrons", "protons"]
        assert all(np.any(s.positions != old)
                   for s, old in zip(sim.species, before))

    def test_growth_rate_estimate_positive(self):
        assert growth_rate_estimate(KHIConfig()) > 0

    def test_reproducible_with_seed(self):
        a = make_khi_simulation(tiny_khi(seed=7)).get_species("electrons")
        b = make_khi_simulation(tiny_khi(seed=7)).get_species("electrons")
        np.testing.assert_allclose(a.positions, b.positions)
        np.testing.assert_allclose(a.momenta, b.momenta)


class TestKHIPhysics:
    def test_energy_approximately_conserved(self):
        """Total (field + kinetic) energy drifts by less than a few per cent."""
        cfg = tiny_khi(steps_grid=(8, 16, 2), ppc=4)
        sim = make_khi_simulation(cfg)
        history = EnergyHistory()
        sim.add_plugin(history)
        sim.run(40)
        total = history.total()
        drift = abs(total[-1] - total[0]) / total[0]
        assert drift < 0.05

    def test_charge_conservation_during_run(self):
        cfg = tiny_khi(steps_grid=(6, 12, 2), ppc=3)
        sim = make_khi_simulation(cfg)
        monitor = ChargeConservationMonitor()
        sim.add_plugin(monitor)
        sim.run(5)
        assert monitor.max_residual() < 1e-8

    def test_magnetic_field_grows_from_shear_flow(self):
        """The counter-streaming shear flow drives magnetic field growth
        (the onset of the KHI / current filamentation), Fig. 1 physics."""
        cfg = KHIConfig(grid_shape=(12, 24, 2), particles_per_cell=6, seed=11)
        sim = make_khi_simulation(cfg)
        history = EnergyHistory(interval=10)
        sim.add_plugin(history)
        sim.run(250)
        magnetic = np.asarray(history.magnetic)
        early = magnetic[1] if magnetic[0] == 0.0 else magnetic[0]
        assert magnetic[-1] > 10.0 * early

    def test_momentum_histogram_shows_two_streams(self):
        sim = make_khi_simulation(tiny_khi())
        electrons = sim.get_species("electrons")
        centres, hist = momentum_histogram(electrons.momenta[:, 0])
        gamma_beta = 0.2 / np.sqrt(1 - 0.04)
        peak_positive = centres[np.argmax(hist * (centres > 0))]
        peak_negative = centres[np.argmax(hist * (centres < 0))]
        assert peak_positive == pytest.approx(gamma_beta, abs=0.05)
        assert peak_negative == pytest.approx(-gamma_beta, abs=0.05)
