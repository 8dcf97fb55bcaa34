"""Tests of the growth-rate measurement utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.growth import (LINEAR_PHASE_R_SQUARED, _linear_fit,
                                   fit_exponential_growth, growth_rate_from_energy_history,
                                   growth_rate_from_radiation_history,
                                   identify_linear_phase)
from repro.pic.diagnostics import EnergyHistory


class TestExponentialFit:
    def test_recovers_known_rate(self):
        gamma = 2.0e10
        times = np.linspace(0, 1e-9, 50)
        energies = 1e-6 * np.exp(2.0 * gamma * times)
        fit = fit_exponential_growth(times, energies)
        assert fit.rate == pytest.approx(gamma, rel=1e-6)
        assert fit.energy_rate == pytest.approx(2 * gamma, rel=1e-6)
        assert fit.r_squared > 0.999

    def test_window_selection(self):
        times = np.linspace(0, 1.0, 40)
        energies = np.exp(3.0 * times)
        fit = fit_exponential_growth(times, energies, window=(5, 25))
        assert fit.window == (5, 25)
        assert fit.energy_rate == pytest.approx(3.0, rel=1e-6)

    def test_noisy_signal_still_close(self, rng):
        gamma = 1.0e10
        times = np.linspace(0, 2e-9, 80)
        energies = 1e-8 * np.exp(2 * gamma * times) * rng.lognormal(0.0, 0.1, size=80)
        fit = fit_exponential_growth(times, energies)
        assert fit.rate == pytest.approx(gamma, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_exponential_growth([0, 1], [1, 2])
        times = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            fit_exponential_growth(times, np.ones(10), window=(0, 2))
        with pytest.raises(ValueError):
            fit_exponential_growth(times, np.zeros(10))


class TestFromHistories:
    def test_from_energy_history_plugin(self):
        history = EnergyHistory()
        dt = 1e-13
        gamma = 5e10
        for step in range(0, 60, 2):
            history.steps.append(step)
            history.magnetic.append(1e-9 * np.exp(2 * gamma * step * dt))
            history.electric.append(0.0)
            history.kinetic.append(1.0)
        fit = growth_rate_from_energy_history(history, dt=dt)
        assert fit.rate == pytest.approx(gamma, rel=1e-3)

    def test_from_radiation_history(self):
        times = np.linspace(0, 1e-10, 30)
        power = 1e-3 * np.exp(4e10 * times)
        fit = growth_rate_from_radiation_history(times, power)
        assert fit.energy_rate == pytest.approx(4e10, rel=1e-3)

    def test_energy_and_radiation_rates_agree(self):
        """The paper's point: the growth rate is measurable from radiation."""
        times = np.linspace(0, 1e-10, 40)
        gamma = 3e10
        field_energy = 1e-9 * np.exp(2 * gamma * times)
        radiated_power = 5e-4 * np.exp(2 * gamma * times)
        from_fields = fit_exponential_growth(times, field_energy)
        from_radiation = growth_rate_from_radiation_history(times, radiated_power)
        assert from_fields.rate == pytest.approx(from_radiation.rate, rel=1e-6)


class TestLinearPhaseDetection:
    def test_finds_growth_window(self):
        times = np.arange(100, dtype=float)
        energies = np.concatenate([
            np.full(20, 1.0),                        # noise floor
            np.exp(0.3 * np.arange(40)),             # growth
            np.full(40, np.exp(0.3 * 39)),           # saturation
        ])
        start, stop = identify_linear_phase(energies)
        assert 15 <= start <= 40
        assert stop <= 65
        fit = fit_exponential_growth(times, energies, window=(start, stop))
        assert fit.energy_rate == pytest.approx(0.3, rel=0.2)

    def test_skips_the_start_up_transient(self):
        """Shaped like the default ``KHIConfig`` run (seed 42): zero field
        at step 0, a start-up that rises two decades to a stall by step 16,
        growth at the Grismayer rate, then a plateau.  The old noise-floor
        heuristic returned steps 1-11, the start-up, at 15.7x the rate."""
        rate = 0.014                                  # Gamma * dt per step
        steps = np.arange(501, dtype=float)
        start_up = -7.03 - 1.92 * np.exp(-(steps - 1) / 2.5)
        growth = start_up[16] + 2 * rate * (steps - 16) / np.log(10)
        energies = 10.0 ** np.minimum(np.where(steps <= 16, start_up, growth),
                                      -4.15)
        energies[0] = 0.0
        start, stop = identify_linear_phase(energies)
        assert 3 <= start <= 16 and stop >= 175
        fit = fit_exponential_growth(steps, energies, window=(start, stop))
        assert fit.rate == pytest.approx(rate, rel=0.1)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            identify_linear_phase([1.0, 2.0])

    @pytest.mark.parametrize("energies", [np.full(40, 3.0),
                                          np.exp(-0.2 * np.arange(40))],
                             ids=["flat", "decaying"])
    def test_a_series_that_never_grows_gets_its_middle_half(self, energies):
        assert identify_linear_phase(energies) == (10, 30)

    def test_picks_the_longest_straight_rise(self):
        """A short steep rise, a plateau, a long slow rise: the long one."""
        energies = np.exp(np.concatenate([0.5 * np.arange(12), np.full(10, 5.5),
                                          5.5 + 0.1 * np.arange(1, 41)]))
        start, stop = identify_linear_phase(energies)
        assert start >= 12 and stop == len(energies)
        fit = fit_exponential_growth(np.arange(len(energies)), energies,
                                     window=(start, stop))
        assert fit.energy_rate == pytest.approx(0.1, rel=0.05)

    def test_window_never_spans_a_non_positive_sample(self):
        """A zero sample splits the growth; the window is the longer side."""
        energies = np.exp(0.2 * np.arange(50))
        energies[15] = 0.0
        assert identify_linear_phase(energies) == (16, 50)

    def test_matches_a_direct_search_of_every_window(self):
        """The prefix-sum scan against fitting each window: the longest
        (then earliest) positive window whose log rises straight enough."""
        rng = np.random.default_rng(7)
        for n in rng.integers(5, 30, size=40):
            energies = np.exp(np.cumsum(rng.normal(0.3, 0.3, n)))
            energies[rng.random(n) < 0.1] = 0.0
            best, longest = (n // 4, max(n // 4 + 3, (3 * n) // 4)), 0
            for start, stop in ((a, b) for a in range(n) for b in range(a + 3, n + 1)
                                if b - a > longest and all(energies[a:b] > 0)):
                _, slope, r2 = _linear_fit(np.arange(start, stop),
                                           np.log(energies[start:stop]))
                if slope > 0 and r2 >= LINEAR_PHASE_R_SQUARED:
                    best, longest = (start, stop), stop - start
            assert identify_linear_phase(energies) == best

    @given(st.lists(st.floats(1e-12, 1e12), min_size=5, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_the_window_can_always_be_fitted(self, energies):
        start, stop = identify_linear_phase(energies)
        assert 0 <= start and start + 3 <= stop <= len(energies)
        fit = fit_exponential_growth(np.arange(len(energies)), energies,
                                     window=(start, stop))
        assert np.isfinite(fit.rate)
