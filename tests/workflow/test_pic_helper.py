"""The serial driver's PIC helper thread: when it starts, what it may leave
behind, and that a step on two threads is the step on one, bit for bit."""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import (WorkerPool, WorkerPoolExecutor,
                            get_campaign_preset)
from repro.pic import kernels
from repro.pic import simulation as pic_simulation
from repro.pic.khi import make_khi_simulation
from repro.workflow import WorkflowBuilder, get_preset
from repro.workflow.drivers import HELPER_THREAD, has_the_box
from tests.core.test_artificial_scientist import tiny_config

FIELDS = ("Ex", "Ey", "Ez", "Bx", "By", "Bz", "Jx", "Jy", "Jz")


def state_of(simulation):
    """Every array a step writes."""
    arrays = [simulation.grid.component(name) for name in FIELDS]
    for species in simulation.species:
        arrays += [species.positions, species.momenta]
    return [array.copy() for array in arrays]


def helper_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith(HELPER_THREAD)]


@pytest.fixture
def gather_threads(monkeypatch):
    """The names of the threads every gather of a run runs on."""
    names = []
    gather = pic_simulation.gather_fields

    def spy(*args, **kwargs):
        names.append(threading.current_thread().name)
        return gather(*args, **kwargs)
    monkeypatch.setattr(pic_simulation, "gather_fields", spy)
    return names


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 64 particles: the tiny problem's 432 per species engage
    the helper and are seven blocks each (on two usable cores, which the
    serial driver asks for before it lends one)."""
    monkeypatch.setattr(kernels, "CHUNK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


def tiny_session(driver="serial"):
    return WorkflowBuilder().config(tiny_config()).driver(driver).build()


def box_worker(payload):
    """A campaign run's summary, saying whether the run may take a second
    core for a helper."""
    return {"final_total_loss": 1.0, "training_iterations": 1,
            "samples_streamed": 1, "wall_time_s": 0.0, "ok": True,
            "has_the_box": has_the_box()}


class TestWhenTheHelperSteps:
    def test_the_serial_driver_steps_the_second_species_on_it(
            self, small_blocks, gather_threads):
        tiny_session().run(2).raise_if_failed()
        main = threading.main_thread().name
        # each species is gathered in two parts of whole blocks
        assert len(gather_threads) == 8
        assert gather_threads.count(main) == 4
        assert all(name.startswith(HELPER_THREAD)
                   for name in gather_threads if name != main)

    def test_bench_tiny_never_starts_it(self, gather_threads):
        """1 024 particles a species are below ``CHUNK``: the hand-off would
        cost more than the second core gives."""
        seen = []
        session = (WorkflowBuilder().preset("bench-tiny").driver("serial")
                   .on_step(lambda _, index: seen.extend(helper_threads()))
                   .build())
        species = session.simulation.species
        assert all(s.n_macro < kernels.CHUNK for s in species)
        session.run(2).raise_if_failed()
        assert seen == []
        assert set(gather_threads) == {threading.main_thread().name}

    def test_the_pipelined_driver_never_lends_it(self, small_blocks,
                                                 gather_threads):
        """Its producer already steps beside the trainer threads."""
        tiny_session("pipelined").run(2).raise_if_failed()
        assert len(set(gather_threads)) == 1
        assert not any(name.startswith(HELPER_THREAD)
                       for name in gather_threads)


class TestOnlyARunWithTheBoxToItselfGetsOne:
    """Where runs go side by side, a helper is one busy thread more than
    the box has cores."""

    def test_a_run_off_the_main_thread_never_starts_it(
            self, small_blocks, gather_threads):
        """The service steps its campaigns on job threads."""
        results = []
        job = threading.Thread(target=lambda: results.append(
            tiny_session().run(2)), name="job")
        job.start()
        job.join()
        results[0].raise_if_failed()
        assert set(gather_threads) == {"job"}

    def test_a_run_in_a_pool_process_never_starts_it(
            self, small_blocks, gather_threads, monkeypatch):
        """A campaign's worker processes run beside each other."""
        with multiprocessing.get_context().Pool(1) as pool:
            assert pool.apply(has_the_box) is False
        assert has_the_box()
        monkeypatch.setattr(multiprocessing, "parent_process", object)
        tiny_session().run(2).raise_if_failed()
        assert set(gather_threads) == {threading.main_thread().name}

    def test_a_run_on_the_campaign_worker_pool_never_starts_it(
            self, small_blocks, fast_heartbeat, fork_pools):
        """The ``workers`` executor's processes run campaigns side by
        side, so the serial driver lends none of its runs a helper."""
        assert has_the_box()
        spec = get_campaign_preset("campaign-smoke")
        payloads = [run.payload() for run in spec.resolve()][:2]
        pool = WorkerPool(2)
        try:
            records = WorkerPoolExecutor(max_workers=2, pool=pool).execute(
                payloads, box_worker)
        finally:
            pool.shutdown()
        assert [record.summary["has_the_box"] for record in records] == \
            [False, False]

    def test_a_run_on_one_core_never_starts_it(self, small_blocks,
                                               gather_threads, monkeypatch):
        """What counts is the CPUs the process may run on (``taskset -c
        0`` on a two-core host), not the host's."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert not has_the_box()
        tiny_session().run(2).raise_if_failed()
        assert set(gather_threads) == {threading.main_thread().name}


class TestLifecycle:
    def test_no_thread_outlives_a_run(self, small_blocks, gather_threads):
        baseline = threading.active_count()
        tiny_session().run(2).raise_if_failed()
        assert any(name.startswith(HELPER_THREAD) for name in gather_threads)
        assert threading.active_count() == baseline
        assert helper_threads() == []

    def test_no_thread_outlives_a_failed_run(self, small_blocks):
        baseline = threading.active_count()
        session = tiny_session()
        session.simulation.species[1].positions[-1, 0] = np.inf
        assert not session.run(2).ok
        assert threading.active_count() == baseline
        assert helper_threads() == []


class TestFaults:
    @pytest.mark.parametrize("fault, message", [
        ("position", "must be finite"),          # the gather refuses it
        ("momentum", "finite particle positions"),  # the last deposit block does
    ], ids=["position", "momentum"])
    def test_a_fault_on_the_helper_fails_the_run_and_adds_no_current(
            self, small_blocks, fault, message):
        """The helper's species fails in its last block: the run surfaces
        the ``ValueError`` as its producer exception, and ``J`` holds the
        first species' current and none of the second's blocks."""
        session = tiny_session()
        failing = session.simulation.species[1]
        if fault == "position":
            failing.positions[-1] = np.nan
        else:
            failing.momenta[-1] = np.nan

        expected = tiny_session().simulation
        expected.species = expected.species[:1]
        expected.step()

        result = session.run(2)
        assert isinstance(result.producer_exception, ValueError)
        assert message in str(result.producer_exception)
        assert result.report.n_steps == 0
        for name in ("Jx", "Jy", "Jz"):
            np.testing.assert_array_equal(
                session.simulation.grid.component(name),
                expected.grid.component(name))


    def test_when_both_threads_fail_the_stepping_threads_error_surfaces(
            self, small_blocks):
        """The first species' error is the run's, whichever thread ends
        first; the helper's waits behind it."""
        session = tiny_session()
        session.simulation.species[0].positions[0] = np.nan
        session.simulation.species[1].momenta[-1] = np.nan
        result = session.run(2)
        assert isinstance(result.producer_exception, ValueError)
        assert "must be finite" in str(result.producer_exception)
        assert helper_threads() == []


class TestBitIdentity:
    def test_laptop_steps_on_two_threads_as_on_one(self):
        """``laptop`` at 18 432 particles a species, three blocks each, so
        the helper's current is three blocks added after the first's."""
        khi = replace(get_preset("laptop").khi, grid_shape=(16, 32, 4),
                      particles_per_cell=9)
        one, two = make_khi_simulation(khi), make_khi_simulation(khi)
        assert all(s.n_macro == 18_432 for s in two.species)
        with ThreadPoolExecutor(max_workers=1) as helper, two.lent(helper):
            for _ in range(4):
                one.step()
                two.step()
        for got, want in zip(state_of(two), state_of(one)):
            np.testing.assert_array_equal(got, want)

    def test_the_serial_driver_matches_the_one_thread_pipelined_producer(
            self, small_blocks):
        """The same seed through both drivers: every PIC array and every
        streamed byte agree."""
        config = replace(tiny_config(), seed=5)
        runs = {}
        for driver in ("serial", "pipelined"):
            session = WorkflowBuilder().config(config).driver(driver).build()
            result = session.run(3)
            result.raise_if_failed()
            runs[driver] = (state_of(session.simulation),
                            result.report.bytes_streamed)
        for got, want in zip(runs["serial"][0], runs["pipelined"][0]):
            np.testing.assert_array_equal(got, want)
        assert runs["serial"][1] == runs["pipelined"][1]
