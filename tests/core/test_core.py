"""Tests of the workflow configuration, transforms and producer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (MLConfig, RegionPartition, StreamingConfig,
                        StreamingProducerPlugin, WorkflowConfig, encode_point_cloud,
                        encode_spectrum, make_training_samples)
from repro.core.transforms import Region, decode_point_cloud
from repro.models.config import ModelConfig
from repro.core.producer import POINT_CLOUDS
from repro.openpmd import Series
from repro.pic.grid import GridConfig
from repro.pic.khi import KHIConfig, make_khi_simulation
from repro.pic.pusher import wrap_periodic
from repro.radiation.detector import RadiationDetector
from repro.streaming import SSTBroker


def small_workflow_config(**overrides):
    defaults = dict(
        khi=KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=4, seed=7),
        ml=MLConfig(model=ModelConfig(n_input_points=32, encoder_channels=(16, 32),
                                      encoder_head_hidden=24, latent_dim=24,
                                      decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                                      spectrum_dim=16, inn_blocks=2, inn_hidden=(24,)),
                    n_rep=1),
        region_counts=(1, 4, 1),
        n_detector_directions=2,
    )
    defaults.update(overrides)
    return WorkflowConfig(**defaults)


class TestWorkflowConfig:
    def test_detector_must_match_spectrum_dim(self):
        """The detector's directions x frequencies is the spectrum length."""
        for directions in (1, 2, 4, 8, 16):
            cfg = small_workflow_config(n_detector_directions=directions)
            assert directions * cfg.n_detector_frequencies \
                == cfg.ml.model.spectrum_dim

    def test_detector_directions_must_divide_spectrum_dim(self):
        assert small_workflow_config().n_detector_frequencies == 8
        assert small_workflow_config(n_detector_directions=4) \
            .n_detector_frequencies == 4
        with pytest.raises(ValueError, match=r"n_detector_directions \(3\) "
                                             r"must divide .*spectrum_dim \(16\)"):
            small_workflow_config(n_detector_directions=3)
        with pytest.raises(ValueError, match="n_detector_directions must be "
                                             "an integer >= 1"):
            small_workflow_config(n_detector_directions=0)

    def test_defaults_are_consistent(self):
        cfg = WorkflowConfig()
        assert cfg.ml.model.spectrum_dim == \
            cfg.n_detector_directions * cfg.n_detector_frequencies
        assert np.prod(cfg.region_counts) == 4


class TestRegionPartition:
    def test_partition_covers_box(self):
        grid = GridConfig(shape=(8, 16, 2), cell_size=(1e-5,) * 3)
        partition = RegionPartition(grid, (2, 4, 1))
        regions = partition.regions()
        assert len(regions) == 8
        uppers = np.max([r.upper for r in regions], axis=0)
        np.testing.assert_allclose(uppers, grid.extent)

    def test_region_of_assigns_all_particles(self, rng):
        grid = GridConfig(shape=(8, 16, 2), cell_size=(1e-5,) * 3)
        partition = RegionPartition(grid, (1, 4, 1))
        positions = rng.uniform(0, 1, size=(200, 3)) * np.asarray(grid.extent)
        ids = partition.region_of(positions)
        assert ids.min() >= 0 and ids.max() < np.prod(partition.region_counts)

    @pytest.mark.parametrize("counts", [(1, 4, 1), (2, 3, 2), (1, 1, 1), (3, 1, 5)])
    def test_region_of_is_the_whole_array_formula(self, counts, rng):
        """Wrapping only the cut axes, a column at a time, gives the ids the
        ``(N, 3)`` formula gives — in the box, on its faces and outside."""
        grid = GridConfig(shape=(8, 16, 6), cell_size=(1e-5,) * 3)
        partition = RegionPartition(grid, counts)
        extent = np.asarray(grid.extent)
        positions = rng.uniform(-2.0, 3.0, size=(400, 3)) * extent
        positions[:4] = [np.full(3, -0.0), extent, np.nextafter(extent, 0.0),
                         extent / np.asarray(counts)]
        sizes = extent / np.asarray(counts)
        idx = np.floor(wrap_periodic(positions, extent) / sizes).astype(np.int64)
        idx = np.minimum(idx, np.asarray(counts) - 1)
        expected = (idx[:, 0] * counts[1] + idx[:, 1]) * counts[2] + idx[:, 2]
        np.testing.assert_array_equal(partition.region_of(positions), expected)

    def test_point_cloud_encoding_roundtrip(self, rng):
        region = Region(index=(0, 0, 0), lower=(0.0, 0.0, 0.0), upper=(2.0, 4.0, 2.0))
        positions = rng.uniform(0, 1, size=(10, 3)) * np.array([2.0, 4.0, 2.0])
        momenta = rng.normal(size=(10, 3)) * 0.2
        cloud = encode_point_cloud(positions, momenta, region)
        assert np.all(np.abs(cloud[:, :3]) <= 1.0 + 1e-12)
        back_pos, back_mom = decode_point_cloud(cloud, region)
        np.testing.assert_allclose(back_pos, positions)
        np.testing.assert_allclose(back_mom, momenta)

    def test_spectrum_encoding_range(self, rng):
        spectrum = 10.0 ** rng.uniform(-12, 0, size=(2, 8))
        encoded = encode_spectrum(spectrum)
        assert encoded.shape == (16,)
        assert encoded.min() >= 0.0 and encoded.max() <= 1.0

    def test_invalid_partition(self):
        grid = GridConfig(shape=(8, 8, 8), cell_size=(1e-5,) * 3)
        with pytest.raises(ValueError):
            RegionPartition(grid, (0, 1, 1))


class TestMakeTrainingSamples:
    def test_samples_per_populated_region(self, rng):
        cfg = KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=4, seed=7)
        sim = make_khi_simulation(cfg)
        electrons = sim.get_species("electrons")
        detector = RadiationDetector.for_khi(density=cfg.density, n_directions=2,
                                             n_frequencies=8)
        partition = RegionPartition(cfg.grid_config, (1, 4, 1))
        samples = make_training_samples(electrons, electrons.momenta.copy(), detector,
                                        partition, n_points=32, step=0, time=0.0,
                                        dt=1e-13, rng=rng)
        assert len(samples) == 4
        for sample in samples:
            assert sample.point_cloud.shape == (32, 6)
            assert sample.spectrum.shape == (16,)
            assert sample.region in {"approaching", "receding", "vortex"}

    def test_momenta_preserved_in_encoding(self, rng):
        cfg = KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=4, seed=7)
        sim = make_khi_simulation(cfg)
        electrons = sim.get_species("electrons")
        detector = RadiationDetector.for_khi(density=cfg.density, n_directions=2,
                                             n_frequencies=8)
        partition = RegionPartition(cfg.grid_config, (1, 4, 1))
        samples = make_training_samples(electrons, electrons.momenta.copy(), detector,
                                        partition, n_points=64, step=0, time=0.0,
                                        dt=1e-13, rng=rng)
        # bulk regions keep the ±0.2c drift in the encoded momentum column
        drifts = {s.region: np.mean(s.point_cloud[:, 3]) for s in samples}
        assert any(v > 0.1 for v in drifts.values())
        assert any(v < -0.1 for v in drifts.values())

    def test_samples_equal_the_all_particle_formulation(self):
        """beta and beta-dot worked out for the chosen rows only are, array for
        array, what computing them for every electron and indexing gives."""
        from repro.analysis.regions import (REGION_NAMES, label_particles,
                                            majority_region)
        from repro.core.transforms import region_spectrum

        def all_particle_oracle(species, previous, detector, partition, n_points,
                                time, dt, rng, min_particles_per_region=8):
            gamma_now = species.gamma()
            beta_now = species.momenta / gamma_now[:, None]
            gamma_prev = np.sqrt(1.0 + np.einsum("ij,ij->i", previous, previous))
            beta_dot = (beta_now - previous / gamma_prev[:, None]) / dt
            labels = label_particles(species.positions, species.momenta,
                                     partition.grid_config.extent)
            region_ids = partition.region_of(species.positions)
            out = []
            for flat_id, region in enumerate(partition.regions()):
                indices = np.flatnonzero(region_ids == flat_id)
                if indices.size < min_particles_per_region:
                    continue
                chosen = rng.choice(indices, size=n_points,
                                    replace=indices.size < n_points)
                cloud = encode_point_cloud(species.positions[chosen],
                                           species.momenta[chosen], region)
                spectrum = region_spectrum(detector, species.positions[chosen],
                                           beta_now[chosen], beta_dot[chosen],
                                           species.weights[chosen], species.charge,
                                           time=time, dt=dt)
                out.append((cloud, encode_spectrum(spectrum),
                            REGION_NAMES[majority_region(labels[indices])]))
            return out

        cfg = KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=4, seed=7)
        sim = make_khi_simulation(cfg)
        electrons = sim.get_species("electrons")
        for _ in range(3):
            previous = electrons.momenta.copy()
            sim.step()
        detector = RadiationDetector.for_khi(density=cfg.density, n_directions=2,
                                             n_frequencies=8)
        partition = RegionPartition(cfg.grid_config, (1, 4, 1))
        samples = make_training_samples(electrons, previous, detector, partition,
                                        n_points=32, step=3, time=sim.time,
                                        dt=sim.config.dt,
                                        rng=np.random.default_rng(17))
        expected = all_particle_oracle(electrons, previous, detector, partition, 32,
                                       sim.time, sim.config.dt,
                                       np.random.default_rng(17))
        assert len(samples) == len(expected) == 4
        for sample, (cloud, spectrum, region) in zip(samples, expected):
            np.testing.assert_array_equal(sample.point_cloud, cloud)
            np.testing.assert_array_equal(sample.spectrum, spectrum)
            assert sample.region == region
        assert not np.array_equal(previous, electrons.momenta)

    def test_validation(self, rng):
        cfg = KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=2, seed=7)
        sim = make_khi_simulation(cfg)
        electrons = sim.get_species("electrons")
        detector = RadiationDetector.for_khi(density=cfg.density, n_directions=2,
                                             n_frequencies=8)
        partition = RegionPartition(cfg.grid_config, (1, 2, 1))
        with pytest.raises(ValueError):
            make_training_samples(electrons, electrons.momenta[:5], detector, partition,
                                  n_points=8, step=0, time=0.0, dt=1e-13, rng=rng)
        with pytest.raises(ValueError):
            make_training_samples(electrons, electrons.momenta.copy(), detector, partition,
                                  n_points=8, step=0, time=0.0, dt=0.0, rng=rng)


class TestProducerPlugin:
    def test_streams_iterations_with_ml_records(self, rng):
        cfg = KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=4, seed=7)
        sim = make_khi_simulation(cfg)
        detector = RadiationDetector.for_khi(density=cfg.density, n_directions=2,
                                             n_frequencies=8)
        partition = RegionPartition(cfg.grid_config, (1, 4, 1))
        broker = SSTBroker("khi", queue_limit=4)
        plugin = StreamingProducerPlugin(Series(broker), detector, partition,
                                         n_points=32, sample_interval=2, rng=rng)
        sim.add_plugin(plugin)
        sim.run(4)
        assert plugin.iterations_streamed == 2   # steps 2 and 4
        assert plugin.samples_streamed == 8
        assert plugin.bytes_streamed > 0

        steps = list(Series(broker).read_iterations())   # the run closed the stream
        assert [step.index for step in steps] == [2, 4]
        assert steps[0].arrays[POINT_CLOUDS].shape == (4, 32, 6)
        assert "particles/electrons/weighting" in steps[0].arrays
        assert plugin.bytes_streamed == sum(step.nbytes for step in steps)

    def test_a_queued_step_keeps_the_momenta_of_its_own_step(self):
        """The push overwrites the live momenta in place, so a step still in
        the queue must stream a copy: the zero-copy consumer and a fan-out
        copy both read the momenta of the step the iteration was written at."""
        from repro.workflow import WorkflowBuilder

        session = (WorkflowBuilder().preset("bench-tiny")
                   .add_consumer("monitor", kind="histogram-monitor").build())
        simulation = session.simulation
        electrons = simulation.get_species("electrons")
        simulation.step()
        first = electrons.momenta.copy()
        simulation.step()
        assert not np.array_equal(electrons.momenta, first)

        zero_copy = session.brokers["mlapp"].get_step()
        fanned_out = session.brokers["monitor"].get_step()
        assert zero_copy.index == fanned_out.index == 1
        for axis, name in enumerate("xyz"):
            np.testing.assert_array_equal(
                zero_copy.arrays[f"particles/electrons/momentum/{name}"],
                first[:, axis])
        assert zero_copy.arrays.keys() == fanned_out.arrays.keys()
        for path, data in zero_copy.arrays.items():
            np.testing.assert_array_equal(fanned_out.arrays[path], data,
                                          err_msg=path)
