"""Tests of the Frontier-scale performance models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfmodel import (DDPWeakScalingModel, FOMScalingModel, FRONTIER,
                             StreamingScalingStudy, SUMMIT)
from repro.perfmodel.ddp import RingAllReduceModel


class TestMachines:
    def test_frontier_structure(self):
        assert FRONTIER.gcds_per_node == 8
        assert FRONTIER.total_gpus == 9408 * 4
        assert FRONTIER.node_injection_bandwidth == pytest.approx(100e9)

    def test_filesystem_share_per_node_is_small(self):
        """The introduction's argument: per-node filesystem share is ~GB/s."""
        share = FRONTIER.filesystem_bandwidth_per_node()
        assert share < 2e9
        assert share < FRONTIER.nic_bandwidth / 10

    def test_summit_smaller_than_frontier(self):
        assert SUMMIT.total_gpus < FRONTIER.total_gpus


class TestFOMModel:
    def test_frontier_calibration_hits_paper_value(self):
        model = FOMScalingModel.frontier_calibrated()
        fom = model.fom(36_864)
        assert fom / 1e12 == pytest.approx(65.3, rel=0.01)

    def test_summit_calibration_hits_paper_value(self):
        model = FOMScalingModel.summit_calibrated()
        assert model.fom(27_648) / 1e12 == pytest.approx(14.7, rel=0.01)

    def test_frontier_beats_summit_by_the_paper_factor(self):
        frontier = FOMScalingModel.frontier_calibrated()
        summit = FOMScalingModel.summit_calibrated()
        ratio = frontier.fom(36_864) / summit.fom(27_648)
        assert ratio == pytest.approx(65.3 / 14.7, rel=0.02)

    def test_weak_scaling_nearly_linear(self):
        model = FOMScalingModel.frontier_calibrated()
        points = model.scan(model.paper_gpu_counts())
        foms = np.array([p.fom_updates_per_second for p in points])
        gpus = np.array([p.n_gpus for p in points])
        per_gpu = foms / gpus
        # weak scaling: per-GPU FOM degrades by less than 10% across the range
        assert per_gpu.min() > 0.9 * per_gpu.max()
        assert all(p.efficiency <= 1.0 for p in points)

    def test_scan_covers_paper_range(self):
        counts = FOMScalingModel.paper_gpu_counts()
        assert counts[0] == 24
        assert counts[-1] == 36_864

    def test_paper_runtime_claim_1000_steps_in_minutes(self):
        """Sanity check of '1000 time steps completed in 6.5 minutes'."""
        model = FOMScalingModel.frontier_calibrated()
        particles_per_gpu = 2.7e13 / 36_864
        cells_per_gpu = 1e12 / 36_864
        seconds = 1000 * model.time_per_step(particles_per_gpu, cells_per_gpu, 36_864)
        assert 2 * 60 < seconds < 20 * 60

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            FOMScalingModel().efficiency(0)


class TestStreamingStudy:
    def test_full_study_reproduces_fig6_shape(self):
        study = StreamingScalingStudy()
        points = study.run()
        by_key = {(p.data_plane, p.enqueue_strategy, p.n_nodes): p for p in points}

        # MPI at full scale is the best supported parallel throughput (20-30 TB/s)
        mpi_full = by_key[("mpi", "batched", 9126)]
        assert 20.0 <= mpi_full.terabytes_per_second <= 30.0

        # libfabric batched at full scale reaches ~16-23 TB/s
        lf_full = by_key[("libfabric", "batched", 9126)]
        assert 15.0 <= lf_full.terabytes_per_second <= 24.0
        assert mpi_full.terabytes_per_second > lf_full.terabytes_per_second

        # the all-at-once strategy is fastest at 4096 nodes but fails at full scale
        lf_4096_fast = by_key[("libfabric", "all_at_once", 4096)]
        lf_4096_batched = by_key[("libfabric", "batched", 4096)]
        assert lf_4096_fast.terabytes_per_second > lf_4096_batched.terabytes_per_second
        assert not by_key[("libfabric", "all_at_once", 9126)].supported

        # streaming beats the Orion filesystem's 10 TB/s at full scale
        assert mpi_full.terabytes_per_second > study.filesystem_throughput() / 1e12

    def test_step_times_in_paper_range(self):
        """Regular measurements range between 1.2 s and 3.2 s (Section IV-B)."""
        study = StreamingScalingStudy()
        for point in study.run(planes=("mpi", "libfabric"), include_all_at_once=False):
            assert point.result is not None
            times = np.asarray(point.result.step_times)
            assert np.all(times > 1.0) and np.all(times < 3.6)

    def test_rows_include_filesystem_comparison(self):
        study = StreamingScalingStudy(node_counts=(4096,), n_steps=2)
        rows = study.rows()
        names = {row["data_plane"] for row in rows}
        assert {"mpi", "libfabric", "orion-filesystem", "node-local-ssd"} <= names

    def test_unsupported_case_reported(self):
        study = StreamingScalingStudy(node_counts=(9126,), n_steps=1)
        point = study.run_case("libfabric", 9126, "all_at_once")
        assert not point.supported
        assert point.terabytes_per_second is None


class TestRingAllReduceModel:
    def test_single_rank_is_free(self):
        model = RingAllReduceModel()
        assert model.time(1, 1e9) == 0.0

    def test_time_increases_with_message_size(self):
        model = RingAllReduceModel()
        assert model.time(16, 2e9) > model.time(16, 1e9)

    def test_time_saturates_with_ranks(self):
        """The 2(p-1)/p factor approaches 2, so doubling ranks far out barely
        changes the bandwidth term (latency term keeps growing)."""
        model = RingAllReduceModel(latency=0.0)
        t64 = model.time(64, 1e9)
        t128 = model.time(128, 1e9)
        assert t128 / t64 < 1.05

    def test_intra_node_faster(self):
        model = RingAllReduceModel()
        assert model.time(8, 1e9) < model.time(16, 1e9)

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            RingAllReduceModel().time(0, 1.0)

    def test_allgather_time_monotone(self):
        model = RingAllReduceModel()
        assert model.allgather_time(32, 1e8) > model.allgather_time(16, 1e8)
        assert model.allgather_time(1, 1e8) == 0.0


class TestDDPModel:
    def test_efficiency_at_96_nodes_matches_paper(self):
        model = DDPWeakScalingModel.paper_calibrated()
        efficiency = model.efficiency(96)
        assert efficiency == pytest.approx(0.35, abs=0.05)

    def test_efficiency_monotonically_decreasing(self):
        model = DDPWeakScalingModel.paper_calibrated()
        effs = [p.efficiency for p in model.scan((8, 24, 48, 96))]
        assert effs[0] == pytest.approx(1.0)
        assert all(a > b for a, b in zip(effs[:-1], effs[1:]))

    def test_global_batch_sizes_match_paper(self):
        """32 to 384 GCDs at batch 8 per GCD give total batches 256 to 3072."""
        model = DDPWeakScalingModel.paper_calibrated()
        points = model.scan((8, 96))
        assert points[0].n_gcds == 32 and points[0].global_batch_size == 256
        assert points[1].n_gcds == 384 and points[1].global_batch_size == 3072

    def test_deficit_attribution_includes_both_causes(self):
        model = DDPWeakScalingModel.paper_calibrated()
        attribution = model.deficit_attribution(96)
        assert attribution["allreduce"] > 0.1
        assert attribution["mmd"] > 0.3
        assert attribution["allreduce"] + attribution["mmd"] == pytest.approx(1.0, abs=0.01)

    def test_fractions_sum_to_one(self):
        model = DDPWeakScalingModel.paper_calibrated()
        for point in model.scan((8, 48, 96)):
            total = point.compute_fraction + point.allreduce_fraction + point.mmd_fraction
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_from_measurement(self):
        model = DDPWeakScalingModel.from_measurement(compute_time=0.1,
                                                     gradient_bytes=1e6)
        assert model.compute_time == pytest.approx(0.1)
        assert model.step_time(8) > 0.1

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            DDPWeakScalingModel().step_time(0)
