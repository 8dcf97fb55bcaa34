"""Tests of the Frontier-scale performance models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfmodel import (DDPWeakScalingModel, FOMScalingModel, FRONTIER,
                             PlacementMode, ResourcePlan, StreamingScalingStudy,
                             measure_stream_throughput)
from repro.perfmodel.ddp import RingAllReduceModel
from repro.perfmodel.streaming import ModeledDataPlane, make_data_plane


class TestMachines:
    def test_frontier_structure(self):
        assert FRONTIER.gcds_per_node == 8
        assert FRONTIER.node_injection_bandwidth == pytest.approx(100e9)

    def test_filesystem_share_per_node_is_small(self):
        """The introduction's argument: per-node filesystem share is ~GB/s."""
        share = FRONTIER.filesystem_bandwidth_per_node()
        assert share < 2e9
        assert share < FRONTIER.nic_bandwidth / 10


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
        gpus = model.paper_gpu_counts()
        per_gpu = np.array([model.fom(n) / n for n in gpus])
        # weak scaling: per-GPU FOM degrades by less than 10% across the range
        assert per_gpu.min() > 0.9 * per_gpu.max()
        assert all(model.efficiency(n) <= 1.0 for n in gpus)

    def test_scan_covers_paper_range(self):
        counts = FOMScalingModel.paper_gpu_counts()
        assert counts[0] == 24
        assert counts[-1] == 36_864

    def test_paper_runtime_claim_1000_steps_in_minutes(self):
        """Sanity check of '1000 time steps completed in 6.5 minutes': the
        full-Frontier FOM moves 2.7e13 macro-particles per step."""
        model = FOMScalingModel.frontier_calibrated()
        seconds = 1000 * 2.7e13 / model.fom(36_864)
        assert 2 * 60 < seconds < 20 * 60

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            FOMScalingModel().efficiency(0)


class TestStreamingStudy:
    def test_full_study_reproduces_fig6_shape(self):
        study = StreamingScalingStudy()
        by_key = {(p.data_plane, p.enqueue_strategy, p.n_nodes): p.result
                  for p in study.run()}
        assert len(by_key) == 12

        # MPI at full scale is the best supported parallel throughput (20-30 TB/s)
        mpi_full = by_key[("mpi", "batched", 9126)].terabytes_per_second()
        assert 20.0 <= mpi_full <= 30.0

        # libfabric batched at full scale reaches ~16-23 TB/s
        lf_full = by_key[("libfabric", "batched", 9126)].terabytes_per_second()
        assert 15.0 <= lf_full <= 24.0
        assert mpi_full > lf_full

        # the all-at-once strategy is fastest at 4096 nodes but fails at full scale
        lf_4096_fast = by_key[("libfabric", "all_at_once", 4096)]
        lf_4096_batched = by_key[("libfabric", "batched", 4096)]
        assert lf_4096_fast.terabytes_per_second() > lf_4096_batched.terabytes_per_second()
        assert by_key[("libfabric", "all_at_once", 9126)] is None

        # streaming beats the Orion filesystem's 10 TB/s at full scale
        assert mpi_full > study.filesystem_throughput() / 1e12

        # the Section IV-B per-node throughputs, as medians of the runs
        def per_node_gb(*key):
            return np.median(by_key[key].per_node_throughput) / 1e9

        assert 3.5 <= per_node_gb("libfabric", "all_at_once", 4096) <= 4.7
        assert 1.9 <= per_node_gb("libfabric", "batched", 9126) <= 2.6
        assert 2.6 <= per_node_gb("mpi", "batched", 4096) <= 3.7
        assert 2.4 <= per_node_gb("mpi", "batched", 9126) <= 3.3

    def test_step_times_in_paper_range(self):
        """Regular measurements range between 1.2 s and 3.2 s (Section IV-B)."""
        for point in StreamingScalingStudy().run():
            if point.enqueue_strategy != "batched":
                continue
            assert point.result is not None
            times = np.asarray(point.result.step_times)
            assert np.all(times > 1.0) and np.all(times < 3.6)

    def test_rows_include_filesystem_comparison(self):
        rows = StreamingScalingStudy().rows()
        names = {row["data_plane"] for row in rows}
        assert {"mpi", "libfabric", "orion-filesystem", "node-local-ssd"} <= names

    def test_unsupported_case_reported(self):
        point = StreamingScalingStudy().run_case("libfabric", 9126, "all_at_once")
        assert point.result is None


class TestDataPlanes:
    def test_modeled_time_increases_with_bytes(self):
        # seeded: the plane's 12 % jitter is the same draw every run
        plane = make_data_plane("mpi")
        assert plane.transfer_time(2 * 10**9, n_nodes=100) > \
            plane.transfer_time(10**9, n_nodes=100) * 1.2

    def test_contention_reduces_bandwidth(self):
        plane = make_data_plane("mpi")
        assert plane.effective_bandwidth(9126) < plane.effective_bandwidth(4096)

    def test_libfabric_all_at_once_fails_at_full_scale(self):
        plane = make_data_plane("libfabric")
        assert plane.supports(4096, "all_at_once")
        assert not plane.supports(9126, "all_at_once")
        with pytest.raises(RuntimeError):
            plane.effective_bandwidth(9126, "all_at_once")

    def test_calibration_matches_paper_per_node_ranges(self):
        """Per-node throughputs fall in the ranges reported in Section IV-B."""
        libfabric = make_data_plane("libfabric")
        mpi = make_data_plane("mpi")
        gb = 1e9
        assert 3.5 <= libfabric.effective_bandwidth(4096, "all_at_once") / gb <= 4.7
        assert 1.9 <= libfabric.effective_bandwidth(9126, "batched") / gb <= 2.6
        assert 2.6 <= mpi.effective_bandwidth(4096) / gb <= 3.7
        assert 2.4 <= mpi.effective_bandwidth(9126) / gb <= 3.3

    def test_bandwidth_capped_at_nic_limit(self):
        plane = ModeledDataPlane(base_bandwidth=1e12, latency=0.0, jitter=0.0)
        assert plane.effective_bandwidth(1) == pytest.approx(25e9)

    def test_unknown_plane(self):
        with pytest.raises(ValueError):
            make_data_plane("infiniband-magic")


class TestThroughput:
    def test_result_properties(self):
        result = measure_stream_throughput([2.0, 2.5, 4.0], n_nodes=100,
                                           bytes_per_node=5.86e9, data_plane="mpi")
        assert result.global_bytes == pytest.approx(586e9)
        assert result.median_throughput == pytest.approx(586e9 / 2.5)
        assert result.per_node_throughput.shape == (3,)
        assert result.terabytes_per_second() == pytest.approx(586e9 / 2.5 / 1e12)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_stream_throughput([], 1, 1.0)
        with pytest.raises(ValueError):
            measure_stream_throughput([0.0], 1, 1.0)
        with pytest.raises(ValueError):
            measure_stream_throughput([1.0], 0, 1.0)


class TestPlacement:
    def test_intra_node_split(self):
        plan = ResourcePlan(n_nodes=10, mode=PlacementMode.INTRA_NODE)
        assert plan.producer_nodes == 10 and plan.consumer_nodes == 10
        assert plan.total_producer_gcds == 40
        assert plan.total_consumer_gcds == 40

    def test_inter_node_split(self):
        plan = ResourcePlan(n_nodes=10, mode=PlacementMode.INTER_NODE)
        assert plan.consumer_nodes == 5
        assert plan.producer_nodes == 5
        assert plan.total_consumer_gcds == 5 * 8

    def test_intra_node_has_higher_exchange_bandwidth(self):
        intra = ResourcePlan(n_nodes=4, mode=PlacementMode.INTRA_NODE)
        inter = ResourcePlan(n_nodes=4, mode=PlacementMode.INTER_NODE)
        assert intra.exchange_bandwidth_per_node() > inter.exchange_bandwidth_per_node()
        assert intra.exchange_time_per_step(5.86e9) < inter.exchange_time_per_step(5.86e9)

    def test_describe_keys(self):
        plan = ResourcePlan(n_nodes=2)
        assert {"mode", "producer_gcds", "consumer_gcds"} <= set(plan.describe())

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourcePlan(n_nodes=0)
        with pytest.raises(ValueError):
            ResourcePlan(n_nodes=2).exchange_time_per_step(-1.0)


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
        (point,) = model.scan((96,))
        assert point.efficiency == pytest.approx(0.35, abs=0.05)

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
            total = (model.compute_time / point.step_time
                     + point.allreduce_fraction + point.mmd_fraction)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            DDPWeakScalingModel().step_time(0)
