"""Fig. 6 + Section IV-B table — full-scale streaming throughput.

* the *measured* part streams real KHI particle data through the in-memory
  SST broker into the no-op consumer (the same synthetic benchmark the paper
  runs, at laptop scale),
* the *modelled* part regenerates the libfabric/MPI weak-scaling study from
  4096 to 9126 nodes at 5.86 GB/node/step and checks the paper's reported
  ranges (per-node GB/s, parallel TB/s, 1.2–3.2 s step times, the failing
  all-at-once strategy, and the comparison against Orion's 10 TB/s).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfmodel.streaming import (PAPER_BYTES_PER_NODE, PAPER_NODE_COUNTS,
                                       StreamingScalingStudy)
from repro.pic.khi import KHIConfig, make_khi_simulation
from repro.streaming import NoOpConsumer, SSTBroker, Step, measure_stream_throughput


def test_fig6_measured_inmemory_stream(benchmark):
    """Real producer -> no-op consumer streaming throughput on this machine."""
    config = KHIConfig(grid_shape=(16, 32, 2), particles_per_cell=4, seed=5)
    simulation = make_khi_simulation(config)
    electrons = simulation.get_species("electrons")
    simulation.run(1)
    payload = electrons.phase_space()
    weights = electrons.weights
    bytes_per_step = payload.nbytes + weights.nbytes

    def stream_five_steps():
        broker = SSTBroker("bench", queue_limit=2)
        consumer = NoOpConsumer(broker)
        for index in range(5):
            broker.put_step(Step(index, {"particles/phase_space": payload,
                                         "particles/weighting": weights}))
            consumer.run(max_steps=1)
        broker.close()
        return consumer

    consumer = benchmark(stream_five_steps)
    result = measure_stream_throughput(consumer.step_times, n_nodes=1,
                                       bytes_per_node=bytes_per_step)
    benchmark.extra_info["payload_mb_per_step"] = round(bytes_per_step / 1e6, 2)
    benchmark.extra_info["inmemory_gb_per_s"] = round(result.median_throughput / 1e9, 2)
    assert result.median_throughput > 0


def test_fig6_frontier_scale_model(benchmark):
    """Regenerate the Fig. 6 study and check it against the paper's ranges."""
    study = StreamingScalingStudy()

    points = benchmark(study.run)
    by_key = {(p.data_plane, p.enqueue_strategy, p.n_nodes): p for p in points}

    rows = study.rows(points)
    for row in rows:
        key = f"{row['data_plane']}/{row['strategy']}/{row['nodes']}"
        benchmark.extra_info[key] = (f"{row['parallel_tb_per_s']} TB/s"
                                     if row["parallel_tb_per_s"] is not None else "n/a")

    gb = 1e9
    # Section IV-B per-node ranges
    lf_4096_fast = by_key[("libfabric", "all_at_once", 4096)].result
    assert 3.5 <= np.median(lf_4096_fast.per_node_throughput) / gb <= 4.7
    lf_full = by_key[("libfabric", "batched", 9126)].result
    assert 1.9 <= np.median(lf_full.per_node_throughput) / gb <= 2.6
    mpi_4096 = by_key[("mpi", "batched", 4096)].result
    assert 2.6 <= np.median(mpi_4096.per_node_throughput) / gb <= 3.7
    mpi_full = by_key[("mpi", "batched", 9126)].result
    assert 2.4 <= np.median(mpi_full.per_node_throughput) / gb <= 3.3

    # Fig. 6 aggregate behaviour
    assert 20.0 <= mpi_full.terabytes_per_second() <= 30.0
    assert mpi_full.terabytes_per_second() > lf_full.terabytes_per_second()
    assert not by_key[("libfabric", "all_at_once", 9126)].supported
    assert mpi_full.terabytes_per_second() > study.filesystem_throughput() / 1e12

    # regular measurements range between 1.2 s and 3.2 s
    for plane in ("mpi", "libfabric"):
        for nodes in PAPER_NODE_COUNTS:
            result = by_key[(plane, "batched", nodes)].result
            assert np.all(np.asarray(result.step_times) > 1.0)
            assert np.all(np.asarray(result.step_times) < 3.6)

    benchmark.extra_info["bytes_per_node"] = f"{PAPER_BYTES_PER_NODE / 1e9:.2f} GB"
