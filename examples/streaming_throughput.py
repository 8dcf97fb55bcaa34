#!/usr/bin/env python
"""Streaming benchmarks: a real in-memory run and the Fig. 6 scaling study.

Part 1 runs the *real* producer → no-op consumer pipeline in memory (the
same synthetic benchmark the paper uses, at laptop scale) and reports its
throughput.

Part 2 regenerates the full-Frontier weak-scaling study of Fig. 6 from the
calibrated data-plane models: libfabric vs MPI data planes, batched vs
all-at-once read enqueueing, 4096 to 9126 nodes at 5.86 GB per node and
step, compared against the Orion filesystem and the node-local SSDs.

Run with::

    python examples/streaming_throughput.py
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.streaming import StreamingScalingStudy, measure_stream_throughput
from repro.pic.khi import KHIConfig, make_khi_simulation
from repro.streaming import NoOpConsumer, SSTBroker, Step


def real_inmemory_benchmark(n_steps: int = 5) -> None:
    """Stream real KHI particle data to a no-op consumer, in memory."""
    config = KHIConfig(grid_shape=(16, 32, 2), particles_per_cell=4, seed=5)
    simulation = make_khi_simulation(config)
    electrons = simulation.get_species("electrons")

    broker = SSTBroker("khi-particles", queue_limit=2)
    consumer = NoOpConsumer(broker)

    bytes_per_step = electrons.phase_space().nbytes + electrons.weights.nbytes
    for index in range(n_steps):
        simulation.step()
        broker.put_step(Step(index, {"particles/phase_space": electrons.phase_space(),
                                     "particles/weighting": electrons.weights}))
        consumer.run(max_steps=1)
    broker.close()

    result = measure_stream_throughput(consumer.step_times, n_nodes=1,
                                       bytes_per_node=bytes_per_step,
                                       data_plane="inmemory")
    print("--- part 1: real in-memory stream (this machine) -----------------")
    print(f"macro-particles          : {electrons.n_macro}")
    print(f"payload per step         : {bytes_per_step / 1e6:.2f} MB")
    print(f"median in-memory load    : {np.median(consumer.step_times) * 1e3:.2f} ms/step")
    print(f"median throughput        : {result.median_throughput / 1e9:.2f} GB/s")


def fig6_scaling_study() -> None:
    print("\n--- part 2: Fig. 6 full-Frontier study (calibrated model) --------")
    study = StreamingScalingStudy()
    header = (f"{'data plane':>16} {'strategy':>12} {'nodes':>6} "
              f"{'TB/s':>7} {'GB/s/node':>10} {'step [s]':>9}")
    print(header)
    for row in study.rows():
        tbs = row["parallel_tb_per_s"]
        per_node = row["per_node_gb_per_s"]
        step = row["step_time_s"]
        print(f"{row['data_plane']:>16} {row['strategy']:>12} {row['nodes']:>6} "
              f"{'—' if tbs is None else f'{tbs:7.1f}'} "
              f"{'—' if per_node is None else f'{per_node:10.2f}'} "
              f"{'—' if step is None else f'{step:9.2f}'}")
    print("\nKey observations reproduced from the paper: the MPI data plane "
          "delivers the best full-scale parallel throughput (20–30 TB/s), the "
          "libfabric all-at-once strategy is fastest at 4096 nodes but does not "
          "scale to the full system, and either plane beats the 10 TB/s Orion "
          "filesystem.")


def main() -> None:
    real_inmemory_benchmark()
    fig6_scaling_study()


if __name__ == "__main__":
    main()
