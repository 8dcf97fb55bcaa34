#!/usr/bin/env python
"""File-based workflow vs the in-transit workflow.

The paper's central argument is that the classical "write to the parallel
filesystem, analyse offline" workflow cannot keep up with the data rates of
a full-scale PIC simulation, while streaming the data in transit removes the
filesystem from the critical path entirely.  This example runs *both*
workflows on the same (small) simulation:

* file-based: the producer's series is opened on a ``DirectoryStore``, so
  every step is written to disk, then read back and used for training,
* in-transit: the same steps go through the in-memory SST-style broker.

The producer and the MLapp are the same code in both: only what the
``Series`` is opened on changes.

It reports the bytes written to disk, the wall time of both variants and the
projected per-node filesystem bandwidth a full-scale run would need.

Run with::

    python examples/file_based_vs_in_transit.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.core import (MLConfig, RegionPartition, StreamingConfig,
                        StreamingProducerPlugin, WorkflowConfig)
from repro.core.mlapp import MLApp
from repro.workflow import WorkflowBuilder
from repro.models.config import ModelConfig
from repro.openpmd import DirectoryStore, Series
from repro.perfmodel.machines import FRONTIER
from repro.perfmodel.streaming import PAPER_BYTES_PER_NODE
from repro.pic.khi import KHIConfig, make_khi_simulation
from repro.radiation.detector import RadiationDetector


def workflow_config() -> WorkflowConfig:
    model = ModelConfig(n_input_points=48, encoder_channels=(16, 32),
                        encoder_head_hidden=32, latent_dim=32,
                        decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                        spectrum_dim=16, inn_blocks=2, inn_hidden=(32,))
    return WorkflowConfig(
        khi=KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=4, seed=21),
        ml=MLConfig(model=model, n_rep=2, base_learning_rate=1e-3),
        streaming=StreamingConfig(queue_limit=2),
        region_counts=(1, 4, 1), n_detector_directions=2,
        seed=31)


def run_file_based(config: WorkflowConfig, n_steps: int, directory: str) -> dict:
    """Produce to disk first, then train from the files (offline workflow)."""
    start = time.perf_counter()
    writer = Series(DirectoryStore(directory))
    simulation = make_khi_simulation(config.khi)
    detector = RadiationDetector.for_khi(density=config.khi.density,
                                         n_directions=config.n_detector_directions,
                                         n_frequencies=config.n_detector_frequencies)
    partition = RegionPartition(config.khi.grid_config, config.region_counts)
    simulation.add_plugin(StreamingProducerPlugin(writer, detector, partition,
                                                  n_points=config.ml.model.n_input_points))
    simulation.run(n_steps)
    produce_time = time.perf_counter() - start

    bytes_on_disk = sum(os.path.getsize(os.path.join(directory, f))
                        for f in os.listdir(directory))

    start = time.perf_counter()
    mlapp = MLApp(Series(DirectoryStore(directory)), config.ml)
    mlapp.consume()
    train_time = time.perf_counter() - start
    return {"produce_s": produce_time, "train_s": train_time,
            "total_s": produce_time + train_time, "disk_bytes": bytes_on_disk,
            "training_iterations": len(mlapp.history)}


def run_in_transit(config: WorkflowConfig, n_steps: int) -> dict:
    session = WorkflowBuilder().config(config).driver("serial").build()
    report = session.run(n_steps).raise_if_failed().report
    return {"total_s": report.wall_time, "disk_bytes": 0,
            "training_iterations": report.training_iterations,
            "streamed_bytes": report.bytes_streamed}


def main() -> None:
    n_steps = 5
    config = workflow_config()

    with tempfile.TemporaryDirectory() as directory:
        file_based = run_file_based(workflow_config(), n_steps, directory)
    in_transit = run_in_transit(config, n_steps)

    print("--- file-based (classical) workflow -------------------------------")
    print(f"wall time             : {file_based['total_s']:.2f} s "
          f"(produce {file_based['produce_s']:.2f} + train {file_based['train_s']:.2f})")
    print(f"bytes written to disk : {file_based['disk_bytes'] / 1e6:.2f} MB")
    print(f"training iterations   : {file_based['training_iterations']}")

    print("\n--- in-transit workflow --------------------------------------------")
    print(f"wall time             : {in_transit['total_s']:.2f} s")
    print(f"bytes written to disk : {in_transit['disk_bytes']} B")
    print(f"bytes kept in memory  : {in_transit['streamed_bytes'] / 1e6:.2f} MB")
    print(f"training iterations   : {in_transit['training_iterations']}")

    print("\n--- why this matters at scale ---------------------------------------")
    per_node_share = FRONTIER.filesystem_bandwidth_per_node()
    write_time = PAPER_BYTES_PER_NODE / per_node_share
    print(f"Frontier per-node share of the 10 TB/s Orion filesystem: "
          f"{per_node_share / 1e9:.2f} GB/s")
    print(f"writing the paper's 5.86 GB/node/step through the filesystem would "
          f"take {write_time:.1f} s per step,")
    print("while the measured in-transit streaming moves it in 1.2-3.2 s and "
          "leaves the filesystem untouched.")


if __name__ == "__main__":
    main()
