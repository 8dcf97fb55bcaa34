"""The Artificial Scientist: the loosely coupled, in-transit workflow.

This subpackage is the paper's primary contribution assembled from the
substrates:

* the KHI PIC simulation (:mod:`repro.pic`) acts as the **producer**; one
  streaming output plugin computes each time step's local phase-space and
  far-field radiation (:mod:`repro.radiation`) data, converts them into
  training samples and writes them as an openPMD iteration through an
  SST-style stream,
* the **MLapp** (:mod:`repro.core.mlapp`) reads iterations from the stream,
  feeds the experience-replay buffer and trains the VAE+INN in transit,
* :class:`repro.workflow.WorkflowSession` (built by
  :class:`repro.workflow.WorkflowBuilder`) wires both applications
  together (intra-node loose coupling), drives the run and collects the
  workflow report.

The Frontier-scale placement model of Fig. 3(c) lives in
:mod:`repro.perfmodel.placement`.
"""

from repro.core.config import MLConfig, StreamingConfig, WorkflowConfig
from repro.core.transforms import (RegionPartition, encode_point_cloud, encode_spectrum,
                                   make_training_samples)
from repro.core.producer import StreamingProducerPlugin
from repro.core.mlapp import MLApp
from repro.core.checkpoint import CheckpointInfo, load_checkpoint, save_checkpoint

__all__ = [
    "CheckpointInfo",
    "save_checkpoint",
    "load_checkpoint",
    "WorkflowConfig",
    "MLConfig",
    "StreamingConfig",
    "RegionPartition",
    "encode_point_cloud",
    "encode_spectrum",
    "make_training_samples",
    "StreamingProducerPlugin",
    "MLApp",
]
