"""Analytic performance models of the Frontier-scale experiments.

The paper's scaling figures were measured on up to 9216 Frontier nodes.
This reproduction cannot run at that scale, so — per the substitution rule
in ``docs/architecture.md`` — each figure is regenerated from a calibrated
machine model whose inputs (per-GCD compute rates, NIC bandwidth,
all-reduce algorithm, data-plane throughput) come from the paper and public
Frontier specifications, while the *structure* of each model (what is
communicated when, what is replicated, what overlaps) mirrors the real code
paths in this repository.  Each model is what one CLI study prints:

* :mod:`repro.perfmodel.machines` — Frontier and Summit machine specs,
* :mod:`repro.perfmodel.placement` — intra- vs inter-node placement
  (Fig. 3c, ``placement``),
* :mod:`repro.perfmodel.fom` — PIConGPU FOM weak scaling (Fig. 4,
  ``fom-scan``),
* :mod:`repro.perfmodel.streaming` — the data-plane cost models and the
  full-scale streaming throughput (Fig. 6, ``streaming-study``),
* :mod:`repro.perfmodel.ddp` — in-transit training weak scaling (Fig. 8,
  ``ddp-scan``).
"""

from repro.perfmodel.machines import FRONTIER, MachineSpec
from repro.perfmodel.placement import PlacementMode, ResourcePlan
from repro.perfmodel.fom import FOMScalingModel
from repro.perfmodel.streaming import (StreamingScalingPoint, StreamingScalingStudy,
                                       measure_stream_throughput)
from repro.perfmodel.ddp import DDPScalingPoint, DDPWeakScalingModel

__all__ = [
    "MachineSpec",
    "FRONTIER",
    "PlacementMode",
    "ResourcePlan",
    "FOMScalingModel",
    "StreamingScalingStudy",
    "StreamingScalingPoint",
    "measure_stream_throughput",
    "DDPWeakScalingModel",
    "DDPScalingPoint",
]
