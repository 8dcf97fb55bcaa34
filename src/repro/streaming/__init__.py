"""An in-memory stream modelled on ADIOS2's SST engine.

ADIOS2's Sustainable Staging Transport (SST) engine connects one parallel
producer to any number of consumers without touching the filesystem: the
writer presents *steps* of named variables in a bounded queue, each reader
loads what it needs, and releasing a step tells the writer the data may be
dropped (Section IV-D of the paper).  The application code never sees this
protocol: it writes and reads openPMD iterations through a
:class:`repro.openpmd.Series`, and each iteration travels as one step.

This subpackage models the transport's observable behaviour in-process —
one step at a time, in order, through a bounded queue that stalls the
writer — and nothing of its rank/block layout:

* :class:`repro.streaming.step.Step` — one step, a flat ``path -> ndarray``
  dict plus attributes,
* :class:`repro.streaming.broker.SSTBroker` — the bounded step queue
  between the writer and one reader group,
* :class:`repro.streaming.reduction.ReductionPipeline` — the producer-side
  reduction (Fig. 3b),
* :class:`repro.streaming.noop.NoOpConsumer` — the synthetic benchmark
  consumer that only measures and discards.

The cost models of the network data planes behind the full-scale
throughput study (Fig. 6) are not a transport; they live in
:mod:`repro.perfmodel.streaming`.
"""

from repro.streaming.step import Step
from repro.streaming.broker import SSTBroker
from repro.streaming.noop import NoOpConsumer
from repro.streaming.reduction import ReductionPipeline

__all__ = [
    "ReductionPipeline",
    "Step",
    "SSTBroker",
    "NoOpConsumer",
]
