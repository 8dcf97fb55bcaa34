"""An in-memory streaming substrate modelled on ADIOS2's SST engine.

The Sustainable Staging Transport (SST) engine connects one parallel data
producer to an arbitrary number of parallel consumers without touching the
filesystem: the writer presents *steps* containing named variables, readers
inquire the available variables and read the blocks they decide to load, and
closing a step tells the writer the data may be dropped (Section IV-D of the
paper).

This subpackage reproduces that protocol in-process:

* :class:`repro.streaming.broker.SSTBroker` — the rendezvous point between
  writer and readers with a bounded step queue,
* :class:`repro.streaming.engine.SSTWriterEngine` /
  :class:`repro.streaming.engine.SSTReaderEngine` — the step-based put/get
  API,
* :mod:`repro.streaming.dataplane` — calibrated bandwidth/latency cost
  models of the ``libfabric``/CXI and ``MPI`` data planes used to
  regenerate the full-scale throughput study (Fig. 6); the coupled run
  itself moves steps through process memory,
* :class:`repro.streaming.noop.NoOpConsumer` — the synthetic benchmark
  consumer that only measures and discards,
* :mod:`repro.streaming.throughput` — throughput accounting helpers.
"""

from repro.streaming.variable import Block, Variable
from repro.streaming.step import Step, StepStatus
from repro.streaming.broker import SSTBroker
from repro.streaming.dataplane import DataPlane, ModeledDataPlane, make_data_plane
from repro.streaming.engine import EndOfStreamError, SSTReaderEngine, SSTWriterEngine
from repro.streaming.noop import NoOpConsumer
from repro.streaming.throughput import ThroughputResult, measure_stream_throughput
from repro.streaming.reduction import (ParticleSubsampleReducer, PrecisionReducer,
                                       ReductionPipeline, ReductionReport)

__all__ = [
    "ParticleSubsampleReducer",
    "PrecisionReducer",
    "ReductionPipeline",
    "ReductionReport",
    "Block",
    "Variable",
    "Step",
    "StepStatus",
    "SSTBroker",
    "DataPlane",
    "ModeledDataPlane",
    "make_data_plane",
    "EndOfStreamError",
    "SSTWriterEngine",
    "SSTReaderEngine",
    "NoOpConsumer",
    "ThroughputResult",
    "measure_stream_throughput",
]
