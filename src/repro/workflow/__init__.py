"""repro.workflow — the composable session/driver API of the coupled run.

Pluggable, named components assembled around one openPMD-over-SST stream:

* :class:`WorkflowBuilder` / :class:`WorkflowSession` — assemble producers,
  consumers, data planes and lifecycle hooks from a ``WorkflowConfig``,
  with fan-out from one stream to many consumers,
* :mod:`repro.workflow.drivers` — execution strategies (serial,
  pipelined) both returning one uniform :class:`RunResult`,
* :mod:`repro.workflow.presets` — named configurations (``laptop``,
  ``paper``, ``cli-small``, ``bench-tiny``),
* :mod:`repro.workflow.consumers` — the consumer registry (MLapp trainer,
  histogram monitor, user-registered kinds).
"""

from repro.workflow.report import RunResult, WorkflowReport
from repro.workflow.fanout import FanOutBroker
from repro.workflow.consumers import (HistogramMonitorConsumer, MLAppConsumer,
                                      StreamConsumer, available_consumers,
                                      get_consumer_factory)
from repro.workflow.drivers import (ExecutionDriver, PipelinedDriver, SerialDriver,
                                    available_drivers, get_driver)
from repro.workflow.presets import available_presets, get_preset, preset_rows
from repro.workflow.builder import (ConsumerSpec, WorkflowBuilder, WorkflowHooks,
                                    WorkflowSession)

__all__ = [
    "RunResult",
    "WorkflowReport",
    "FanOutBroker",
    "StreamConsumer",
    "MLAppConsumer",
    "HistogramMonitorConsumer",
    "available_consumers",
    "get_consumer_factory",
    "ExecutionDriver",
    "SerialDriver",
    "PipelinedDriver",
    "available_drivers",
    "get_driver",
    "available_presets",
    "get_preset",
    "preset_rows",
    "ConsumerSpec",
    "WorkflowBuilder",
    "WorkflowHooks",
    "WorkflowSession",
]
