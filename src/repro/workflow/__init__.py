"""repro.workflow — the composable session/driver API of the coupled run.

Named components assembled around one openPMD-over-SST stream:

* :class:`WorkflowBuilder` / :class:`WorkflowSession` — assemble the
  producer, its consumers and lifecycle hooks from a ``WorkflowConfig``,
  with fan-out from one stream to every consumer,
* :mod:`repro.workflow.drivers` — the two execution strategies (serial,
  pipelined), both returning one uniform :class:`RunResult`;
  :func:`driver_for` names them,
* :mod:`repro.workflow.presets` — named configurations (``laptop``,
  ``paper``, ``cli-small``, ``bench-tiny``),
* :mod:`repro.workflow.consumers` — the two consumer kinds: the MLapp
  trainer every session has and the histogram monitor.
"""

from repro.workflow.report import RunResult, WorkflowReport
from repro.workflow.fanout import FanOutBroker
from repro.workflow.consumers import HistogramMonitorConsumer, MLAppConsumer
from repro.workflow.drivers import PipelinedDriver, SerialDriver, driver_for
from repro.workflow.presets import available_presets, get_preset, preset_rows
from repro.workflow.builder import WorkflowBuilder, WorkflowSession

__all__ = [
    "RunResult",
    "WorkflowReport",
    "FanOutBroker",
    "MLAppConsumer",
    "HistogramMonitorConsumer",
    "SerialDriver",
    "PipelinedDriver",
    "driver_for",
    "available_presets",
    "get_preset",
    "preset_rows",
    "WorkflowBuilder",
    "WorkflowSession",
]
