"""Stream consumers: pluggable reader applications of one workflow stream.

In the paper any number of independent consumer applications can attach to
the openPMD-over-SST stream — the MLapp is simply the one that trains.
This module gives consumers a uniform shape (:class:`StreamConsumer`) so
that :class:`repro.workflow.builder.WorkflowSession` can fan one producer
stream out to several of them, and a small registry so that the CLI and
configs can name them.  A consumer reads its own
:class:`repro.openpmd.Series`, whose iterations are
:class:`repro.streaming.Step` dicts keyed by openPMD record path.

Two consumers ship by default:

* :class:`MLAppConsumer` — wraps :class:`repro.core.mlapp.MLApp`, the
  in-transit trainer (the primary consumer of every session),
* :class:`HistogramMonitorConsumer` — a lightweight monitoring application
  that histograms streamed momenta and tracks spectra without training,
  the kind of live diagnostic the loose coupling is meant to enable.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.analysis.regions import FLOW_MOMENTUM_COLUMN
from repro.core.mlapp import MLApp
from repro.core.producer import POINT_CLOUDS, SPECTRA
from repro.openpmd.series import Series
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover
    from repro.workflow.builder import WorkflowSession

#: Called after a consumer finishes one iteration: ``(iteration_index, n_samples)``.
IterationCallback = Callable[[int, int], None]

#: Builds a consumer: ``factory(name, series, session, rng) -> StreamConsumer``.
ConsumerFactory = Callable[[str, Series, "WorkflowSession", RandomState], "StreamConsumer"]


class StreamConsumer(abc.ABC):
    """One reader application attached to the workflow stream."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.iterations_consumed = 0
        self.samples_consumed = 0

    def configure_run(self, keep_for_evaluation: int) -> None:
        """Per-run knobs pushed down by the session before driving starts."""

    @abc.abstractmethod
    def consume(self, max_iterations: Optional[int] = None,
                on_iteration: Optional[IterationCallback] = None) -> int:
        """Read up to ``max_iterations`` from the stream (all, if ``None``)."""

    @abc.abstractmethod
    def summary(self) -> Dict[str, object]:
        """A JSON-able digest of what this consumer did."""


class MLAppConsumer(StreamConsumer):
    """The paper's MLapp as a session consumer: trains the VAE+INN in transit."""

    def __init__(self, name: str, series: Series, session: "WorkflowSession",
                 rng: np.random.Generator) -> None:
        super().__init__(name)
        self.mlapp = MLApp(series, session.config.ml, rng=rng)
        self.keep_for_evaluation = 0

    def configure_run(self, keep_for_evaluation: int) -> None:
        self.keep_for_evaluation = int(keep_for_evaluation)

    def consume(self, max_iterations: Optional[int] = None, *,
                on_iteration: IterationCallback) -> int:
        consumed = self.mlapp.consume(max_iterations=max_iterations,
                                      keep_for_evaluation=self.keep_for_evaluation,
                                      on_iteration=on_iteration)
        self.iterations_consumed = self.mlapp.iterations_consumed
        self.samples_consumed = self.mlapp.samples_consumed
        return consumed

    def summary(self) -> Dict[str, object]:
        return {
            "kind": "mlapp",
            "iterations_consumed": self.iterations_consumed,
            "samples_consumed": self.samples_consumed,
            "training_iterations": len(self.mlapp.history),
            "final_losses": self.mlapp.loss_summary(),
        }


#: Bins of the monitor's momentum histogram and the ``gamma beta`` range
#: ``(-MONITOR_RANGE, MONITOR_RANGE)`` they span.
MONITOR_BINS = 16
MONITOR_RANGE = 0.5


class HistogramMonitorConsumer(StreamConsumer):
    """A monitoring consumer: histograms momenta, averages spectra, trains nothing.

    It only touches the ``ml_samples`` records, demonstrating that a second
    application can attach to the same stream without knowing anything about
    the trainer (or even about the raw particle records).
    """

    def __init__(self, name: str, series: Series) -> None:
        super().__init__(name)
        self.series = series
        self.bin_edges = np.linspace(-MONITOR_RANGE, MONITOR_RANGE, MONITOR_BINS + 1)
        self.momentum_counts = np.zeros(MONITOR_BINS, dtype=np.int64)
        self.spectrum_sum: Optional[np.ndarray] = None
        self.per_step_sample_counts: Dict[int, int] = {}

    def consume(self, max_iterations: Optional[int] = None, *,
                on_iteration: IterationCallback) -> int:
        consumed = 0
        for step in self.series.read_iterations():
            clouds = step.arrays[POINT_CLOUDS]
            # flow-direction momentum component of every point of every cloud
            counts, _ = np.histogram(clouds[..., FLOW_MOMENTUM_COLUMN].ravel(),
                                     bins=self.bin_edges)
            self.momentum_counts += counts
            total = step.arrays[SPECTRA].sum(axis=0)
            self.spectrum_sum = total if self.spectrum_sum is None \
                else self.spectrum_sum + total
            n_samples = len(clouds)
            self.per_step_sample_counts[step.index] = n_samples
            self.iterations_consumed += 1
            self.samples_consumed += n_samples
            consumed += 1
            on_iteration(step.index, n_samples)
            if max_iterations is not None and consumed >= max_iterations:
                break
        return consumed

    @property
    def mean_spectrum(self) -> Optional[np.ndarray]:
        if self.spectrum_sum is None or self.samples_consumed == 0:
            return None
        return self.spectrum_sum / self.samples_consumed

    def summary(self) -> Dict[str, object]:
        mean = self.mean_spectrum
        return {
            "kind": "histogram-monitor",
            "iterations_consumed": self.iterations_consumed,
            "samples_consumed": self.samples_consumed,
            "momentum_histogram": self.momentum_counts.tolist(),
            "mean_spectrum_peak": None if mean is None else float(mean.max()),
        }


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
def _make_mlapp(name: str, series: Series, session: "WorkflowSession",
                rng: RandomState) -> StreamConsumer:
    return MLAppConsumer(name, series, session, rng=rng)


def _make_histogram_monitor(name: str, series: Series, session: "WorkflowSession",
                            rng: RandomState) -> StreamConsumer:
    return HistogramMonitorConsumer(name, series)


_CONSUMER_FACTORIES: Dict[str, ConsumerFactory] = {
    "mlapp": _make_mlapp,
    "histogram-monitor": _make_histogram_monitor,
}


def available_consumers() -> tuple:
    return tuple(sorted(_CONSUMER_FACTORIES))


def get_consumer_factory(kind: str) -> ConsumerFactory:
    try:
        return _CONSUMER_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown consumer kind {kind!r}; valid kinds: "
            f"{', '.join(available_consumers())}") from None
