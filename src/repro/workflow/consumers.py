"""Stream consumers: the reader applications of one workflow stream.

In the paper any number of independent consumer applications can attach to
the openPMD-over-SST stream — the MLapp is simply the one that trains.
:class:`repro.workflow.builder.WorkflowSession` fans one producer stream out
to its consumers, each reading its own :class:`repro.openpmd.Series`, whose
iterations are :class:`repro.streaming.Step` dicts keyed by openPMD record
path.  Both kinds answer the drivers' two calls, ``consume`` and
``summary``:

* :class:`MLAppConsumer` — wraps :class:`repro.core.mlapp.MLApp`, the
  in-transit trainer (every session has one, named ``mlapp``),
* :class:`HistogramMonitorConsumer` — a lightweight monitoring application
  that histograms streamed momenta and tracks spectra without training,
  the kind of live diagnostic the loose coupling is meant to enable
  (``add_consumer(name, kind="histogram-monitor")``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.analysis.regions import FLOW_MOMENTUM_COLUMN
from repro.core.config import MLConfig
from repro.core.mlapp import MLApp
from repro.core.producer import POINT_CLOUDS, SPECTRA
from repro.openpmd.series import Series
from repro.utils.rng import RandomState

#: Called after a consumer finishes one iteration: ``(iteration_index, n_samples)``.
IterationCallback = Callable[[int, int], None]


class MLAppConsumer:
    """The paper's MLapp as a session consumer: trains the VAE+INN in transit.

    :attr:`keep_for_evaluation` is the samples per iteration the run holds
    out for :meth:`~repro.workflow.builder.WorkflowSession.evaluate`;
    :meth:`~repro.workflow.builder.WorkflowSession.run` sets it.
    """

    kind = "mlapp"

    def __init__(self, series: Series, config: MLConfig, rng: RandomState) -> None:
        self.mlapp = MLApp(series, config, rng=rng)
        self.keep_for_evaluation = 0

    def consume(self, max_iterations: Optional[int] = None, *,
                on_iteration: IterationCallback) -> int:
        return self.mlapp.consume(max_iterations=max_iterations,
                                  keep_for_evaluation=self.keep_for_evaluation,
                                  on_iteration=on_iteration)

    def summary(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "iterations_consumed": self.mlapp.iterations_consumed,
            "samples_consumed": self.mlapp.trainer.samples_consumed,
            "training_iterations": len(self.mlapp.history),
            "final_losses": self.mlapp.loss_summary(),
        }


#: Bins of the monitor's momentum histogram and the ``gamma beta`` range
#: ``(-MONITOR_RANGE, MONITOR_RANGE)`` they span.
MONITOR_BINS = 16
MONITOR_RANGE = 0.5


class HistogramMonitorConsumer:
    """A monitoring consumer: histograms momenta, averages spectra, trains nothing.

    It only touches the ``ml_samples`` records, demonstrating that a second
    application can attach to the same stream without knowing anything about
    the trainer (or even about the raw particle records).
    """

    kind = "histogram-monitor"

    def __init__(self, series: Series) -> None:
        self.series = series
        self.bin_edges = np.linspace(-MONITOR_RANGE, MONITOR_RANGE, MONITOR_BINS + 1)
        self.momentum_counts = np.zeros(MONITOR_BINS, dtype=np.int64)
        self.spectrum_sum: Optional[np.ndarray] = None
        self.iterations_consumed = 0
        self.samples_consumed = 0

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
            "kind": self.kind,
            "iterations_consumed": self.iterations_consumed,
            "samples_consumed": self.samples_consumed,
            "momentum_histogram": self.momentum_counts.tolist(),
            "mean_spectrum_peak": None if mean is None else float(mean.max()),
        }
