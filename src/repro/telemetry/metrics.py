"""A dependency-free labeled metrics registry with Prometheus text export.

Three metric kinds — :class:`Counter`, :class:`Gauge` and
:class:`Histogram` — each holding one value series per label combination,
all thread-safe (instrumented code runs in executor drain threads, worker
pools, the HTTP server's request threads and campaign job threads at
once).  Call sites obtain their metric once at import time::

    _RUNS = REGISTRY.counter("repro_campaign_runs_total",
                             "Campaign run records")
    ...
    _RUNS.inc(1, campaign=spec.name, status=record.status)

so the hot path is one enabled-check plus one locked dict update — and a
plain early return when telemetry is disabled
(:func:`repro.telemetry.state.is_enabled`).

:meth:`MetricsRegistry.render_prometheus` emits the standard Prometheus
text exposition format (``# HELP``/``# TYPE`` headers plus one
``name{label="value"} value`` line per series), which is what
``GET /v1/metrics`` on the campaign service serves.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.telemetry.state import is_enabled

#: Histogram bucket upper bounds (seconds), ascending: spans sub-millisecond
#: settles through minute-scale coupled runs.
BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0,
                   10.0, 30.0, 60.0, 120.0)

#: One series key: the label items sorted by label name.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical hashable key of one label combination."""
    return tuple(sorted((str(key), str(value))
                        for key, value in labels.items()))


def _escape_label(value: str) -> str:
    """Escape a label value for the Prometheus text format."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text: str) -> str:
    """Escape a HELP string for the Prometheus text format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_series(name: str, key: LabelKey, value: float) -> str:
    """One exposition line: ``name{labels} value``."""
    if key:
        labels = ",".join(f'{label}="{_escape_label(text)}"'
                          for label, text in key)
        return f"{name}{{{labels}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def _format_value(value: float) -> str:
    """A number in exposition form (integers without a trailing ``.0``)."""
    as_float = float(value)
    return repr(int(as_float)) if as_float.is_integer() else repr(as_float)


class Metric:
    """Base of all metric kinds: a named, labeled, thread-safe series map.

    Instances are created by (and registered with) a
    :class:`MetricsRegistry`; do not construct them directly.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, float] = {}

    def series(self) -> Dict[LabelKey, float]:
        """A snapshot of every label combination's current value."""
        with self._lock:
            return dict(self._series)

    def _add(self, amount: float, labels: Dict[str, object]) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def render(self) -> List[str]:
        """This metric's exposition lines (HELP/TYPE header + series)."""
        lines = [f"# HELP {self.name} {_escape_help(self.help)}",
                 f"# TYPE {self.name} {self.kind}"]
        snapshot = self.series()
        for key in sorted(snapshot):
            lines.append(_format_series(self.name, key, snapshot[key]))
        return lines


class Counter(Metric):
    """A monotonically increasing count (per label combination)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (default 1) to one label combination's count.

        Raises:
            ValueError: on a negative amount (counters only go up).
        """
        if not is_enabled():
            return
        if amount < 0:
            raise ValueError("a counter can only be increased")
        self._add(amount, labels)


class Gauge(Metric):
    """A value that can go up and down (per label combination)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        """Set one label combination's value."""
        if not is_enabled():
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)


class Histogram(Metric):
    """A distribution: cumulative buckets plus sum and count per series.

    The per-series value map holds ``(bucket_counts, sum, count)``; the
    exposition renders the standard ``_bucket``/``_sum``/``_count``
    triplet with cumulative ``le`` buckets at :data:`BUCKETS` ending in
    ``+Inf``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self.buckets = BUCKETS
        self._data: Dict[LabelKey, Tuple[List[int], float, int]] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the matching buckets."""
        if not is_enabled():
            return
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            counts, total, count = self._data.get(
                key, ([0] * len(self.buckets), 0.0, 0))
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[position] += 1
            self._data[key] = (counts, total + value, count + 1)

    def render(self) -> List[str]:
        """Exposition lines: cumulative buckets + ``_sum`` + ``_count``."""
        lines = [f"# HELP {self.name} {_escape_help(self.help)}",
                 f"# TYPE {self.name} {self.kind}"]
        with self._lock:
            snapshot = {key: (list(counts), total, count)
                        for key, (counts, total, count) in self._data.items()}
        for key in sorted(snapshot):
            counts, total, count = snapshot[key]
            for bound, bucket_count in zip(self.buckets, counts):
                bucket_key = key + (("le", _format_value(bound)),)
                lines.append(_format_series(f"{self.name}_bucket",
                                            bucket_key, bucket_count))
            lines.append(_format_series(f"{self.name}_bucket",
                                        key + (("le", "+Inf"),), count))
            lines.append(_format_series(f"{self.name}_sum", key, total))
            lines.append(_format_series(f"{self.name}_count", key, count))
        return lines


class MetricsRegistry:
    """A named collection of metrics with get-or-create registration.

    ``counter``/``gauge``/``histogram`` are idempotent per name: asking
    twice returns the same object, asking for a different kind under a
    taken name raises — two call sites sharing a metric must agree on
    what it is.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind}, not a {cls.kind}")
                return existing
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` called ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str) -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``."""
        return self._get_or_create(Histogram, name, help)

    def collect(self) -> List[Metric]:
        """Every registered metric, sorted by name."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: List[str] = []
        for metric in self.collect():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


#: The process-wide default registry every instrumented module uses.
REGISTRY = MetricsRegistry()
