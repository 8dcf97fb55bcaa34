"""Unit tests of the metrics half of ``repro.telemetry``.

Every test uses a fresh private :class:`MetricsRegistry` — the
process-wide ``REGISTRY`` belongs to the instrumented production modules
and is exercised end to end by ``test_campaign_tracing.py``.
"""

from __future__ import annotations

import threading

import pytest

from repro.telemetry import MetricsRegistry, disabled, is_enabled, set_enabled
from repro.telemetry.metrics import BUCKETS, _label_key


def value(metric, **labels) -> float:
    """One label combination's value (0 if never touched)."""
    return metric.series().get(_label_key(labels), 0.0)


def observed(histogram, **labels):
    """``(count, sum)`` of one histogram series."""
    _, total, count = histogram._data.get(_label_key(labels), (None, 0.0, 0))
    return count, total


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates_per_label_combination(self, registry):
        runs = registry.counter("runs_total", "runs")
        runs.inc(campaign="a", status="completed")
        runs.inc(2, campaign="a", status="completed")
        runs.inc(campaign="a", status="failed")
        assert value(runs, campaign="a", status="completed") == 3
        assert value(runs, campaign="a", status="failed") == 1
        assert value(runs, campaign="b", status="completed") == 0

    def test_unlabeled_series(self, registry):
        hits = registry.counter("hits_total")
        hits.inc()
        hits.inc(4)
        assert value(hits) == 5

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("c_total")
        with pytest.raises(ValueError, match="only be increased"):
            counter.inc(-1)

    def test_disabled_increments_are_dropped(self, registry):
        counter = registry.counter("c_total")
        with disabled():
            counter.inc(10)
        counter.inc(1)
        assert value(counter) == 1


class TestGauge:
    def test_set(self, registry):
        gauge = registry.gauge("throughput", "runs per second")
        gauge.set(4.5, campaign="a")
        assert value(gauge, campaign="a") == 4.5
        gauge.set(0.25, campaign="a")
        assert value(gauge, campaign="a") == 0.25


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self, registry):
        hist = registry.histogram("seconds", "run time")
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        count, total = observed(hist)
        assert count == 4 and total == pytest.approx(55.55)
        rendered = "\n".join(hist.render())
        assert 'seconds_bucket{le="0.1"} 1' in rendered
        assert 'seconds_bucket{le="1"} 2' in rendered
        assert 'seconds_bucket{le="10"} 3' in rendered
        assert 'seconds_bucket{le="+Inf"} 4' in rendered
        assert "seconds_count 4" in rendered

    def test_default_buckets_are_sorted_and_used(self, registry):
        hist = registry.histogram("h", "")
        assert hist.buckets == BUCKETS == tuple(sorted(BUCKETS))


class TestRegistry:
    def test_get_or_create_is_idempotent_per_name(self, registry):
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_conflict_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x_total", "")

    def test_collect_lists_every_metric_sorted_by_name(self, registry):
        speed = registry.gauge("speed", "runs per second")
        runs = registry.counter("runs_total")
        latency = registry.histogram("latency_seconds", "latency")
        assert registry.collect() == [latency, runs, speed]
        text = registry.render_prometheus()
        assert text.index("# TYPE latency_seconds") < \
            text.index("# TYPE runs_total") < text.index("# TYPE speed")

    def test_render_prometheus_format(self, registry):
        runs = registry.counter("runs_total", "Total runs")
        runs.inc(3, campaign="smoke", status="completed")
        gauge = registry.gauge("speed", "Runs per second")
        gauge.set(2.5)
        text = registry.render_prometheus()
        assert "# HELP runs_total Total runs" in text
        assert "# TYPE runs_total counter" in text
        # labels render alphabetically by label name
        assert 'runs_total{campaign="smoke",status="completed"} 3' in text
        assert "# TYPE speed gauge" in text
        assert "speed 2.5" in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self, registry):
        counter = registry.counter("c_total")
        counter.inc(name='we"ird\nvalue')
        rendered = registry.render_prometheus()
        assert r'name="we\"ird\nvalue"' in rendered


class TestEnabledSwitch:
    def test_set_enabled_returns_previous(self):
        previous = set_enabled(False)
        try:
            assert previous is True
            assert not is_enabled()
        finally:
            set_enabled(previous)
        assert is_enabled()

    def test_disabled_restores_on_exit(self):
        assert is_enabled()
        with disabled():
            assert not is_enabled()
        assert is_enabled()


class TestThreadSafety:
    def test_concurrent_increments_from_many_threads(self, registry):
        counter = registry.counter("c_total")
        hist = registry.histogram("h", "")
        n_threads, per_thread = 8, 500

        def hammer(index):
            for i in range(per_thread):
                counter.inc(worker=str(index % 2))
                hist.observe(0.5)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(counter.series().values())
        assert total == n_threads * per_thread
        assert observed(hist)[0] == n_threads * per_thread
