"""Tests of the campaign-level aggregation report."""

from __future__ import annotations

from repro.campaign import RunRecord, aggregate, status_document
from repro.campaign.store import STATUS_COMPLETED, STATUS_FAILED


def record(run_id, loss, lr, seed=1, status=STATUS_COMPLETED, wall=0.5,
           elapsed=0.0, cached=False):
    summary = {} if status == STATUS_FAILED else {
        "final_total_loss": loss, "training_iterations": 4,
        "samples_streamed": 16, "iterations_streamed": 2,
        "streamed_megabytes": 0.1, "wall_time_s": wall}
    return RunRecord(run_id=run_id, index=0,
                     params={"ml.base_learning_rate": lr, "khi.seed": seed},
                     driver="serial", n_steps=2, status=status,
                     error="boom" if status == STATUS_FAILED else None,
                     summary=summary, elapsed_s=elapsed, cached=cached)


class TestAggregate:
    def test_overall_stats_and_best_run(self):
        records = [record("a", 3.0, 1e-3), record("b", 1.0, 1e-4),
                   record("c", 2.0, 1e-4), record("d", None, 1e-3,
                                                  status=STATUS_FAILED)]
        report = aggregate(records, campaign="study")
        assert report.campaign == "study"
        assert report.n_runs == 4
        assert report.n_completed == 3
        assert report.n_failed == 1
        assert report.loss == {"n": 3, "mean": 2.0, "min": 1.0, "max": 3.0}
        assert report.best_run["run_id"] == "b"
        assert report.best_run["final_total_loss"] == 1.0
        assert report.best_run["params"]["ml.base_learning_rate"] == 1e-4

    def test_non_finite_losses_do_not_poison_stats_or_best_run(self):
        """A diverged run (NaN loss, id sorting first) must neither win the
        best-run comparison nor turn mean/min/max into NaN."""
        records = [record("a", float("nan"), 1e-2),
                   record("b", float("inf"), 1e-2),
                   record("c", 2.0, 1e-4), record("d", 1.0, 1e-4)]
        report = aggregate(records)
        assert report.best_run["run_id"] == "d"
        assert report.loss == {"n": 2, "mean": 1.5, "min": 1.0, "max": 2.0}
        groups = report.per_parameter["ml.base_learning_rate"]
        assert "loss_mean" not in groups[str(1e-2)]  # n counted, loss absent
        assert groups[str(1e-2)]["n"] == 2.0

    def test_string_valued_parameters_keep_clean_keys(self):
        records = [RunRecord(run_id=i, index=0, params={"driver": d},
                             driver=d, n_steps=2, status=STATUS_COMPLETED,
                             summary={"final_total_loss": 1.0})
                   for i, d in (("a", "serial"), ("b", "pipelined"))]
        report = aggregate(records)
        assert set(report.per_parameter["driver"]) == {"serial", "pipelined"}

    def test_per_parameter_grouping(self):
        records = [record("a", 3.0, 1e-3), record("b", 1.0, 1e-4),
                   record("c", 2.0, 1e-4)]
        report = aggregate(records)
        groups = report.per_parameter["ml.base_learning_rate"]
        assert set(groups) == {str(1e-3), str(1e-4)}
        assert groups[str(1e-4)]["n"] == 2
        assert groups[str(1e-4)]["loss_mean"] == 1.5
        assert groups[str(1e-4)]["loss_min"] == 1.0
        assert groups[str(1e-3)]["loss_max"] == 3.0
        # both swept parameters are reported
        assert "khi.seed" in report.per_parameter

    def test_totals_and_timing(self):
        records = [record("a", 3.0, 1e-3, wall=1.0),
                   record("b", 1.0, 1e-4, wall=3.0)]
        report = aggregate(records)
        assert report.totals["samples_streamed"] == 32
        assert report.totals["training_iterations"] == 8
        assert report.timing["total_wall_s"] == 4.0
        assert report.timing["mean_wall_s"] == 2.0
        assert report.timing["samples_per_s"] == 8.0

    def test_timing_runs_per_sec_over_executed_runs(self):
        report = aggregate([record("a", 1.0, 1e-3, elapsed=1.0),
                            record("b", 2.0, 1e-3, elapsed=3.0)])
        assert report.timing["runs_per_sec"] == 0.5
        assert "throughput" in report.format_text()

    def test_runs_per_sec_excludes_cached_and_failed_runs(self):
        """Cache hits cost no executor time and failed runs complete
        nothing — neither may inflate the throughput figure."""
        report = aggregate([record("a", 1.0, 1e-3, elapsed=2.0),
                            record("b", 2.0, 1e-3, elapsed=99.0, cached=True),
                            record("c", None, 1e-3, status=STATUS_FAILED,
                                   elapsed=50.0)])
        assert report.timing["runs_per_sec"] == 0.5

    def test_runs_per_sec_absent_when_nothing_executed(self):
        cached_only = aggregate([record("a", 1.0, 1e-3, elapsed=5.0,
                                        cached=True)])
        assert "runs_per_sec" not in cached_only.timing
        zero_elapsed = aggregate([record("a", 1.0, 1e-3)])
        assert "runs_per_sec" not in zero_elapsed.timing

    def test_deterministic_dict_excludes_timing(self):
        fast = aggregate([record("a", 3.0, 1e-3, wall=0.1)])
        slow = aggregate([record("a", 3.0, 1e-3, wall=9.0)])
        assert fast.deterministic_dict() == slow.deterministic_dict()
        assert fast.to_dict()["timing"] != slow.to_dict()["timing"]

    def test_empty_and_all_failed(self):
        empty = aggregate([])
        assert empty.n_runs == 0 and empty.loss is None and empty.best_run is None
        failed = aggregate([record("a", None, 1e-3, status=STATUS_FAILED)])
        assert failed.n_failed == 1
        assert failed.loss is None
        assert failed.per_parameter == {}

    def test_format_text_survives_completed_runs_without_losses(self):
        """Regression: a completed run reporting no loss (e.g. nothing was
        streamed) must not crash the text report."""
        lossless = RunRecord(run_id="a", index=0, params={"khi.seed": 1},
                             driver="serial", n_steps=2,
                             status=STATUS_COMPLETED,
                             summary={"final_total_loss": None})
        report = aggregate([lossless])
        text = report.format_text()
        assert "khi.seed" in text
        assert report.loss is None

    def test_format_text_mentions_the_essentials(self):
        report = aggregate([record("a", 3.0, 1e-3), record("b", 1.0, 1e-4)],
                           campaign="fmt")
        text = report.format_text()
        assert "'fmt'" in text
        assert "best run" in text
        assert "ml.base_learning_rate" in text


class TestStatusDocument:
    def test_runs_per_sec_counts_executed_runs_only(self):
        records = [record("a", 1.0, 1e-3, elapsed=2.0),
                   record("b", 1.0, 1e-3, elapsed=7.5, cached=True)]
        document = status_document("study", 4, records, None)
        assert document["runs_per_sec"] == 0.5
        assert document["cached"] == 1

    def test_runs_per_sec_is_none_until_something_executed(self):
        assert status_document("study", 4, [], None)["runs_per_sec"] is None
        cached = [record("a", 1.0, 1e-3, elapsed=5.0, cached=True)]
        assert status_document("study", 4, cached, None)["runs_per_sec"] is None
