"""Tests of the campaign-throughput benchmark case
(``repro.campaign.hotpath``).

The harness behaviour every case shares (flags, persist, exit codes) is
tested once, over both cases, in ``tests/test_bench_harness.py``.
"""

from __future__ import annotations

import pytest

from repro.campaign.hotpath import (CASE, CampaignThroughputResult,
                                    check_equivalence, format_result, main,
                                    run_campaign_benchmark)
from repro.campaign.store import RunRecord, STATUS_COMPLETED, STATUS_FAILED
from repro.utils.benchjson import latest_run


def record(run_id, loss=1.0, status=STATUS_COMPLETED):
    return RunRecord(run_id=run_id, index=0, params={"p": 1},
                     driver="serial", n_steps=2, status=status,
                     summary={"final_total_loss": loss}
                     if status == STATUS_COMPLETED else {})


def stub_result(**overrides):
    kwargs = dict(runs_per_sec={"serial": 20.0, "workers": 50.0},
                  preset="campaign-smoke", n_runs=8, max_workers=2,
                  start_method="spawn", pool_stats={"dispatched_runs": 8},
                  equivalent=True, equivalence_detail="")
    kwargs.update(overrides)
    return CampaignThroughputResult(**kwargs)


class TestCheckEquivalence:
    def test_identical_records_pass(self):
        serial = [record("a"), record("b")]
        workers = [record("a"), record("b")]
        ok, detail = check_equivalence(serial, workers)
        assert ok and detail == ""

    def test_reordered_run_ids_fail(self):
        ok, detail = check_equivalence([record("a"), record("b")],
                                       [record("b"), record("a")])
        assert not ok and "order" in detail

    def test_failed_workers_runs_fail(self):
        ok, detail = check_equivalence(
            [record("a")], [record("a", status=STATUS_FAILED)])
        assert not ok and "failed" in detail

    def test_diverged_summaries_fail(self):
        ok, detail = check_equivalence([record("a", loss=1.0)],
                                       [record("a", loss=2.0)])
        assert not ok and "aggregate" in detail


class TestRunCampaignBenchmark:
    def test_measures_all_executors_and_gates(self):
        result = run_campaign_benchmark(repeats=1, max_workers=2,
                                        start_method="fork")
        assert set(result.runs_per_sec) == {"serial", "workers"}
        assert all(rate > 0 for rate in result.runs_per_sec.values())
        assert result.n_runs == 8
        assert result.equivalent, result.equivalence_detail
        # warmup + the measured block ran on the one warm pool, one pipe
        # message per run
        assert result.pool_stats["dispatched_runs"] == 8 + 2
        assert result.pool_stats["dispatched_batches"] == 8 + 2
        assert result.pool_stats["respawns"] == 0
        assert result.speedup("workers", "serial") > 0

    def test_repetitions_scale_the_run_count(self):
        result = run_campaign_benchmark(repeats=1, max_workers=2,
                                        start_method="fork", repetitions=1)
        assert result.n_runs == 2

    @pytest.mark.parametrize("kwargs", [{"repeats": 0}, {"repetitions": 0},
                                        {"max_workers": 0}])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            run_campaign_benchmark(**kwargs)


class TestPersistAndFormat:
    def test_persist_appends_bench_record(self, tmp_path, monkeypatch,
                                          capsys):
        """The record schema: the case's params/metrics plus the harness's
        ``repeats`` stamp, so a record says how it was taken."""
        monkeypatch.setattr(CASE, "run", lambda args: stub_result())
        assert main(["--repeats", "5", "--output-dir", str(tmp_path)]) == 0
        assert "BENCH_campaign_throughput.json" in capsys.readouterr().out
        saved = latest_run("campaign_throughput", str(tmp_path))
        assert saved["params"] == {
            "preset": "campaign-smoke", "n_runs": 8, "max_workers": 2,
            "start_method": "spawn", "executors": ["serial", "workers"],
            "repeats": 5}
        assert set(saved["metrics"]) == {
            "runs_per_sec", "speedup_workers_vs_serial", "pool_stats",
            "equivalent", "equivalence_detail"}
        assert saved["metrics"]["speedup_workers_vs_serial"] == 2.5
        assert saved["metrics"]["equivalent"] is True

    def test_format_mentions_every_executor_and_the_gate(self):
        text = format_result(stub_result())
        assert "serial" in text and "workers" in text
        assert "2.50x" in text
        assert "OK" in text
        failed = format_result(stub_result(equivalent=False,
                                           equivalence_detail="diverged"))
        assert "FAILED" in failed and "diverged" in failed

