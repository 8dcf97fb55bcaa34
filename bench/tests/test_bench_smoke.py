"""Self-tests of the benchmark: ``run.py --smoke`` drives the same code paths
as a measured run at sizes that take seconds."""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench import compare, tracing  # noqa: E402 - needs ROOT on the path

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    DECLARED = json.load(_handle)

COUPLED = ("coupled-train-bound", "coupled-pic-bound", "coupled-overlap")
#: per-layer metrics that must read non-zero, by the workloads that exercise
#: the layer (a prefix ending in "." stands for every metric under it)
EXERCISED = {
    COUPLED: ("pic.", "radiation.", "core.", "continual.", "models.", "mlcore.",
              "streaming.write_ms", "streaming.write_wait_ms",
              "streaming.read_wait_ms", "streaming.bytes_per_step",
              "streaming.mb_per_sec", "streaming.queue_depth_max",
              "workflow.fanout_ms", "workflow.step_interval_p50_ms",
              "workflow.producer_busy_frac", "workflow.consumer_busy_frac",
              "workflow.driver_self_ms", "trace.coverage_frac"),
    ("coupled-overlap",): ("streaming.reduce_ms",),
    ("campaign-pool",): ("campaign.resolve_ms", "campaign.execute_s",
                         "campaign.run_", "campaign.worker_idle_frac",
                         "campaign.store_append_ms", "campaign.cache_",
                         "campaign.serial_runs_per_sec",
                         "campaign.pool_efficiency",
                         "campaign.replay_runs_per_sec",
                         "campaign.pool_dispatched_batches",
                         "trace.coverage_frac"),
    ("service-sse",): ("campaign.execute_s", "campaign.run_",
                       "service.submit_ms", "service.first_frame_s",
                       "service.sse_delivery_p50_ms", "service.status_ms",
                       "service.metrics_scrape_ms",
                       "service.direct_runs_per_sec",
                       "service.late_subscriber_snapshot_frames",
                       "trace.coverage_frac"),
}


def run_bench(*arguments, code=None):
    """``bench/run.py`` in a fresh interpreter, from the repo root."""
    command = [sys.executable] + (["-c", code] if code is not None else
                                  [os.path.join(BENCH_DIR, "run.py")])
    return subprocess.run(command + list(arguments), cwd=ROOT, text=True,
                          capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = run_bench("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


def test_smoke_emits_every_declared_metric(smoke):
    document, printed = smoke
    assert list(document["workloads"]) == [w["name"] for w in
                                           DECLARED["workloads"]]
    for name, result in document["workloads"].items():
        assert result["failed"] == 0 and result["attempted"] > 0, name
        for kind in ("end_to_end", "per_layer"):
            assert list(result[kind]) == [m["name"] for m in DECLARED[kind]]
            for metric in DECLARED[kind]:
                assert result[kind][metric["name"]]["unit"] == metric["unit"]
                assert metric["name"] in printed
        for metric, row in result["end_to_end"].items():
            assert row["value"] > 0, (name, metric)


def test_smoke_exercises_each_layer_on_the_right_workloads(smoke):
    document, _ = smoke
    for workloads, wanted in EXERCISED.items():
        for name in workloads:
            layers = document["workloads"][name]["per_layer"]
            for prefix in wanted:
                hits = [metric for metric in layers if metric.startswith(prefix)]
                assert hits, prefix
                for metric in hits:
                    assert layers[metric]["value"] != 0, (name, metric)
    # and a layer a workload does not touch reads zero there
    assert document["workloads"]["campaign-pool"]["per_layer"][
        "pic.gather_ms"]["value"] == 0
    assert document["workloads"]["coupled-train-bound"]["per_layer"][
        "service.submit_ms"]["value"] == 0


def test_trace_spans_nest(smoke):
    for workload in DECLARED["workloads"]:
        spans = tracing.read_spans(os.path.join(
            BENCH_DIR, "out", f"trace-{workload['name']}.jsonl"))
        assert spans, workload["name"]
        assert tracing.nesting_errors(spans) == []


def test_failed_output_check_fails_the_command():
    # an energy band no run can meet, injected where run.py reads its bands
    code = ("import sys; sys.path.insert(0, '.'); "
            "from bench import run, workloads; "
            "bands = dict.fromkeys(('energy_drift', 'final_loss'), [2.0, 3.0]); "
            "workloads.load_reference = lambda: {'workloads': "
            "{'coupled-train-bound@8': bands}}; "
            "sys.exit(run.main(sys.argv[1:]))")
    done = run_bench("--workload", "coupled-train-bound", "--smoke", code=code)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 1, done.stdout + done.stderr
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "FAILED: energy drift" in done.stdout


def _document(rate: float, failed: int = 0) -> dict:
    return {"workloads": {"coupled-train-bound": {
        "attempted": 100, "failed": failed,
        "end_to_end": {"steps_per_sec": {"value": rate, "spread": 0.01},
                       "result_lag_ms": {"value": 1e3 / rate, "spread": 0.01}}}}}


def _verdicts(base: dict, new: dict) -> dict:
    rows = compare.compare(base["workloads"], new["workloads"],
                           DECLARED["end_to_end"])
    return {row[1]: row[-1] for row in rows}


def test_compare_passes_an_identical_pair_and_flags_a_drop(tmp_path):
    assert set(_verdicts(_document(50.0), _document(50.0)).values()) == {"ok"}
    slower = _verdicts(_document(50.0), _document(35.0))
    assert slower["steps_per_sec"] == "regressed"      # 30 % fewer steps/s
    assert slower["result_lag_ms"] == "regressed"      # and 43 % more lag
    assert _verdicts(_document(35.0), _document(50.0))["steps_per_sec"] == "ok"
    assert _verdicts(_document(50.0), _document(45.0))["steps_per_sec"] == "ok"
    assert _verdicts(_document(50.0), _document(50.0, failed=1))[
        "error_rate"] == "regressed"
    noisy = _document(50.0)
    noisy["workloads"]["coupled-train-bound"]["end_to_end"]["steps_per_sec"][
        "spread"] = 0.5
    assert _verdicts(noisy, _document(49.0))["steps_per_sec"] == "unresolved"

    paths = []
    for label, document in (("base", _document(50.0)), ("new", _document(35.0))):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main([paths[0], paths[1]]) == 1
