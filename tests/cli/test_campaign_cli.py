"""Smoke tests of the ``campaign run|status|report|submit|watch`` and
``serve`` CLI subcommands."""

from __future__ import annotations

import contextlib
import json
import threading

import pytest

from repro.campaign import CampaignSpec, get_campaign_preset
from repro.cli import main as cli_main


@pytest.fixture
def tiny_campaign(tmp_path):
    """A 2-run campaign spec file + store path inside tmp_path."""
    spec = get_campaign_preset("campaign-smoke")
    data = spec.to_dict()
    data.update(name="cli-tiny", repetitions=1)
    spec = CampaignSpec.from_dict(data)
    spec_path = str(tmp_path / "campaign.json")
    spec.to_file(spec_path)
    return spec_path, str(tmp_path / "store.jsonl")


class TestCampaignRun:
    def test_run_and_resume(self, capsys, tiny_campaign):
        spec_path, store = tiny_campaign
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", store]) == 0
        out = capsys.readouterr().out
        assert "2 runs resolved" in out
        assert "completed: 2" in out
        # a re-launch skips everything
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", store]) == 0
        out = capsys.readouterr().out
        assert "skipped: 2" in out and "executed: 0" in out

    def test_run_with_preset_and_json(self, capsys, tmp_path):
        store = str(tmp_path / "store.jsonl")
        assert cli_main(["campaign", "run", "--preset", "campaign-smoke",
                         "--store", store, "--max-runs", "2",
                         "--executor", "serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaign"] == "campaign-smoke"
        assert payload["executed"] == 2
        assert payload["deferred"] == 6
        assert payload["done"] is False

    def test_requires_spec_or_preset(self, capsys):
        assert cli_main(["campaign", "run"]) == 2
        assert "--spec FILE or --preset NAME" in capsys.readouterr().err
        assert cli_main(["campaign", "run", "--preset", "campaign-smoke",
                         "--spec", "x.json"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_unknown_preset_and_executor_fail_cleanly(self, capsys):
        assert cli_main(["campaign", "run", "--preset", "warp"]) == 2
        assert "valid campaign presets" in capsys.readouterr().err
        assert cli_main(["campaign", "run", "--preset", "campaign-smoke",
                         "--executor", "quantum"]) == 2
        assert "valid executors" in capsys.readouterr().err

    def test_negative_max_runs_fails_cleanly(self, capsys):
        assert cli_main(["campaign", "run", "--preset", "campaign-smoke",
                         "--max-runs", "-1"]) == 2
        assert "max_runs must be >= 0" in capsys.readouterr().err


class TestCachedRuns:
    def test_cache_dir_serves_a_second_store_without_executing(
            self, capsys, tmp_path, tiny_campaign):
        spec_path, _ = tiny_campaign
        cache_dir = str(tmp_path / "cache")
        first = str(tmp_path / "first.jsonl")
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", first, "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hit(s) of 2 pending (0%)" in out

        second = str(tmp_path / "second.jsonl")
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", second, "--cache-dir", cache_dir,
                         "--executor", "workers", "--max-workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "cache: 2 hit(s) of 2 pending (100%)" in out
        assert "cache_hits: 2, executed: 0" in out
        assert "(cached)" in out

        # the report over the cache-served store counts the provenance
        assert cli_main(["campaign", "report", "--spec", spec_path,
                         "--store", second]) == 0
        assert "served from cache: 2 of 2" in capsys.readouterr().out

    def test_cache_stats_in_json_output(self, capsys, tmp_path,
                                        tiny_campaign):
        spec_path, _ = tiny_campaign
        cache_dir = str(tmp_path / "cache")
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", str(tmp_path / "a.jsonl"),
                         "--cache-dir", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"hits": 0, "misses": 2, "dir": cache_dir}
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", str(tmp_path / "b.jsonl"),
                         "--cache-dir", cache_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_hits"] == 2 and payload["executed"] == 0
        assert payload["cache"] == {"hits": 2, "misses": 0, "dir": cache_dir}


class TestCampaignStatusAndReport:
    def test_status_before_and_after(self, capsys, tiny_campaign):
        spec_path, store = tiny_campaign
        assert cli_main(["campaign", "status", "--spec", spec_path,
                         "--store", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status == {"campaign": "cli-tiny", "store": store,
                          "total_runs": 2, "completed": 0, "failed": 0,
                          "pending": 2, "cached": 0, "runs_per_sec": None,
                          "done": False}
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["campaign", "status", "--spec", spec_path,
                         "--store", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["completed"] == 2 and status["done"] is True

    def test_report_text_and_json(self, capsys, tiny_campaign):
        spec_path, store = tiny_campaign
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", store]) == 0
        capsys.readouterr()
        assert cli_main(["campaign", "report", "--spec", spec_path,
                         "--store", store]) == 0
        out = capsys.readouterr().out
        assert "best run" in out
        assert "ml.base_learning_rate" in out
        assert cli_main(["campaign", "report", "--spec", spec_path,
                         "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_completed"] == 2
        assert payload["best_run"]["final_total_loss"] == \
            payload["loss"]["min"]

    def test_status_and_report_scope_to_the_spec(self, capsys, tmp_path,
                                                 tiny_campaign):
        """Records of another spec in a shared store must not skew counts."""
        spec_path, store = tiny_campaign
        assert cli_main(["campaign", "run", "--spec", spec_path,
                         "--store", store]) == 0
        capsys.readouterr()
        # a different campaign (different seed -> disjoint run ids) sharing
        # the store: the first spec still reports only its own runs
        other = CampaignSpec.from_file(spec_path)
        other_path = str(tmp_path / "other.json")
        CampaignSpec.from_dict({**other.to_dict(), "seed": 999}).to_file(other_path)
        assert cli_main(["campaign", "status", "--spec", other_path,
                         "--store", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["completed"] == 0 and status["pending"] == 2
        assert cli_main(["campaign", "report", "--spec", other_path,
                         "--store", store]) == 2
        assert "no recorded runs" in capsys.readouterr().err
        assert cli_main(["campaign", "status", "--spec", spec_path,
                         "--store", store, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["completed"] == 2

    def test_report_without_records_errors(self, capsys, tiny_campaign):
        spec_path, store = tiny_campaign
        assert cli_main(["campaign", "report", "--spec", spec_path,
                         "--store", store]) == 2
        assert "no recorded runs" in capsys.readouterr().err


@contextlib.contextmanager
def live_service(tmp_path):
    """An in-thread campaign service (real worker) for submit/watch tests."""
    from repro.service import bus, jobs
    from repro.service.server import create_server

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bus, "KEEPALIVE_S", 0.5)
        patch.setattr(jobs, "JOIN_TIMEOUT_S", 10.0)
        server = create_server(store_dir=str(tmp_path / "svc"))
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        try:
            yield server.url
        finally:
            server.shutdown_service()
            thread.join(timeout=5)


class TestServiceCLI:
    def test_submit_then_watch(self, capsys, tmp_path, tiny_campaign):
        spec_path, _ = tiny_campaign
        with live_service(tmp_path) as url:
            assert cli_main(["campaign", "submit", "--spec", spec_path,
                             "--url", url, "--json"]) == 0
            document = json.loads(capsys.readouterr().out)
            assert document["created"] is True and document["started"] is True
            assert document["total_runs"] == 2
            assert cli_main(["campaign", "watch", document["campaign_id"],
                             "--url", url, "--json"]) == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.splitlines()]
            assert lines[-1]["event"] == "done"
            assert lines[-1]["data"]["state"] == "completed"
            run_events = [line for line in lines
                          if line["event"] in ("run", "snapshot")]
            assert len(run_events) == 2

    def test_watch_text_output_and_resubmit(self, capsys, tmp_path,
                                            tiny_campaign):
        spec_path, _ = tiny_campaign
        with live_service(tmp_path) as url:
            assert cli_main(["campaign", "submit", "--spec", spec_path,
                             "--url", url]) == 0
            out = capsys.readouterr().out
            assert "submitted as" in out and "campaign watch" in out
            campaign_id = [word for word in out.split()
                           if word.startswith("cli-tiny-")][0]
            assert cli_main(["campaign", "watch", campaign_id,
                             "--url", url]) == 0
            out = capsys.readouterr().out
            assert "done: " in out and "state: completed" in out
            # a second submit attaches to the finished campaign
            assert cli_main(["campaign", "submit", "--spec", spec_path,
                             "--url", url, "--json"]) == 0
            document = json.loads(capsys.readouterr().out)
            assert document["created"] is False
            assert document["started"] is False

    def test_watch_unknown_campaign_fails_cleanly(self, capsys, tmp_path):
        with live_service(tmp_path) as url:
            assert cli_main(["campaign", "watch", "nope", "--url", url]) == 2
            assert "HTTP 404" in capsys.readouterr().err

    def test_submit_unreachable_service_fails_cleanly(self, capsys,
                                                      tiny_campaign):
        spec_path, _ = tiny_campaign
        assert cli_main(["campaign", "submit", "--spec", spec_path,
                         "--url", "http://127.0.0.1:9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_subprocess_banner_and_health(self, tmp_path):
        """``serve --port 0`` binds a free port, prints the banner and
        answers ``/v1/health`` until interrupted."""
        import signal
        import subprocess
        import sys as _sys

        from repro.service.client import ServiceClient

        with subprocess.Popen(
                [_sys.executable, "-u", "-m", "repro.cli", "serve", "--port",
                 "0", "--store-dir", str(tmp_path / "svc")],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True) as process:
            try:
                banner = process.stdout.readline()
                assert "campaign service listening on http://" in banner
                url = [word for word in banner.split()
                       if word.startswith("http://")][0]
                health = ServiceClient(url).wait_ready(timeout=10)
                assert health["status"] == "ok"
                process.send_signal(signal.SIGINT)
                assert process.wait(timeout=15) == 0
            finally:
                if process.poll() is None:
                    process.kill()

    def test_serve_shuts_down_on_sigterm(self, tmp_path):
        """A shell starts a background job with SIGINT ignored, so
        ``kill`` (SIGTERM) is how such a service is stopped: it shuts
        down as on Ctrl-C and exits 0."""
        import signal
        import subprocess
        import sys as _sys

        from repro.service.client import ServiceClient

        with subprocess.Popen(
                [_sys.executable, "-u", "-m", "repro.cli", "serve", "--port",
                 "0", "--store-dir", str(tmp_path / "svc")],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                preexec_fn=lambda: signal.signal(signal.SIGINT,
                                                 signal.SIG_IGN)) as process:
            try:
                banner = process.stdout.readline()
                url = [word for word in banner.split()
                       if word.startswith("http://")][0]
                assert ServiceClient(url).wait_ready(
                    timeout=10)["status"] == "ok"
                process.send_signal(signal.SIGTERM)
                assert process.wait(timeout=15) == 0
                assert process.stdout.read().splitlines() == [
                    "campaign service stopped"]
            finally:
                if process.poll() is None:
                    process.kill()
