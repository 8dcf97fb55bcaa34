"""Surfacing tests: the trace CLI, logging setup, ``/v1/metrics`` and the
``telemetry`` blocks of status documents."""

from __future__ import annotations

import contextlib
import json
import logging
import threading
import time
import urllib.request

import pytest

from repro.campaign import (CampaignSpec, CampaignStore, get_campaign_preset,
                            run_campaign, status_document)
from repro.cli import main as cli_main
from repro.service.client import ServiceClient
from repro.service.server import create_server
from repro.utils.logging import get_logger, resolve_level, setup_logging


def fake_worker(payload):
    """Deterministic stand-in for a coupled run."""
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


def smoke_spec(**kwargs) -> CampaignSpec:
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


@pytest.fixture
def traced_store(tmp_path):
    """A completed smoke campaign with its trace, via the real scheduler."""
    store = CampaignStore(tmp_path / "smoke.campaign.jsonl")
    run_campaign(smoke_spec(), store, worker=fake_worker)
    return store


@contextlib.contextmanager
def service(tmp_path):
    """A live campaign service on a free port (fake fast worker)."""
    server = create_server(store_dir=str(tmp_path / "svc"), worker=fake_worker)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown_service()
        thread.join(timeout=5)


class TestTraceCli:
    def test_renders_span_tree_from_store_path(self, traced_store, capsys):
        assert cli_main(["trace", traced_store.path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        for name in ("campaign", "resolve", "dispatch", "execute", "settle"):
            assert name in out

    def test_json_mode_prints_one_span_per_line(self, traced_store, capsys):
        assert cli_main(["trace", traced_store.path, "--json"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert {"campaign", "resolve", "dispatch", "execute", "settle"} <= \
            {row["name"] for row in rows}
        assert len({row["trace_id"] for row in rows}) == 1

    def test_run_filter_and_store_dir_resolution(self, traced_store, capsys):
        run_id = next(iter(CampaignStore(traced_store.path)
                           .completed_run_ids()))
        store_dir = str(traced_store.path).rsplit("/", 1)[0]
        assert cli_main(["trace", "smoke", "--store-dir", store_dir,
                         "--run", run_id[:6]]) == 0
        assert run_id[:12] in capsys.readouterr().out

    def test_missing_trace_errors_with_the_paths_tried(self, tmp_path,
                                                       capsys):
        assert cli_main(["trace", "nope", "--store-dir",
                         str(tmp_path)]) == 2
        assert "no trace file found" in capsys.readouterr().err

    def test_campaign_status_json_carries_telemetry(self, traced_store,
                                                    capsys):
        assert cli_main(["campaign", "status", "--preset", "campaign-smoke",
                         "--store", traced_store.path, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["telemetry"]["launches"] == 1
        assert status["telemetry"]["trace"].endswith(".trace.jsonl")


class TestLoggingSetup:
    def test_setup_is_idempotent_and_leveled(self):
        logger = setup_logging("debug")
        again = setup_logging("info")
        assert logger is again
        assert logger.level == logging.INFO
        marked = [h for h in logger.handlers
                  if getattr(h, "_repro_logging_handler", False)]
        assert len(marked) == 1
        setup_logging(None)   # back to the default for the rest of the suite
        assert logger.level == logging.WARNING

    def test_resolve_level_accepts_names_and_ints(self):
        assert resolve_level("WARNING") == logging.WARNING
        assert resolve_level("debug") == logging.DEBUG
        assert resolve_level(15) == 15
        assert resolve_level(None) == logging.WARNING
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("loud")

    def test_get_logger_prefixes_into_the_repro_tree(self):
        assert get_logger("campaign.workers").name == "repro.campaign.workers"
        assert get_logger("repro.service").name == "repro.service"

    def test_cli_rejects_unknown_level(self, capsys):
        assert cli_main(["--log-level", "loud", "presets"]) == 2
        assert "unknown log level" in capsys.readouterr().err

    def test_cli_accepts_level_before_any_command(self, capsys):
        assert cli_main(["--log-level", "warning", "presets"]) == 0


class TestMetricsEndpoint:
    def test_scrape_during_and_after_a_campaign(self, tmp_path):
        spec = smoke_spec(name="svc-metrics")
        with service(tmp_path) as server:
            client = ServiceClient(server.url, timeout=15)
            assert client.wait_ready()["status"] == "ok"
            text = urllib.request.urlopen(f"{server.url}/v1/metrics",
                                          timeout=10).read().decode()
            assert "# TYPE repro_service_requests_total counter" in text
            submitted = client.submit(spec=spec.to_dict())
            campaign_id = submitted["campaign_id"]
            deadline = time.monotonic() + 15
            while client.status(campaign_id)["state"] == "running":
                assert time.monotonic() < deadline, "campaign never finished"
                time.sleep(0.05)
            response = urllib.request.urlopen(f"{server.url}/v1/metrics",
                                              timeout=10)
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
            assert ('repro_campaign_runs_total{cached="false",'
                    'campaign="svc-metrics",status="completed"} 8') in text
            document = client.status(campaign_id)
        bus = document["telemetry"]["bus"]
        assert bus["events"] >= 8          # one per run + the done frame
        assert bus["dropped"] == 0
        # the serial default executor keeps no pool deltas; the executor
        # block only appears for executors exposing ``last_stats``
        assert "executor" not in document["telemetry"] or \
            document["telemetry"]["executor"]


class TestStatusDocuments:
    def test_status_document_telemetry_block_is_optional(self):
        base = status_document("c", 0, [], telemetry=None)
        assert "telemetry" not in base
        extended = status_document("c", 0, [], telemetry={"bus": {}})
        assert extended["telemetry"] == {"bus": {}}
