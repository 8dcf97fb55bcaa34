"""The cooperative-stop contract of ``CampaignExecutor.execute``.

Every registered executor must honour it the same way: once
``should_stop`` is true no further run *starts*, every run that did start
finishes with a record, the result keeps one entry per payload (``None``
for a run that never started), and ``run_campaign`` reports the rest as
``deferred`` so the next launch picks up exactly the remainder.

Pools use ``start_method="fork"`` for the reason given in
``test_workers.py``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.campaign import (CampaignSpec, CampaignStore, WorkerPool,
                            WorkerPoolExecutor, get_campaign_preset,
                            get_executor, run_campaign)
from repro.campaign.scheduler import (_EXECUTORS, CampaignExecutor,
                                      register_executor)

#: Records after which the observer trips the stop.
STOP_AFTER = 2


def paced_worker(payload):
    """A run long enough that a pool cannot finish the sweep before the
    stop is seen (the assertions below hold for any duration)."""
    time.sleep(0.03)
    lr = payload["config"]["ml"]["base_learning_rate"]
    return {"final_total_loss": 1000.0 * lr + payload["index"],
            "training_iterations": payload["n_steps"],
            "samples_streamed": 4 * payload["n_steps"],
            "wall_time_s": 0.0, "ok": True}


def sweep(name: str) -> CampaignSpec:
    """Twelve runs: more than any executor here can have started by the
    time two records are in."""
    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(name=name, repetitions=6)
    return CampaignSpec.from_dict(base)


EXECUTORS = {
    "serial": lambda pool: get_executor("serial"),
    "workers": lambda pool: WorkerPoolExecutor(max_workers=2, pool=pool),
}


@pytest.fixture
def pool(fast_heartbeat):
    pool = WorkerPool(2, start_method="fork")
    yield pool
    pool.shutdown()


class Tripwire:
    """An observer that asks for a stop once it saw ``STOP_AFTER`` records."""

    def __init__(self):
        self.seen = []

    def on_record(self, record):
        self.seen.append(record)

    def should_stop(self):
        return len(self.seen) >= STOP_AFTER


@pytest.mark.parametrize("name", sorted(EXECUTORS))
class TestShouldStopContract:
    def test_execute_keeps_one_entry_per_payload(self, name, pool):
        payloads = [run.payload() for run in sweep(f"stop-{name}").resolve()]
        wire = Tripwire()
        entries = EXECUTORS[name](pool).execute(
            payloads, paced_worker, on_record=wire.on_record,
            should_stop=wire.should_stop)
        assert len(entries) == len(payloads)
        started = [entry for entry in entries if entry is not None]
        # every started run finished and was observed exactly once ...
        assert all(record.completed for record in started)
        assert sorted(r.run_id for r in started) == \
            sorted(r.run_id for r in wire.seen)
        # ... in its payload's slot; the stop left some runs un-started
        assert all(entry is None or entry.run_id == payload["run_id"]
                   for entry, payload in zip(entries, payloads))
        assert STOP_AFTER <= len(started) < len(payloads)

    def test_run_campaign_defers_and_a_relaunch_runs_the_remainder(
            self, name, pool, tmp_path):
        spec = sweep(f"resume-{name}")
        expected = sorted(run.run_id for run in spec.resolve())
        store = CampaignStore(str(tmp_path / "stop.jsonl"))
        wire = Tripwire()
        first = run_campaign(spec, store, EXECUTORS[name](pool),
                             worker=paced_worker, on_record=wire.on_record,
                             should_stop=wire.should_stop)
        assert first.deferred > 0 and not first.done
        assert first.executed == first.completed == len(first.records) \
            == len(wire.seen)
        assert first.executed + first.deferred == first.total_runs
        second = run_campaign(spec, store, EXECUTORS[name](pool),
                              worker=paced_worker)
        assert second.skipped == first.executed
        assert second.executed == first.deferred
        assert second.done and second.deferred == 0
        with open(store.path, encoding="utf-8") as handle:
            stored = [json.loads(line)["run_id"] for line in handle]
        assert sorted(stored) == expected          # every run id exactly once


class TestOlderExecutorsKeepWorking:
    def test_three_argument_execute_is_only_given_what_it_knows(self, tmp_path):
        """An executor written before ``should_stop`` existed still runs a
        campaign that does not ask for a stop."""

        class Legacy(CampaignExecutor):
            name = "legacy-three-arg"

            def execute(self, payloads, worker, on_record=None):
                return get_executor("serial").execute(payloads, worker,
                                                      on_record=on_record)

        register_executor(Legacy.name, Legacy)
        try:
            spec = sweep("legacy")
            outcome = run_campaign(spec, CampaignStore(str(tmp_path / "l.jsonl")),
                                   get_executor(Legacy.name),
                                   worker=paced_worker)
            assert outcome.done
        finally:
            _EXECUTORS.pop(Legacy.name)
