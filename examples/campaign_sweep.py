#!/usr/bin/env python
"""A parameter-sweep campaign: many coupled runs from one declarative spec.

The Artificial Scientist pays off when the simulation + in-transit-learning
loop runs across many physics scenarios.  This example declares a small
learning-rate sweep with a 2-member seed ensemble per point and runs it
twice:

1. on the warm worker pool, persisting every run to an append-only JSONL
   store (re-running the script skips completed runs) and every completed
   result to a content-addressed cache;
2. as a second campaign (different name, different store, same resolved
   runs) against the warm cache — every run is served without executing
   anything, because the cache is keyed by run content, not by campaign.

Both aggregate to the identical deterministic report, printed with the
best run.

Run with::

    python examples/campaign_sweep.py [store.jsonl]
"""

from __future__ import annotations

import os
import sys

from repro.campaign import (CampaignSpec, CampaignStore, ResultCache,
                            WorkerPoolExecutor, aggregate, run_campaign)


def sweep_spec(name: str) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        base_preset="bench-tiny",
        parameters={"ml.base_learning_rate": [1e-3, 5e-4, 1e-4]},
        repetitions=2,        # 2 derived seeds per learning rate = 6 runs
        n_steps=3,
        seed=41,
    )


def main() -> None:
    store_path = sys.argv[1] if len(sys.argv) > 1 else "sweep.campaign.jsonl"
    work_dir = os.path.dirname(os.path.abspath(store_path))
    cache = ResultCache(os.path.join(work_dir, "campaign-cache"))
    executor = WorkerPoolExecutor(max_workers=2)

    spec = sweep_spec("lr-sweep")
    store = CampaignStore(store_path)
    print(f"campaign {spec.name!r}: {len(spec.resolve())} runs "
          f"({len(store.completed_run_ids())} already in {store_path})")
    outcome = run_campaign(
        spec, store, executor, cache=cache,
        on_record=lambda r: print(f"  [{r.run_id}] {r.status} "
                                  f"in {r.elapsed_s:.2f} s"))
    print(f"skipped {outcome.skipped}, executed {outcome.executed}, "
          f"cache hits {outcome.cache_hits}, failed {outcome.failed}\n")

    # a differently-named campaign over the same resolved runs: everything
    # is served from the cache (or already in its store), nothing executes
    rerun = sweep_spec("lr-sweep-replayed")
    rerun_store = CampaignStore(os.path.join(work_dir,
                                             f"{rerun.name}.campaign.jsonl"))
    replay = run_campaign(rerun, rerun_store, executor, cache=cache)
    print(f"campaign {rerun.name!r}: same runs, warm cache — executed "
          f"{replay.executed}, cache hits {replay.cache_hits}, skipped "
          f"{replay.skipped}\n")

    first = aggregate(store.records(), campaign=spec.name)
    second = aggregate(rerun_store.records(), campaign=spec.name)
    assert replay.executed == 0
    assert first.deterministic_dict() == second.deterministic_dict()
    print(first.format_text())


if __name__ == "__main__":
    main()
