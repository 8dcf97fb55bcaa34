"""repro.campaign — parameter-sweep & ensemble campaigns over workflow sessions.

The paper's Artificial Scientist pays off when the coupled simulation +
in-transit-learning loop runs at scale across many physics scenarios, not
as one hand-launched session.  This subsystem turns one declarative
:class:`CampaignSpec` into a fleet of :mod:`repro.workflow` runs:

* :mod:`repro.campaign.spec`      — a grid of dotted ``WorkflowConfig``
  overrides with deterministic per-run seeds,
* :mod:`repro.campaign.scheduler` — the executor contract, the serial
  executor, one attempt per run with captured exceptions,
  :func:`executor_for` (options → executor) and :func:`run_campaign`
  tying everything together,
* :mod:`repro.campaign.store`     — the append-only JSONL result log keyed
  by run-id hash that makes campaigns resumable,
* :mod:`repro.campaign.cache`     — the content-addressed per-run result
  cache: completed runs are reusable across campaigns, not just within
  one store,
* :mod:`repro.campaign.workers`   — the persistent worker-pool executor:
  long-lived warm worker processes shared across calls and campaigns,
  run-granular breadth-first dispatch, concurrent leases, heartbeats
  and crash-requeue,
* :mod:`repro.campaign.aggregate` — the campaign-level report (per-parameter
  stats, best-run selection, throughput, cache provenance),
* :mod:`repro.campaign.presets`   — named campaigns (``campaign-smoke``).

CLI access: ``python -m repro.cli campaign run|status|report``.
See ``docs/campaigns.md`` and ``docs/extending-executors.md``.
"""

from repro.campaign.aggregate import (CampaignReport, aggregate,
                                      status_document)
from repro.campaign.cache import ResultCache
from repro.campaign.presets import get_campaign_preset
from repro.campaign.scheduler import (CampaignExecutor, CampaignOutcome,
                                      SerialExecutor, default_pool_workers,
                                      execute_run, executor_for,
                                      run_campaign)
from repro.campaign.workers import (WorkerPool, WorkerPoolExecutor,
                                    shared_pool, shutdown_shared_pools)
from repro.campaign.spec import (CampaignSpec, RunSpec, apply_override,
                                 run_id_of)
from repro.campaign.store import CampaignStore, RunRecord

__all__ = [
    "CampaignSpec",
    "RunSpec",
    "apply_override",
    "run_id_of",
    "CampaignStore",
    "RunRecord",
    "CampaignExecutor",
    "SerialExecutor",
    "ResultCache",
    "WorkerPool",
    "WorkerPoolExecutor",
    "shared_pool",
    "shutdown_shared_pools",
    "default_pool_workers",
    "executor_for",
    "execute_run",
    "run_campaign",
    "CampaignOutcome",
    "CampaignReport",
    "aggregate",
    "status_document",
    "get_campaign_preset",
]
