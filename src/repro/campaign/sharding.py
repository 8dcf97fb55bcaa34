"""Sharded campaign execution: partition one campaign across named shards.

The paper's weak-scaling story fans one coupled run out into fleets of
simulation/training sessions; this module is the first scaling backend on
the :class:`repro.campaign.scheduler.CampaignExecutor` seam.  A
:class:`ShardedExecutor` splits the resolved run payloads across ``shards``
named shards (``shard-0`` … ``shard-N-1``), hands each shard to a fresh
instance of any *inner* registered executor (``serial``, ``workers``, or a
user-registered backend) and merges the per-shard records back into one
result list in submission order — so ``run_campaign`` builds exactly the
same :class:`repro.campaign.scheduler.CampaignOutcome` a serial launch
would.

*Which* run lands on *which* shard is a :class:`WorkloadRouter` policy:

* ``hash``        — stable content hash of the run id; a run keeps its
  shard across launches, resumes and machines (default),
* ``round-robin`` — position in the submitted payload list modulo the
  shard count; balances unequal-cost sweeps,
* ``explicit``    — a hand-written ``run_id -> shard index`` mapping with
  hash fallback for unlisted runs; pins known-heavy runs to their own
  shard.

Routers register through :func:`register_router` exactly like executors do
through :func:`repro.campaign.scheduler.register_executor`.

Shards execute concurrently (one coordinating thread each), so with the
``serial`` inner executor a sharded launch is the repo's bounded *thread*
fan-out (``shards`` runs in flight, overlapping whatever releases the
interpreter lock), and with the ``workers`` inner executor every shard
leases the one shared warm pool.  In-process shards are the
local stand-in for the multi-node layout the paper implies: the routing
policy, not the transport, is the part a remote backend would reuse.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.campaign.scheduler import (CampaignExecutor, available_executors,
                                      get_executor, register_executor)
from repro.campaign.store import RunRecord


def stable_shard_hash(run_id: str, n_shards: int) -> int:
    """Map a run id onto ``[0, n_shards)`` via SHA-256 (process-stable).

    Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``),
    which would scatter a resumed campaign's runs onto different shards on
    every launch; a content hash keeps shard assignment a pure function of
    the run identity.

    Args:
        run_id: the run's identity hash (any non-empty string works).
        n_shards: number of shards to map onto (``>= 1``).

    Returns:
        The shard index in ``range(n_shards)``.
    """
    digest = hashlib.sha256(str(run_id).encode("utf-8")).hexdigest()
    return int(digest, 16) % n_shards


class WorkloadRouter:
    """Strategy interface: assign each run payload to one shard.

    Subclasses implement :meth:`shard_of` and set a class-level ``name``
    under which :func:`register_router` makes them reachable from specs
    and the CLI (``--route``).
    """

    name: str = "abstract"

    def shard_of(self, payload: Mapping[str, object], position: int,
                 n_shards: int) -> int:
        """The shard index for one payload.

        Args:
            payload: the resolved run payload (``RunSpec.payload()`` shape;
                at minimum carries ``run_id``).
            position: the payload's position in the submitted list (what
                round-robin distributes over).
            n_shards: total number of shards.

        Returns:
            An index in ``range(n_shards)``.

        Raises:
            ValueError: if the policy produces an out-of-range shard
                (e.g. a bad explicit assignment).
        """
        raise NotImplementedError


class HashRouter(WorkloadRouter):
    """Route by a stable content hash of the run id (the default policy).

    Deterministic across launches, resumes, processes and machines: the
    same run always lands on the same shard, which is what lets a future
    remote backend cache per-shard state.
    """

    name = "hash"

    def shard_of(self, payload, position, n_shards):
        """Hash the payload's ``run_id`` onto a shard index."""
        return stable_shard_hash(str(payload["run_id"]), n_shards)


class RoundRobinRouter(WorkloadRouter):
    """Route by submission position modulo the shard count.

    Gives the most even shard sizes (within one run), at the cost of a
    run's shard depending on what else is pending — a resumed campaign
    may re-shard its leftovers.
    """

    name = "round-robin"

    def shard_of(self, payload, position, n_shards):
        """Cycle through the shards in submission order."""
        return position % n_shards


class ExplicitRouter(WorkloadRouter):
    """Route by a hand-written ``run_id -> shard index`` mapping.

    Unlisted runs fall back to the hash policy, so an explicit map only
    needs to pin the runs that matter (e.g. the known-heavy corner of a
    sweep onto its own shard).

    Args:
        assignments: mapping of run id to shard index.

    Raises:
        ValueError: if ``assignments`` is not a mapping of string run ids
            to integer shard indices.
    """

    name = "explicit"

    def __init__(self, assignments: Optional[Mapping[str, object]] = None) -> None:
        assignments = dict(assignments or {})
        for run_id, shard in assignments.items():
            if not isinstance(shard, int) or isinstance(shard, bool):
                raise ValueError(
                    f"explicit route assignment for run {run_id!r} must be "
                    f"an integer shard index, got {shard!r}")
        self.assignments: Dict[str, int] = assignments

    def shard_of(self, payload, position, n_shards):
        """Look the run id up in the assignments, hash-falling-back."""
        run_id = str(payload["run_id"])
        if run_id in self.assignments:
            shard = self.assignments[run_id]
            if not 0 <= shard < n_shards:
                raise ValueError(
                    f"explicit route assignment for run {run_id!r} is shard "
                    f"{shard}, outside 0..{n_shards - 1}")
            return shard
        return stable_shard_hash(run_id, n_shards)


#: Router factories keyed by policy name (``assignments`` is forwarded to
#: the explicit router and ignored by the stateless ones).
_ROUTERS: Dict[str, Callable[..., WorkloadRouter]] = {
    HashRouter.name: lambda assignments=None: HashRouter(),
    RoundRobinRouter.name: lambda assignments=None: RoundRobinRouter(),
    ExplicitRouter.name: lambda assignments=None: ExplicitRouter(assignments),
}


def available_routers() -> tuple:
    """The registered workload-router policy names, sorted."""
    return tuple(sorted(_ROUTERS))


def register_router(name: str, factory: Callable[..., WorkloadRouter],
                    overwrite: bool = False) -> None:
    """Register a workload-router policy under ``name``.

    Args:
        name: the policy name (reachable via ``--route`` and spec routing).
        factory: callable accepting an ``assignments`` keyword and
            returning a :class:`WorkloadRouter`.
        overwrite: allow replacing an existing registration.

    Raises:
        ValueError: if ``name`` is taken and ``overwrite`` is false.
    """
    if name in _ROUTERS and not overwrite:
        raise ValueError(f"router {name!r} is already registered")
    _ROUTERS[name] = factory


def get_router(name: str,
               assignments: Optional[Mapping[str, object]] = None) -> WorkloadRouter:
    """Instantiate a workload router by policy name.

    Args:
        name: one of :func:`available_routers`.
        assignments: explicit ``run_id -> shard`` mapping (only meaningful
            for the ``explicit`` policy).

    Returns:
        A fresh :class:`WorkloadRouter`.

    Raises:
        ValueError: on an unknown policy name.
    """
    try:
        factory = _ROUTERS[name]
    except KeyError:
        raise ValueError(f"unknown route {name!r}; valid routes: "
                         f"{', '.join(available_routers())}") from None
    return factory(assignments=assignments)


class ShardedExecutor(CampaignExecutor):
    """Partition a campaign across named shards, delegating per shard.

    Each shard gets a *fresh* instance of the inner executor (built with
    this executor's ``max_workers`` / ``timeout`` / ``retries``); ``workers``
    instances of one width share one warm pool.  Records come back in
    submission order and the executor contract (exceptions captured into
    records, timeout cooperative) is whatever the inner executor
    guarantees — sharding adds routing, not semantics.

    Args:
        shards: number of named shards (``>= 1``).
        route: routing policy name (see :func:`available_routers`).
        inner: registered name of the executor run inside each shard
            (anything but ``sharded`` itself).
        assignments: ``run_id -> shard index`` map for ``route="explicit"``.
        max_workers: forwarded to the inner executor (the pool width of
            ``inner="workers"``).
        timeout: per-run cooperative wall-clock budget (seconds).
        retries: retries per failing run.

    Raises:
        ValueError: on ``shards < 1``, an unknown/unregistered inner
            executor, a recursive ``inner="sharded"``, or an unknown route.

    Attributes:
        shard_sizes: after :meth:`execute`, the ``shard name -> payload
            count`` map of the last launch (reported by the CLI).
    """

    name = "sharded"

    def __init__(self, shards: int = 2, route: str = "hash",
                 inner: str = "serial",
                 assignments: Optional[Mapping[str, object]] = None,
                 max_workers: Optional[int] = None,
                 timeout: Optional[float] = None, retries: int = 0) -> None:
        super().__init__(max_workers=max_workers, timeout=timeout,
                         retries=retries)
        if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
            raise ValueError(f"shards must be an integer >= 1, got {shards!r}")
        if inner == self.name:
            raise ValueError("the sharded executor cannot shard into itself; "
                             "pick a leaf inner executor (serial, workers, "
                             "...)")
        if inner not in available_executors():
            raise ValueError(f"unknown inner executor {inner!r}; valid "
                             f"executors: {', '.join(available_executors())}")
        if assignments and route != ExplicitRouter.name:
            raise ValueError(f"route assignments require route='explicit', "
                             f"got route={route!r}; they would be silently "
                             f"ignored")
        self.shards = shards
        self.inner = inner
        self.router = get_router(route, assignments=assignments)
        self.shard_sizes: Dict[str, int] = {}

    def shard_names(self) -> List[str]:
        """The shard names in index order (``shard-0`` … ``shard-N-1``)."""
        return [f"shard-{index}" for index in range(self.shards)]

    def _position_buckets(self, payloads: Sequence[Mapping[str, object]]
                          ) -> Dict[int, List[tuple]]:
        """Route payloads into ``shard index -> [(position, payload)]``."""
        buckets: Dict[int, List[tuple]] = {i: [] for i in range(self.shards)}
        for position, payload in enumerate(payloads):
            shard = self.router.shard_of(payload, position, self.shards)
            if (not isinstance(shard, int) or isinstance(shard, bool)
                    or not 0 <= shard < self.shards):
                raise ValueError(
                    f"router {self.router.name!r} produced shard {shard!r} "
                    f"for run {payload.get('run_id')!r}, not an index in "
                    f"0..{self.shards - 1}")
            buckets[shard].append((position, payload))
        return buckets

    def partition(self, payloads: Sequence[Mapping[str, object]]
                  ) -> Dict[str, List[Mapping[str, object]]]:
        """Split payloads into per-shard lists under the routing policy.

        Pure and deterministic for the stateless routers: the same payload
        list always partitions the same way.  Shards are disjoint and
        their union is the input (order preserved within each shard).

        Args:
            payloads: resolved run payloads (``RunSpec.payload()`` dicts).

        Returns:
            ``shard name -> payload list`` covering every shard (possibly
            with empty lists).

        Raises:
            ValueError: if the router produces an out-of-range shard.
        """
        return {f"shard-{index}": [payload for _, payload in bucket]
                for index, bucket in self._position_buckets(payloads).items()}

    def execute(self, payloads, worker, on_record=None, should_stop=None):
        """Execute the payloads shard-by-shard, merging in submission order.

        Shards run concurrently (one coordinating thread each); the
        ``on_record`` callback is serialised under a lock so store appends
        from different shards never interleave.  ``should_stop`` is handed
        to every shard's inner executor (only when given, like
        ``run_campaign`` does), whose ``None`` entries merge through.  An
        abort (e.g. Ctrl-C) cancels the shards that have not started.
        """
        payloads = list(payloads)
        self.shard_sizes = {name: 0 for name in self.shard_names()}
        if not payloads:
            return []
        buckets = self._position_buckets(payloads)
        self.shard_sizes = {f"shard-{index}": len(bucket)
                            for index, bucket in buckets.items()}

        callback_lock = threading.Lock()

        def locked_on_record(record: RunRecord) -> None:
            with callback_lock:
                on_record(record)

        shard_callback = locked_on_record if on_record is not None else None
        stop = {} if should_stop is None else {"should_stop": should_stop}

        def run_shard(bucket: List[tuple]) -> List[tuple]:
            executor = get_executor(self.inner, max_workers=self.max_workers,
                                    timeout=self.timeout, retries=self.retries)
            records = executor.execute([payload for _, payload in bucket],
                                       worker, on_record=shard_callback,
                                       **stop)
            return [(position, record)
                    for (position, _), record in zip(bucket, records)]

        non_empty = [bucket for bucket in buckets.values() if bucket]
        merged: Dict[int, Optional[RunRecord]] = {}
        with ThreadPoolExecutor(max_workers=len(non_empty)) as pool:
            futures = [pool.submit(run_shard, bucket) for bucket in non_empty]
            try:
                for future in futures:
                    for position, record in future.result():
                        merged[position] = record
            except BaseException:
                # abort: stop the shards that have not started
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return [merged[position] for position in range(len(payloads))]


register_executor(ShardedExecutor.name, ShardedExecutor)
