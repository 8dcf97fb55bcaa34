"""Content-addressed per-run result cache: skip runs already computed.

A run's identity is the SHA-256 hash of its fully-resolved payload
(:func:`repro.campaign.spec.run_id_of`) — config, driver and step count.
That makes the completed :class:`repro.campaign.store.RunRecord` of a run
reusable *anywhere* the same resolved run appears: a re-launched campaign,
a differently-named campaign sharing sweep points, or a different store on
the same machine.  The store gives resumability *within* one campaign log;
the cache gives result reuse *across* campaigns.

Layout is one JSON file per run id, fanned out over two-hex-digit
subdirectories (``<root>/<id[:2]>/<id>.json``) so even large caches keep
directory listings cheap.  Writes are atomic (temp file + ``os.replace``),
so concurrent campaigns sharing a cache never observe a half-written
entry.  A corrupt or foreign entry is treated as a miss (with a warning)
and overwritten by the recomputed result — the cache can always be
deleted or hand-pruned without breaking anything.

Only **completed** records are cached: a failed run must stay eligible for
re-execution.  :func:`repro.campaign.scheduler.run_campaign` consults the
cache *before* dispatching to its executor, which is what lets every
executor — serial, the worker pool, user-registered — skip cached runs
without knowing the cache exists.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import replace
from typing import Dict, Optional

from repro.campaign.store import RunRecord
from repro.telemetry import REGISTRY
from repro.utils.serialization import jsonable

_CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits_total", "Result-cache lookups served from the cache")
_CACHE_MISSES = REGISTRY.counter(
    "repro_cache_misses_total",
    "Result-cache lookups that missed (absent or corrupt entry)")


class ResultCache:
    """Filesystem-backed map of run id to completed :class:`RunRecord`.

    Args:
        root: cache directory (created lazily on the first ``put``).

    Attributes:
        hits: lookups served from the cache since construction.
        misses: lookups that found nothing usable (absent or corrupt).
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.hits = 0
        self.misses = 0

    def entry_path(self, run_id: str) -> str:
        """The on-disk path of one run's cache entry (may not exist)."""
        run_id = str(run_id)
        return os.path.join(self.root, run_id[:2], f"{run_id}.json")

    def get(self, run_id: str) -> Optional[RunRecord]:
        """Look one run up, counting the hit or miss.

        Args:
            run_id: the resolved-run hash to look up.

        Returns:
            The cached record with ``cached=True`` set, or ``None`` on a
            miss.  A corrupt, unreadable or non-completed entry is a miss
            (a ``RuntimeWarning`` is emitted) — the caller recomputes and
            the recompute's ``put`` repairs the entry.
        """
        path = self.entry_path(run_id)
        if not os.path.exists(path):
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                record = RunRecord.from_dict(json.load(handle))
            if record.run_id != str(run_id) or not record.completed:
                raise ValueError("entry does not hold a completed record "
                                 "of this run")
        except (OSError, ValueError, TypeError, KeyError) as error:
            warnings.warn(
                f"result cache {self.root}: corrupt entry for run "
                f"{run_id} ({error}); recomputing", RuntimeWarning,
                stacklevel=2)
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        self.hits += 1
        _CACHE_HITS.inc()
        return replace(record, cached=True)

    def put(self, record: RunRecord) -> bool:
        """Cache one record if it is a fresh completed result.

        Failed records are refused (they must stay re-executable) and
        records already served from a cache are not re-written.

        Args:
            record: the run record to cache.

        Returns:
            ``True`` if the entry was written, ``False`` if refused.
        """
        if not record.completed or record.cached:
            return False
        path = self.entry_path(record.run_id)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # cached=False in the entry: every get() stamps its own copy, and
        # a record must not claim cache provenance it does not have yet
        row = json.dumps(jsonable(replace(record, cached=False).to_dict()),
                         sort_keys=True, allow_nan=False)
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=os.path.dirname(path),
            prefix=f".{record.run_id}.", suffix=".tmp", delete=False)
        try:
            with handle:
                handle.write(row)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return True

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters of this cache handle (JSON-able)."""
        return {"hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for prefix in os.listdir(self.root):
            subdir = os.path.join(self.root, prefix)
            if os.path.isdir(subdir):
                count += sum(1 for name in os.listdir(subdir)
                             if name.endswith(".json"))
        return count
