"""Append-only campaign result store: one JSON line per finished run.

The store is the campaign's durable memory.  Every record is keyed by the
run id (the hash of the resolved run payload, see
:func:`repro.campaign.spec.run_id_of`), so a re-launched campaign can skip
runs that already completed: that is the whole resumability story — no
marker files, no partial-state serialisation, just "is this run id in the
log with status ``completed``".

Records are appended (never rewritten) and flushed per line, so a campaign
killed mid-flight loses at most the run that was in progress.  When one run
id appears more than once — e.g. a failed run retried by a later launch —
the **last** record wins.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.utils.serialization import jsonable, open_append

#: Run record status values.
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"


@dataclass
class RunRecord:
    """Outcome of one campaign run, as persisted to the store.

    ``summary`` is the uniform :meth:`repro.workflow.report.RunResult.summary`
    dict of the underlying workflow run (empty for failed runs), so campaign
    tooling reuses the exact schema every execution driver already returns.
    """

    run_id: str
    index: int
    params: Dict[str, object]
    driver: str
    n_steps: int
    status: str                     #: ``completed`` or ``failed``
    attempts: int = 1
    elapsed_s: float = 0.0
    error: Optional[str] = None
    summary: Dict[str, object] = field(default_factory=dict)
    #: served from a :class:`repro.campaign.cache.ResultCache` instead of
    #: being executed by this launch (``elapsed_s``/``summary`` are the
    #: original run's)
    cached: bool = False

    @property
    def completed(self) -> bool:
        """Whether this run finished with status ``completed``."""
        return self.status == STATUS_COMPLETED

    def to_dict(self) -> Dict[str, object]:
        """The record as a plain JSON-able dict (one store row)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunRecord":
        """Rebuild a record from its :meth:`to_dict` row.

        Rows written before the ``cached`` field existed load with
        ``cached=False``.

        Raises:
            TypeError: if ``data`` is not a run-record row.
        """
        return cls(**dict(data))


class CampaignStore:
    """Append-only JSONL log of :class:`RunRecord` rows."""

    def __init__(self, path: str) -> None:
        self.path = str(path)

    # -- writing ------------------------------------------------------------ #
    def append(self, record: RunRecord) -> None:
        """Append one record and flush it to disk immediately."""
        # jsonable: numpy scalars to JSON types, non-finite floats to null —
        # a bare NaN token would make the line invalid strict JSON
        row = json.dumps(jsonable(record.to_dict()), sort_keys=True,
                         allow_nan=False)
        with open_append(self.path) as handle:
            handle.write(row + "\n")
            handle.flush()

    # -- reading ------------------------------------------------------------ #
    def _rows(self) -> Iterable[Dict[str, object]]:
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError:
                    # a truncated line from a kill mid-append (later appends
                    # start a fresh line, so it may sit mid-file): at most
                    # one in-progress run is lost, the rest must stay usable
                    warnings.warn(
                        f"campaign store {self.path}: skipping unparseable "
                        f"line {number}", RuntimeWarning, stacklevel=3)

    def records(self) -> List[RunRecord]:
        """Every run's latest record, in first-seen order."""
        latest: Dict[str, RunRecord] = {}
        for position, row in enumerate(self._rows(), 1):
            try:
                record = RunRecord.from_dict(row)
            except (TypeError, ValueError):
                # valid JSON but not a run record: this is not (or no
                # longer) a campaign store — fail loudly, not per-row
                raise ValueError(
                    f"{self.path} is not a campaign store: row {position} "
                    f"is not a campaign run record") from None
            latest[record.run_id] = record
        return list(latest.values())

    def completed_run_ids(self) -> Set[str]:
        """Run ids whose latest record completed — the resume skip-list."""
        return {record.run_id for record in self.records() if record.completed}

    def counts(self) -> Dict[str, int]:
        """Latest-record counts per status (``completed`` / ``failed``)."""
        out = {STATUS_COMPLETED: 0, STATUS_FAILED: 0}
        for record in self.records():
            out[record.status] = out.get(record.status, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.records())
