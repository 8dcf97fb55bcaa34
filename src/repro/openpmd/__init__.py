"""openPMD output as the steps it is streamed as.

openPMD is the data standard the paper uses to describe simulation output
independently of the transport: the same writer code targets files or the
ADIOS2 SST engine, which hands every closed iteration to the readers as one
step.  Here an iteration *is* that step — a :class:`repro.streaming.Step`
whose arrays are keyed by their openPMD record paths
(``particles/<species>/<record>[/<component>]``) — and
:class:`repro.openpmd.series.Series` writes and reads steps on

* an :class:`repro.streaming.SSTBroker` (or the workflow's fan-out over
  several) — the in-transit workflow of the paper, or
* a :class:`repro.openpmd.series.DirectoryStore` — one JSON + ``.npz`` pair
  per iteration, the classical file-based workflow the paper moves away
  from.
"""

from repro.openpmd.series import DirectoryStore, Series

__all__ = ["DirectoryStore", "Series"]
