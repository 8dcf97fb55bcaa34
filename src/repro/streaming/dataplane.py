"""Data planes: how bytes physically move between producer and consumer.

ADIOS2's SST engine supports several network transports ("data planes"):
TCP as a non-scalable fallback, libfabric on top of the CXI provider for
Slingshot, ucx, and MPI via ``MPI_Open_port``.  The paper benchmarks the
libfabric and MPI planes at full Frontier scale (Fig. 6).

The real coupled workflow moves steps through process memory and has no
plane; a :class:`DataPlane` here is a *cost model*, not a transport.
:class:`ModeledDataPlane` is used by the Fig. 6 benchmark harness: no real
payload is moved, instead a calibrated bandwidth/latency/contention model
predicts the per-node read time, including the behaviour of the two read
enqueue strategies (all-at-once vs. batches of 10) whose difference the
paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.utils.rng import RandomState, seeded_rng

#: A single HPE Slingshot NIC tops out at 25 GB/s (Section IV-B).
SLINGSHOT_NIC_BANDWIDTH = 25.0e9


class DataPlane:
    """Base class of data planes."""

    name: str = "abstract"

    def transfer_time(self, nbytes: int, n_nodes: int = 1,
                      enqueue_strategy: str = "batched") -> float:
        """Predicted wall-clock seconds for one node to read ``nbytes``."""
        raise NotImplementedError

    def supports(self, n_nodes: int, enqueue_strategy: str = "batched") -> bool:
        """Whether the plane/strategy combination works at this scale."""
        return True


@dataclass
class ModeledDataPlane(DataPlane):
    """Bandwidth/latency/contention model of a network data plane.

    The per-node read time for ``nbytes`` is

    ``latency + nbytes / (bandwidth * contention(n_nodes) * strategy_gain)``

    where ``contention`` decreases smoothly with the number of nodes
    (fabric congestion, metadata pressure on rank 0) and ``strategy_gain``
    captures the paper's observation that enqueueing all reads at once is
    faster than batches of 10 — but stops working beyond a scale limit.

    Default parameters are calibrated against the per-node throughputs the
    paper reports (Section IV-B): libfabric 3.5–4.7 GB/s at 4096 nodes
    (all-at-once), 1.9–2.6 GB/s at 9126 nodes (batched); MPI 2.6–3.7 GB/s at
    4096 nodes and 2.4–3.3 GB/s at 9126 nodes.
    """

    name: str = "modeled"
    base_bandwidth: float = 4.0e9          #: bytes/s per node at small scale
    latency: float = 0.05                  #: per-step fixed overhead [s]
    contention_scale: float = 16384.0      #: nodes at which contention halves throughput
    contention_exponent: float = 1.0
    all_at_once_gain: float = 1.4          #: speed-up of the all-at-once strategy
    all_at_once_max_nodes: Optional[int] = None  #: beyond this the strategy fails
    jitter: float = 0.1                    #: relative run-to-run spread
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def contention(self, n_nodes: int) -> float:
        """Throughput reduction factor in (0, 1] due to fabric contention."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        return 1.0 / (1.0 + (n_nodes / self.contention_scale) ** self.contention_exponent)

    def supports(self, n_nodes: int, enqueue_strategy: str = "batched") -> bool:
        if enqueue_strategy == "all_at_once" and self.all_at_once_max_nodes is not None:
            return n_nodes <= self.all_at_once_max_nodes
        return True

    def effective_bandwidth(self, n_nodes: int, enqueue_strategy: str = "batched") -> float:
        """Per-node bandwidth [bytes/s] at the given scale and strategy."""
        if not self.supports(n_nodes, enqueue_strategy):
            raise RuntimeError(
                f"the {self.name} data plane with strategy {enqueue_strategy!r} "
                f"does not scale to {n_nodes} nodes")
        gain = self.all_at_once_gain if enqueue_strategy == "all_at_once" else 1.0
        bw = self.base_bandwidth * self.contention(n_nodes) * gain
        return min(bw, SLINGSHOT_NIC_BANDWIDTH)

    def transfer_time(self, nbytes: int, n_nodes: int = 1,
                      enqueue_strategy: str = "batched") -> float:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        bw = self.effective_bandwidth(n_nodes, enqueue_strategy)
        noise = 1.0 + self.jitter * self.rng.standard_normal()
        noise = max(noise, 1.0 - 3.0 * self.jitter)
        return (self.latency + nbytes / bw) * noise


def make_data_plane(kind: str, rng: RandomState = None) -> DataPlane:
    """Factory for named data planes with paper-calibrated parameters.

    Parameters
    ----------
    kind:
        ``"libfabric"`` (CXI provider), ``"mpi"`` (``MPI_Open_port``
        based) or ``"tcp"`` (non-scalable fallback).
    """
    rng = seeded_rng(rng)
    if kind == "libfabric":
        # Lower-level control: fastest per-node rates at moderate scale with
        # the all-at-once strategy, but that strategy breaks beyond ~half of
        # Frontier; the batched fallback loses a sizeable factor.
        return ModeledDataPlane(name="libfabric", base_bandwidth=3.55e9, latency=0.04,
                                contention_scale=12000.0, all_at_once_gain=1.45,
                                all_at_once_max_nodes=5000, jitter=0.08, rng=rng)
    if kind == "mpi":
        # Default good performance: slightly slower than tuned libfabric at
        # 4096 nodes but degrades less towards full scale.
        return ModeledDataPlane(name="mpi", base_bandwidth=3.9e9, latency=0.05,
                                contention_scale=30000.0, all_at_once_gain=1.0,
                                all_at_once_max_nodes=None, jitter=0.12, rng=rng)
    if kind == "tcp":
        return ModeledDataPlane(name="tcp", base_bandwidth=1.0e9, latency=0.2,
                                contention_scale=256.0, jitter=0.05, rng=rng)
    raise ValueError(f"unknown data plane {kind!r}")
