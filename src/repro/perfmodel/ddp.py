"""In-transit training weak scaling (Fig. 8).

The paper measures single-batch training times from 32 to 384 GCDs (8 to 96
nodes) and finds the efficiency — runtime at the smallest size divided by
runtime at size N — drops to about 35 % at 96 nodes.  Two effects dominate:

1. the unavoidable all-to-all (all-reduce) gradient averaging of PyTorch
   DDP, partly hidden by overlapping communication with the backward pass
   (≈ 30 % deficit), and
2. the two MMD loss terms, whose naive implementation replicates work across
   ranks and synchronises the compute graph via
   ``all_gather_into_tensor`` — a cost that grows with the global batch.

:class:`DDPWeakScalingModel` combines a fixed per-batch compute time, a ring
all-reduce term (:class:`RingAllReduceModel`) and a replicated-MMD term
growing linearly with the number of ranks, and returns the same efficiency
curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Node count at which the efficiency curve is 1 (the paper's smallest run).
BASE_NODES = 8


@dataclass
class RingAllReduceModel:
    """Analytic time model of a ring all-reduce.

    ``t(p, n) = 2 (p - 1) / p * n / bandwidth + 2 (p - 1) * latency``

    where ``n`` is the message size in bytes per rank, ``p`` the number of
    ranks and ``bandwidth`` the per-link bandwidth in bytes/s.  This is the
    classical bandwidth-optimal ring algorithm used by NCCL/RCCL and is the
    model behind the DDP weak-scaling extrapolation (Fig. 8).
    """

    bandwidth: float = 25.0e9      #: bytes/s per link (Slingshot NIC: 25 GB/s)
    latency: float = 5.0e-6        #: per-hop latency [s]
    intra_node_bandwidth: float = 150.0e9  #: Infinity-Fabric class link within a node
    gcds_per_node: int = 8

    def time(self, world_size: int, message_bytes: float) -> float:
        """Time of one all-reduce of ``message_bytes`` across ``world_size`` ranks."""
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        if world_size == 1:
            return 0.0
        p = world_size
        # Effective bandwidth: communication within a node uses the fast
        # intra-node links; the ring crosses node boundaries only
        # ceil(p / gcds_per_node) times, so the slowest (inter-node) hop
        # dominates once more than one node participates.
        if p <= self.gcds_per_node:
            bw = self.intra_node_bandwidth
        else:
            bw = self.bandwidth
        transfer = 2.0 * (p - 1) / p * message_bytes / bw
        latency = 2.0 * (p - 1) * self.latency
        return transfer + latency

    def allgather_time(self, world_size: int, message_bytes: float) -> float:
        """Time of an all-gather (each rank contributes ``message_bytes``)."""
        if world_size <= 1:
            return 0.0
        p = world_size
        bw = self.intra_node_bandwidth if p <= self.gcds_per_node else self.bandwidth
        return (p - 1) / p * message_bytes * p / bw + (p - 1) * self.latency


@dataclass(frozen=True)
class DDPScalingPoint:
    """One point of the training weak-scaling curve."""

    n_nodes: int
    n_gcds: int
    global_batch_size: int
    step_time: float
    efficiency: float
    allreduce_fraction: float
    mmd_fraction: float


@dataclass
class DDPWeakScalingModel:
    """Weak-scaling efficiency of the data-parallel in-transit training.

    Parameters
    ----------
    compute_time:
        Per-batch forward+backward+optimiser time of one GCD [s].
    gradient_bytes:
        Bytes exchanged per all-reduce (model gradients).
    allreduce:
        Ring all-reduce time model.
    overlap_fraction:
        Fraction of the all-reduce hidden behind the backward pass
        (PyTorch DDP overlaps communication with computation).
    mmd_time_per_rank:
        Extra per-batch seconds added per participating GCD by the
        replicated MMD computation and its blocking all-gather.
    batch_per_gcd:
        Per-GCD batch size (paper: n_now + n_EP = 8).
    gcds_per_node:
        GCDs per node given to the MLapp (intra-node setup: 4).
    """

    compute_time: float = 0.060
    gradient_bytes: float = 26.0e6
    allreduce: RingAllReduceModel = field(default_factory=lambda: RingAllReduceModel(
        bandwidth=2.0e9, latency=1.0e-4, intra_node_bandwidth=50.0e9, gcds_per_node=4))
    overlap_fraction: float = 0.35
    mmd_time_per_rank: float = 0.00025
    batch_per_gcd: int = 8
    gcds_per_node: int = 4

    # -- components -------------------------------------------------------- #
    def n_gcds(self, n_nodes: int) -> int:
        return n_nodes * self.gcds_per_node

    def allreduce_time(self, n_nodes: int) -> float:
        visible = (1.0 - self.overlap_fraction)
        return visible * self.allreduce.time(self.n_gcds(n_nodes), self.gradient_bytes)

    def mmd_time(self, n_nodes: int) -> float:
        """Replicated MMD work + blocking all-gather, growing with rank count."""
        n = self.n_gcds(n_nodes)
        gather = self.allreduce.allgather_time(n, self.batch_per_gcd * 544 * 4)
        return self.mmd_time_per_rank * n + gather

    def step_time(self, n_nodes: int) -> float:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        return self.compute_time + self.allreduce_time(n_nodes) + self.mmd_time(n_nodes)

    # -- the Fig. 8 curve ----------------------------------------------------- #
    def scan(self, node_counts: Sequence[int] = (8, 24, 48, 96)) -> List[DDPScalingPoint]:
        """One point per node count, efficiency relative to ``BASE_NODES``."""
        base_time = self.step_time(BASE_NODES)
        points = []
        for n_nodes in node_counts:
            t = self.step_time(n_nodes)
            points.append(DDPScalingPoint(
                n_nodes=int(n_nodes),
                n_gcds=self.n_gcds(int(n_nodes)),
                global_batch_size=self.batch_per_gcd * self.n_gcds(int(n_nodes)),
                step_time=t,
                efficiency=base_time / t,
                allreduce_fraction=self.allreduce_time(int(n_nodes)) / t,
                mmd_fraction=self.mmd_time(int(n_nodes)) / t,
            ))
        return points

    def deficit_attribution(self, n_nodes: int) -> Dict[str, float]:
        """How much of the efficiency lost since ``BASE_NODES`` each
        component accounts for."""
        base = self.step_time(BASE_NODES)
        total_extra = self.step_time(n_nodes) - base
        if total_extra <= 0:
            return {"allreduce": 0.0, "mmd": 0.0}
        extra_ar = self.allreduce_time(n_nodes) - self.allreduce_time(BASE_NODES)
        extra_mmd = self.mmd_time(n_nodes) - self.mmd_time(BASE_NODES)
        return {"allreduce": extra_ar / total_extra, "mmd": extra_mmd / total_extra}

    # -- calibration --------------------------------------------------------------- #
    @classmethod
    def paper_calibrated(cls) -> "DDPWeakScalingModel":
        """Parameters tuned so the curve lands near the measured ~35 % at 96 nodes."""
        return cls(compute_time=0.060, gradient_bytes=26.0e6,
                   overlap_fraction=0.35, mmd_time_per_rank=0.00025,
                   batch_per_gcd=8, gcds_per_node=4)
