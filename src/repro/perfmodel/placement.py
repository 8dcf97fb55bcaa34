"""Resource placement: how producer and consumer share the machine (Fig. 3c).

Two placements are modelled on Frontier:

* **intra-node** (the paper's choice): every node runs both applications;
  4 GCDs go to PIConGPU and 4 GCDs to the MLapp, and the data exchange
  mostly stays inside the node (host memory / XGMI), at the cost of a
  heterogeneous per-node resource assignment;
* **inter-node**: nodes are dedicated to either the simulation or the
  MLapp, half each (easier to express in Slurm), but every byte crosses
  the network.

The plan exposes the effective per-node exchange bandwidth of either
choice, which is what the ``placement`` study compares.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.perfmodel.machines import FRONTIER

#: GCDs per node given to the simulation in intra-node mode (paper: 4 of 8).
PRODUCER_GCDS_PER_NODE = 4
#: Fraction of the nodes given to the MLapp in inter-node mode.
CONSUMER_NODE_FRACTION = 0.5
#: Effective per-node bandwidth of in-node data exchange [bytes/s]
#: (host-memory staging; far above the NIC).
INTRA_NODE_BANDWIDTH = 150.0e9


class PlacementMode(enum.Enum):
    INTRA_NODE = "intra_node"
    INTER_NODE = "inter_node"


@dataclass(frozen=True)
class ResourcePlan:
    """Assignment of ``n_nodes`` Frontier nodes and their GCDs to the two
    applications under one placement ``mode``."""

    n_nodes: int
    mode: PlacementMode = PlacementMode.INTRA_NODE

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")

    # -- resources ----------------------------------------------------------- #
    @property
    def consumer_gcds_per_node(self) -> int:
        if self.mode is PlacementMode.INTRA_NODE:
            return FRONTIER.gcds_per_node - PRODUCER_GCDS_PER_NODE
        return FRONTIER.gcds_per_node

    @property
    def producer_nodes(self) -> int:
        if self.mode is PlacementMode.INTRA_NODE:
            return self.n_nodes
        return self.n_nodes - self.consumer_nodes

    @property
    def consumer_nodes(self) -> int:
        if self.mode is PlacementMode.INTRA_NODE:
            return self.n_nodes
        return max(1, int(round(CONSUMER_NODE_FRACTION * self.n_nodes)))

    @property
    def total_producer_gcds(self) -> int:
        if self.mode is PlacementMode.INTRA_NODE:
            return self.producer_nodes * PRODUCER_GCDS_PER_NODE
        return self.producer_nodes * FRONTIER.gcds_per_node

    @property
    def total_consumer_gcds(self) -> int:
        return self.consumer_nodes * self.consumer_gcds_per_node

    # -- data path ------------------------------------------------------------- #
    def exchange_bandwidth_per_node(self) -> float:
        """Bandwidth available per producing node for the sim → ML exchange."""
        if self.mode is PlacementMode.INTRA_NODE:
            return INTRA_NODE_BANDWIDTH
        return FRONTIER.node_injection_bandwidth

    def exchange_time_per_step(self, bytes_per_node: float) -> float:
        """Seconds to move one step's per-node payload to the consumer."""
        if bytes_per_node < 0:
            raise ValueError("bytes_per_node must be non-negative")
        return bytes_per_node / self.exchange_bandwidth_per_node()

    def describe(self) -> dict:
        return {
            "mode": self.mode.value,
            "producer_nodes": self.producer_nodes,
            "consumer_nodes": self.consumer_nodes,
            "producer_gcds": self.total_producer_gcds,
            "consumer_gcds": self.total_consumer_gcds,
            "exchange_bandwidth_per_node_gb_s": self.exchange_bandwidth_per_node() / 1e9,
        }
