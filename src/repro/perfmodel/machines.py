"""Machine descriptions used by the performance models."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineSpec:
    """Coarse description of an HPC system.

    Attributes
    ----------
    name:
        System name.
    n_nodes:
        Number of compute nodes.
    gpus_per_node:
        Physical GPU packages per node (an MI250X counts as one GPU with
        two GCDs, matching how the paper counts "36 864 AMD MI250X GPUs").
    gcds_per_gpu:
        Independently schedulable compute dies per GPU package.
    nic_bandwidth:
        Injection bandwidth of one NIC [bytes/s].
    nics_per_node:
        Network interfaces per node.
    filesystem_bandwidth:
        Aggregate parallel-filesystem bandwidth [bytes/s].
    node_local_ssd_bandwidth:
        Aggregate node-local SSD write bandwidth [bytes/s].
    """

    name: str
    n_nodes: int
    gpus_per_node: int
    gcds_per_gpu: int
    nic_bandwidth: float
    nics_per_node: int
    filesystem_bandwidth: float
    node_local_ssd_bandwidth: float

    @property
    def gcds_per_node(self) -> int:
        return self.gpus_per_node * self.gcds_per_gpu

    @property
    def node_injection_bandwidth(self) -> float:
        """Total network injection bandwidth of one node [bytes/s]."""
        return self.nic_bandwidth * self.nics_per_node

    def filesystem_bandwidth_per_node(self) -> float:
        """Parallel-filesystem share of one node when every node writes at once.

        This is the "breaking down the throughput of massively parallel
        filesystems to the single node" argument of the introduction: at
        full scale it drops to tens of MB/s … GB/s, far below the NIC.
        """
        return self.filesystem_bandwidth / self.n_nodes


#: Frontier (OLCF), as described in Section IV and public specifications:
#: 9408 nodes with 4 MI250X (8 GCDs) each, 4×25 GB/s Slingshot NICs,
#: the 10 TB/s Orion Lustre filesystem and ~35 TB/s aggregate node-local SSDs.
FRONTIER = MachineSpec(
    name="Frontier",
    n_nodes=9408,
    gpus_per_node=4,
    gcds_per_gpu=2,
    nic_bandwidth=25.0e9,
    nics_per_node=4,
    filesystem_bandwidth=10.0e12,
    node_local_ssd_bandwidth=35.0e12,
)
