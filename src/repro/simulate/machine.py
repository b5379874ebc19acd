"""Cluster specifications and calibrated presets.

A :class:`MachineSpec` bundles rank count, per-rank compute rate, the
network model, and a variability model. The compute rate is an *effective*
flop rate for this kernel (what a tuned native ERI code sustains per core),
used to convert the task graph's analytic flop counts into simulated
seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulate.network import NetworkModel
from repro.simulate.noise import NoVariability, VariabilityModel
from repro.util import check_positive


@dataclass(frozen=True)
class MachineSpec:
    """A simulated cluster.

    Attributes:
        n_ranks: number of single-threaded ranks (processes).
        flops_per_second: nominal effective compute rate per rank.
        network: interconnect parameters.
        variability: per-rank speed model (default: homogeneous).
    """

    n_ranks: int
    flops_per_second: float = 6.0e9
    network: NetworkModel = field(default_factory=NetworkModel)
    variability: VariabilityModel = field(default_factory=NoVariability)
    #: Ranks per node; None models a flat machine (every pair remote).
    cores_per_node: int | None = None

    def __post_init__(self) -> None:
        check_positive("n_ranks", self.n_ranks)
        check_positive("flops_per_second", self.flops_per_second)
        if self.cores_per_node is not None:
            check_positive("cores_per_node", self.cores_per_node)

    @property
    def n_nodes(self) -> int:
        if self.cores_per_node is None:
            return self.n_ranks
        return -(-self.n_ranks // self.cores_per_node)

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank`` (identity on flat machines)."""
        if self.cores_per_node is None:
            return rank
        return rank // self.cores_per_node

    def node_peers(self, rank: int) -> range:
        """All ranks sharing ``rank``'s node (including itself)."""
        if self.cores_per_node is None:
            return range(rank, rank + 1)
        lo = self.node_of(rank) * self.cores_per_node
        return range(lo, min(lo + self.cores_per_node, self.n_ranks))

    def compute_seconds(self, rank: int, flops: float, time: float) -> float:
        """Wall-seconds for ``flops`` on ``rank`` starting at ``time``.

        The variability multiplier is sampled at task start; tasks are
        short relative to variability windows, so intra-task speed changes
        are ignored (documented approximation).
        """
        speed = self.variability.speed(rank, time)
        return flops / (self.flops_per_second * speed)

    def with_ranks(self, n_ranks: int) -> "MachineSpec":
        """Copy of this spec with a different rank count."""
        return MachineSpec(
            n_ranks, self.flops_per_second, self.network, self.variability,
            self.cores_per_node,
        )

    def with_variability(self, variability: VariabilityModel) -> "MachineSpec":
        """Copy of this spec with a different variability model."""
        return MachineSpec(
            self.n_ranks, self.flops_per_second, self.network, variability,
            self.cores_per_node,
        )


def commodity_cluster(
    n_ranks: int, variability: VariabilityModel | None = None
) -> MachineSpec:
    """An InfiniBand-class commodity cluster (the paper-era testbed class).

    ~1.5 us one-way latency, 5 GB/s per-rank bandwidth, 6 GF/s effective
    per-core ERI throughput.
    """
    return MachineSpec(
        n_ranks=n_ranks,
        flops_per_second=6.0e9,
        network=NetworkModel(),
        variability=variability if variability is not None else NoVariability(),
    )


def hierarchical_cluster(
    n_nodes: int,
    cores_per_node: int = 16,
    variability: VariabilityModel | None = None,
) -> MachineSpec:
    """A multi-node SMP cluster: cheap shared-memory paths within a node,
    commodity interconnect across nodes.

    The substrate for node-aware execution models (hierarchical work
    stealing, per-node counters) — the "multi- and many-core" direction
    the paper's conclusion points at.
    """
    check_positive("n_nodes", n_nodes)
    check_positive("cores_per_node", cores_per_node)
    return MachineSpec(
        n_ranks=n_nodes * cores_per_node,
        flops_per_second=6.0e9,
        network=NetworkModel(),
        variability=variability if variability is not None else NoVariability(),
        cores_per_node=cores_per_node,
    )


def fast_network_cluster(
    n_ranks: int, variability: VariabilityModel | None = None
) -> MachineSpec:
    """A tighter interconnect (Cray-class): lower latency, higher bandwidth.

    Used in ablations to show how network quality shifts execution-model
    crossover points.
    """
    return MachineSpec(
        n_ranks=n_ranks,
        flops_per_second=6.0e9,
        network=NetworkModel(
            latency=0.7e-6,
            bandwidth=1.2e10,
            software_overhead=0.25e-6,
            nic_occupancy=0.1e-6,
            atomic_service=0.15e-6,
        ),
        variability=variability if variability is not None else NoVariability(),
    )
