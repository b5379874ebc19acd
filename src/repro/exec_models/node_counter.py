"""Per-node counter scheduling: hierarchical self-scheduling without
global balancing.

The standard fix for shared-counter contention (E6) is one counter per
node: each node's ranks self-schedule over a statically pre-partitioned
slice of the task range, claiming from a counter homed on the node's
leader rank. Contention drops by a factor of the node count — but the
partition across nodes is *static*, so inter-node imbalance returns.

This is the cleanest demonstration of the paper's central observation
that "execution model design choices and assumptions can limit critical
optimizations such as global, dynamic load balancing": the model is
locally dynamic yet globally static, and under cost skew it loses to both
the contended global counter (at low P) and to work stealing (always) —
benchmark E12.
"""

from __future__ import annotations

import numpy as np

from repro.exec_models.base import ExecutionModel, Harness
from repro.runtime.comm import RankContext
from repro.runtime.counter import GlobalCounter
from repro.util import ConfigurationError, check_integer


class CounterPerNode(ExecutionModel):
    """Node-local dynamic self-scheduling over a static node partition.

    Args:
        chunk: task ids claimed per fetch-and-add on the node counter.
        partition: how the task range is split across nodes —
            ``"block"`` (contiguous, cost-oblivious: the classic choice)
            or ``"cost"`` (contiguous but cost-balanced split points,
            an inspector-lite variant).
    """

    def __init__(self, chunk: int = 1, partition: str = "block") -> None:
        self.chunk = check_integer("chunk", chunk, 1)
        if partition not in ("block", "cost"):
            raise ConfigurationError(
                f"partition must be 'block' or 'cost', got {partition!r}"
            )
        self.partition = partition
        self.name = f"counter_per_node({partition})"

    def setup(self, harness: Harness) -> None:
        machine = harness.machine
        if machine.cores_per_node is None:
            raise ConfigurationError(
                "counter_per_node needs a node topology; build the machine "
                "with hierarchical_cluster() or set cores_per_node"
            )
        n_nodes = machine.n_nodes
        n_tasks = harness.graph.n_tasks
        if self.partition == "block":
            bounds = np.linspace(0, n_tasks, n_nodes + 1).astype(np.int64)
        else:
            # Contiguous split with near-equal cumulative cost per node.
            cum = np.concatenate([[0.0], np.cumsum(harness.graph.costs)])
            targets = np.linspace(0.0, cum[-1], n_nodes + 1)
            bounds = np.searchsorted(cum, targets).astype(np.int64)
            bounds[0], bounds[-1] = 0, n_tasks
        counters = []
        for node in range(n_nodes):
            leader = node * machine.cores_per_node
            counter = GlobalCounter(leader)
            counter.cell.value = int(bounds[node])
            counters.append(counter)
        harness.model_state["bounds"] = bounds
        harness.model_state["counters"] = counters
        harness.counters["claims"] = 0.0

    def rank_process(self, harness: Harness, ctx: RankContext):
        machine = harness.machine
        node = machine.node_of(ctx.rank)
        counter: GlobalCounter = harness.model_state["counters"][node]
        hi = int(harness.model_state["bounds"][node + 1])
        while True:
            first = yield from counter.next(ctx, self.chunk)
            harness.counters["claims"] += 1.0
            if first >= hi:
                return
            last = min(first + self.chunk, hi)
            yield from harness.execute_tasks(ctx, range(first, last))
