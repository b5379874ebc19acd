"""Centralized dynamic scheduling via a global shared counter (NXTVAL).

Every rank loops: fetch-and-add the shared counter by ``chunk``, execute
the claimed range of task ids, repeat until the counter passes the task
count. Self-scheduling this way adapts to any cost skew *if* the counter
keeps up — its home NIC serializes all claims, so throughput saturates at
``1 / atomic_service`` claims per second and queueing delay explodes past
that (experiment E6). Larger chunks amortize the bottleneck but re-create
tail imbalance; the chunk parameter is the paper's "balance between
available work units and runtime overheads" knob in its purest form.
"""

from __future__ import annotations

import numpy as np

from repro.exec_models.base import ExecutionModel, Harness
from repro.runtime.comm import RankContext
from repro.runtime.counter import GlobalCounter
from repro.util import ConfigurationError, check_integer


class CounterDynamic(ExecutionModel):
    """Self-scheduling over a shared global counter.

    Args:
        chunk: task ids claimed per fetch-and-add.
        order: ``"native"`` claims tasks in graph order; ``"desc_cost"``
            claims them in decreasing modeled cost (the classic guided
            trick — big tasks first shrinks the tail).
        home_rank: rank hosting the counter.
    """

    def __init__(self, chunk: int = 1, order: str = "native", home_rank: int = 0) -> None:
        self.chunk = check_integer("chunk", chunk, 1)
        if order not in ("native", "desc_cost"):
            raise ConfigurationError(f"order must be 'native' or 'desc_cost', got {order!r}")
        self.order = order
        self.home_rank = check_integer("home_rank", home_rank, 0)
        self.name = (
            f"counter_dynamic(chunk={self.chunk})" if self.chunk != 1 else "counter_dynamic"
        )

    def setup(self, harness: Harness) -> None:
        if not 0 <= self.home_rank < harness.n_ranks:
            raise ConfigurationError(
                f"home_rank {self.home_rank} out of range [0, {harness.n_ranks})"
            )
        if self.order == "desc_cost":
            sequence = np.argsort(-harness.graph.costs, kind="stable")
        else:
            sequence = np.arange(harness.graph.n_tasks, dtype=np.int64)
        harness.model_state["sequence"] = sequence
        harness.model_state["counter"] = GlobalCounter(self.home_rank)
        harness.counters["claims"] = 0.0

    def rank_process(self, harness: Harness, ctx: RankContext):
        sequence: np.ndarray = harness.model_state["sequence"]
        counter: GlobalCounter = harness.model_state["counter"]
        # Claiming one task at a time, the whole loop below can be one
        # request the engine walks.
        loop = harness.claim_loop(ctx, counter, sequence) if self.chunk == 1 else None
        if loop is not None:
            yield from loop
            return
        n_tasks = harness.graph.n_tasks
        while True:
            first = yield from counter.next(ctx, self.chunk)
            harness.counters["claims"] += 1.0
            if first >= n_tasks:
                break
            last = min(first + self.chunk, n_tasks)
            yield from harness.execute_tasks(ctx, sequence[first:last].tolist())
