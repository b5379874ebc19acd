"""Static execution models: the schedule is fixed before execution.

These are the paper's "traditional" baselines. :class:`StaticBlock` hands
each rank a contiguous range of task ids — cheap, cache-friendly, and badly
imbalanced under screening-induced cost skew (nearby tasks have correlated
costs). :class:`StaticCyclic` deals tasks round-robin, decorrelating costs
at the price of locality. :class:`StaticAssignment` executes an arbitrary
precomputed task->rank map and is the executor half of the
inspector-executor model.
"""

from __future__ import annotations

import numpy as np

from repro.exec_models.base import ExecutionModel, Harness
from repro.runtime.comm import RankContext
from repro.util import ConfigurationError, SchedulingError


class StaticAssignment(ExecutionModel):
    """Execute a precomputed assignment; each rank runs its tasks in order.

    Args:
        assignment: ``(n_tasks,)`` rank per task. Validated against the
            harness at setup.
        name: model name recorded in results.
    """

    def __init__(self, assignment: np.ndarray, name: str = "static_assignment") -> None:
        given = np.asarray(assignment)
        if given.dtype.kind not in "iu":
            # Casting would truncate 1.7 to rank 1 and read True as rank 1.
            raise ConfigurationError(
                f"assignment must hold integer ranks, got dtype {given.dtype}"
            )
        self.assignment = given.astype(np.int64)
        if self.assignment.ndim != 1:
            raise ConfigurationError("assignment must be a 1-D task->rank array")
        self.name = name

    def setup(self, harness: Harness) -> None:
        if self.assignment.size != harness.graph.n_tasks:
            raise SchedulingError(
                f"assignment covers {self.assignment.size} tasks, "
                f"graph has {harness.graph.n_tasks}"
            )
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= harness.n_ranks
        ):
            raise SchedulingError(
                f"assignment references ranks outside [0, {harness.n_ranks})"
            )
        lists: list[list[int]] = [[] for _ in range(harness.n_ranks)]
        for tid, rank in enumerate(self.assignment.tolist()):
            lists[rank].append(tid)
        harness.model_state["task_lists"] = lists

    def rank_process(self, harness: Harness, ctx: RankContext):
        # The whole schedule is known up front: the rank's list is one
        # claim loop the engine walks.
        yield from harness.execute_tasks(
            ctx, harness.model_state["task_lists"][ctx.rank]
        )


def block_assignment(n_tasks: int, n_ranks: int) -> np.ndarray:
    """Contiguous equal-count ranges (remainder spread over leading ranks)."""
    if n_ranks <= 0:
        raise ConfigurationError(f"n_ranks must be positive, got {n_ranks}")
    return np.minimum(
        (np.arange(n_tasks, dtype=np.int64) * n_ranks) // max(n_tasks, 1),
        n_ranks - 1,
    )


def cyclic_assignment(n_tasks: int, n_ranks: int) -> np.ndarray:
    """Round-robin by task id."""
    if n_ranks <= 0:
        raise ConfigurationError(f"n_ranks must be positive, got {n_ranks}")
    return np.arange(n_tasks, dtype=np.int64) % n_ranks


class StaticBlock(StaticAssignment):
    """Contiguous block partition of the task-id range."""

    def __init__(self) -> None:
        # Assignment depends on the harness; bound at setup.
        super().__init__(np.zeros(0, dtype=np.int64), name="static_block")

    def setup(self, harness: Harness) -> None:
        self.assignment = block_assignment(harness.graph.n_tasks, harness.n_ranks)
        super().setup(harness)


class StaticCyclic(StaticAssignment):
    """Round-robin partition of the task-id range."""

    def __init__(self) -> None:
        super().__init__(np.zeros(0, dtype=np.int64), name="static_cyclic")

    def setup(self, harness: Harness) -> None:
        self.assignment = cyclic_assignment(harness.graph.n_tasks, harness.n_ranks)
        super().setup(harness)
