"""Persistence-based load balancing across iterations.

SCF is iterative and its task costs barely change between iterations, so
measured per-task durations from iteration *i* are an excellent cost model
for iteration *i*+1 — this is "persistence-based" balancing. Iteration 1
runs a cheap static schedule (paying its imbalance once); every later
iteration runs a capacity-aware LPT schedule built from the previous
iteration's *measured* durations and *measured* per-rank throughputs, so
the scheme adapts to static performance heterogeneity (experiment E7/E8)
without any runtime scheduling overhead at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.balance.greedy import capacity_lpt
from repro.chemistry.tasks import TaskGraph
from repro.exec_models.base import RunResult
from repro.exec_models.static_ import StaticAssignment, block_assignment, cyclic_assignment
from repro.simulate.machine import MachineSpec
from repro.util import ConfigurationError, check_positive, derive_seed


def persistence_assignment(
    assignment: np.ndarray, durations: np.ndarray, costs: np.ndarray, n_ranks: int
) -> np.ndarray:
    """Capacity-aware LPT from one iteration's measurements.

    Each rank's throughput is estimated as modeled flops done / compute
    seconds; ranks that ran no tasks get the mean capacity (no evidence
    either way).
    """
    flops_done = np.bincount(assignment, weights=costs, minlength=n_ranks)
    seconds = np.bincount(assignment, weights=durations, minlength=n_ranks)
    capacities = np.ones(n_ranks)
    ran = seconds > 0
    capacities[ran] = flops_done[ran] / seconds[ran]
    if ran.any():
        capacities[~ran] = capacities[ran].mean()
    # Predicted cost of a task is speed-independent (flops); measured
    # duration folds in the executing rank's speed, so convert back to a
    # rank-neutral cost before capacity-aware placement.
    neutral = durations * capacities[assignment]
    return capacity_lpt(neutral, capacities)


def rebalance_from_measurements(
    result: RunResult, graph: TaskGraph, capacity_aware: bool = True
) -> np.ndarray:
    """Next-iteration assignment from one iteration's measurements."""
    if capacity_aware:
        return persistence_assignment(
            result.assignment, result.task_durations, graph.costs, result.n_ranks
        )
    return capacity_lpt(result.task_durations, np.ones(result.n_ranks))


@dataclass
class PersistenceHistory:
    """All iterations of a persistence-balanced run."""

    results: list[RunResult]

    @property
    def makespans(self) -> np.ndarray:
        return np.array([r.makespan for r in self.results])

    @property
    def steady_state(self) -> RunResult:
        return self.results[-1]

    @property
    def improvement(self) -> float:
        """Makespan ratio iteration-1 / steady-state (>1 means it helped)."""
        last = self.results[-1].makespan
        return self.results[0].makespan / last if last > 0 else float("inf")


def run_persistence(
    graph: TaskGraph,
    machine: MachineSpec,
    n_iterations: int = 5,
    seed: int = 0,
    initial: str = "block",
    capacity_aware: bool = True,
) -> PersistenceHistory:
    """Simulate ``n_iterations`` Fock builds with persistence rebalancing."""
    check_positive("n_iterations", n_iterations)
    if initial not in ("block", "cyclic"):
        raise ConfigurationError(f"initial must be 'block' or 'cyclic', got {initial!r}")
    make_initial = block_assignment if initial == "block" else cyclic_assignment
    assignment = make_initial(graph.n_tasks, machine.n_ranks)
    results: list[RunResult] = []
    for iteration in range(n_iterations):
        model = StaticAssignment(assignment, name=f"persistence[iter={iteration}]")
        result = model.run(graph, machine, seed=derive_seed(seed, "persist", iteration))
        results.append(result)
        assignment = rebalance_from_measurements(result, graph, capacity_aware)
    return PersistenceHistory(results)
