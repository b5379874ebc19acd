"""Greedy list-scheduling balancers.

LPT (Longest Processing Time first) is the classic 4/3-approximate
makespan heuristic and the quality yardstick the fancier balancers must at
least match on pure balance; :func:`locality_greedy` adds a locality
preference, and :func:`capacity_lpt` handles heterogeneous rank speeds
(used by persistence-based rebalancing under variability).

``lpt``'s loop has a compiled form, the core's ``lpt`` kernel, which runs
whenever the engine mode selects a core (``REPRO_ENGINE``, see
``repro.simulate.sched``); the Python body is the reference it is held to,
assignment for assignment. ``locality_greedy`` and ``capacity_lpt`` have
none (``docs/perf.md``, "The cheap balancers in the compiled core").
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.balance.metrics import compiled_core, finite_costs, footprint_owners
from repro.chemistry.tasks import TaskGraph
from repro.runtime.garrays import BlockDistribution
from repro.util import ConfigurationError, check_integer, check_non_negative


def lpt(costs: np.ndarray, n_ranks: int) -> np.ndarray:
    """Longest-processing-time-first list scheduling.

    Tasks in decreasing cost, each to the currently least-loaded rank.
    """
    n_ranks = check_integer("n_ranks", n_ranks, 1)
    costs = finite_costs(costs)
    assignment = np.empty(costs.size, dtype=np.int64)
    order = np.argsort(-costs, kind="stable")
    core = compiled_core()
    if core is not None:
        # The same loop in the compiled core, bit for bit; the body below
        # is its reference.
        core.lpt(costs, order, assignment, n_ranks)
        return assignment
    # Plain-float heap entries: ``costs[tid]`` is an ndarray scalar, and
    # carrying it into the heap tuples makes every sift comparison box
    # and dispatch through np.float64 richcompare — the dominant cost of
    # this loop. Python floats hold the same IEEE doubles, so the heap
    # order (and the assignment) is bit-for-bit unchanged.
    cost_list: list[float] = costs.tolist()
    heap: list[tuple[float, int]] = [(0.0, r) for r in range(n_ranks)]
    heapq.heapify(heap)
    heapreplace = heapq.heapreplace
    # The (load, rank) entries are unique and totally ordered, so replacing
    # the top in one sift pops in the same order as a pop and a push.
    for tid in order.tolist():
        load, rank = heap[0]
        assignment[tid] = rank
        heapreplace(heap, (load + cost_list[tid], rank))
    return assignment


def capacity_lpt(costs: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """LPT on heterogeneous ranks: minimize predicted completion time.

    ``capacities[r]`` is rank *r*'s relative speed; each task goes to the
    rank with the smallest ``(load + cost) / capacity``.
    """
    costs = finite_costs(costs)
    capacities = np.asarray(capacities, dtype=np.float64)
    if capacities.ndim != 1 or capacities.size == 0:
        raise ConfigurationError("capacities must be a non-empty 1-D array")
    if not np.all((capacities > 0) & np.isfinite(capacities)):
        raise ConfigurationError("all capacities must be positive and finite")
    n_ranks = capacities.size
    assignment = np.empty(costs.size, dtype=np.int64)
    loads = np.zeros(n_ranks)
    # Heap keyed on completion time if the task lands there; since the key
    # depends on the task, fall back to a full argmin per task (n_ranks is
    # small relative to n_tasks, and this stays vectorized). Reusing one
    # scratch buffer avoids two allocations per task; the elementwise adds
    # and divides are the same operations in the same order.
    cost_list: list[float] = costs.tolist()
    finish = np.empty(n_ranks)
    for tid in np.argsort(-costs, kind="stable").tolist():
        cost = cost_list[tid]
        np.add(loads, cost, out=finish)
        np.divide(finish, capacities, out=finish)
        rank = int(np.argmin(finish))
        assignment[tid] = rank
        loads[rank] += cost
    return assignment


def locality_greedy(
    graph: TaskGraph,
    n_ranks: int,
    distribution: BlockDistribution | None,
    slack: float = 0.15,
) -> np.ndarray:
    """LPT with a locality preference.

    Each task prefers the least-loaded rank among the owners of its data
    blocks; it spills to the globally least-loaded rank only when every
    owner is already loaded beyond ``(1 + slack) * ideal``.
    """
    n_ranks = check_integer("n_ranks", n_ranks, 1)
    check_non_negative("slack", slack)
    if distribution is None:
        return lpt(graph.costs, n_ranks)
    costs = graph.costs
    ideal = float(costs.sum()) / n_ranks if costs.size else 0.0
    # No work, no limit: every task stays with an owner.
    limit = float("inf") if ideal == 0.0 else (1.0 + slack) * ideal
    # Loads as a plain-float list: every task does several keyed lookups,
    # and ndarray scalar indexing would box a np.float64 per touch. Values
    # are identical IEEE doubles, so the assignment is unchanged.
    loads: list[float] = [0.0] * n_ranks
    cost_list: list[float] = costs.tolist()
    assignment = np.empty(graph.n_tasks, dtype=np.int64)
    # A spill goes to the first least-loaded rank, the smallest (load, rank).
    # The heap gets the current pair of every rank loaded since the last
    # spill only when the next one happens; a pair whose load is out of date
    # is dropped when it surfaces (loads only grow, so it sorts before its
    # rank's current pair). O(log n_ranks) amortised per spill; with more
    # ranks than owned blocks most tasks spill (docs/perf.md, "Balancers:
    # semi-matching over CSR").
    heap: list[tuple[float, int]] = [(0.0, r) for r in range(n_ranks)]
    loaded: set[int] = set()
    heappush, heappop = heapq.heappush, heapq.heappop
    # One checked lookup; sets fill in footprint order, like per-ref owner() calls.
    owners_flat, offsets = (
        a.tolist() for a in footprint_owners(graph, distribution, n_ranks)
    )
    for tid in np.argsort(-costs, kind="stable").tolist():
        owners = set(owners_flat[offsets[tid] : offsets[tid + 1]])
        rank = min(owners, key=loads.__getitem__)
        cost = cost_list[tid]
        if not loads[rank] + cost <= limit:
            for r in loaded:
                heappush(heap, (loads[r], r))
            loaded.clear()
            while heap[0][0] < loads[heap[0][1]]:
                heappop(heap)
            rank = heap[0][1]
        assignment[tid] = rank
        loads[rank] += cost
        loaded.add(rank)
    return assignment


def lpt_balancer(
    graph: TaskGraph, n_ranks: int, distribution: BlockDistribution | None = None
) -> np.ndarray:
    """Balancer-signature wrapper around plain LPT (ignores locality)."""
    return lpt(graph.costs, n_ranks)
