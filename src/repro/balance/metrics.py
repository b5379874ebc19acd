"""Schedule-quality metrics shared by all balancers and benchmarks, and two
helpers of the balancers' entry points: the cost check and the lookup of
the compiled core that runs their kernels."""

from __future__ import annotations

import numpy as np

from repro.chemistry.tasks import TaskGraph
from repro.runtime.garrays import BlockDistribution
from repro.util import ConfigurationError, check_positive


def finite_costs(costs) -> np.ndarray:
    """``costs`` as a contiguous 1-D ``float64`` array, refused unless every
    entry is finite: the contract of the compiled kernels, kept by the
    Python bodies too."""
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise ConfigurationError(f"costs must be 1-D, got shape {costs.shape}")
    bad = np.flatnonzero(~np.isfinite(costs))[:1]
    if bad.size:
        raise ConfigurationError(f"costs[{bad[0]}] is {costs[bad[0]]!r}, not finite")
    return np.ascontiguousarray(costs)


def compiled_core():
    """The compiled core the engine mode selects (``repro.simulate.sched``),
    or None. A balancer loop with a kernel there runs it; its Python body
    runs otherwise and is the reference the kernel is held to."""
    # Call-time import: repro.core's package init reaches back into this
    # layer, so a module-level import would be circular.
    from repro.simulate.sched import _selected_core

    return _selected_core()


def rank_loads(costs: np.ndarray, assignment: np.ndarray, n_ranks: int) -> np.ndarray:
    """``(n_ranks,)`` total assigned cost per rank."""
    check_positive("n_ranks", n_ranks)
    costs = np.asarray(costs, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    if costs.shape != assignment.shape:
        raise ConfigurationError(
            f"costs {costs.shape} and assignment {assignment.shape} differ"
        )
    if assignment.size and (assignment.min() < 0 or assignment.max() >= n_ranks):
        raise ConfigurationError(f"assignment references ranks outside [0, {n_ranks})")
    return np.bincount(assignment, weights=costs, minlength=n_ranks)


def imbalance(costs: np.ndarray, assignment: np.ndarray, n_ranks: int) -> float:
    """Load-imbalance factor lambda = max load / mean load (>= 1)."""
    loads = rank_loads(costs, assignment, n_ranks)
    mean = loads.mean()
    return float(loads.max() / mean) if mean > 0 else 1.0


def makespan_lower_bound(costs: np.ndarray, n_ranks: int) -> float:
    """max(total/P, largest task): no schedule can beat this."""
    check_positive("n_ranks", n_ranks)
    costs = np.asarray(costs, dtype=np.float64)
    if costs.size == 0:
        return 0.0
    return float(max(costs.sum() / n_ranks, costs.max()))


def footprint_owners(
    graph: TaskGraph, distribution: BlockDistribution, n_ranks: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds-checked owner rank of every footprint ref, as CSR over tasks.

    Returns ``(owners, offsets)``: ``owners`` lines up with
    ``graph.footprint_arrays`` and task ``tid``'s refs, in ``(*reads,
    *writes)`` order, are ``owners[offsets[tid]:offsets[tid + 1]]``. A
    balancer that indexes by owner passes its ``n_ranks``, and an owner
    outside it (a ``distribution`` over more ranks) is refused.
    """
    rows, cols, tids = graph.footprint_arrays
    nb = distribution.n_blocks
    bad = (rows < 0) | (rows >= nb) | (cols < 0) | (cols >= nb)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        ref = (int(rows[k]), int(cols[k]))
        raise ConfigurationError(f"block {ref} out of range for {nb} blocks")
    owners = distribution.owner_matrix()[rows, cols]
    if n_ranks is not None and owners.max(initial=0) >= n_ranks:
        k = int(np.argmax(owners >= n_ranks))
        raise ConfigurationError(
            f"task {tids[k]} eligible for rank {owners[k]} outside [0, {n_ranks})"
        )
    offsets = np.cumsum(np.bincount(tids, minlength=graph.n_tasks))
    return owners, np.concatenate([[0], offsets])


def communication_volume(
    graph: TaskGraph, assignment: np.ndarray, distribution: BlockDistribution
) -> int:
    """Total remote bytes moved by a schedule.

    Sums the size of every density get and Fock accumulate whose block
    owner differs from the executing rank — the locality objective the
    semi-matching and hypergraph balancers trade against pure balance.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.size != graph.n_tasks:
        raise ConfigurationError(
            f"assignment covers {assignment.size} tasks, graph has {graph.n_tasks}"
        )
    rows, cols, tids = graph.footprint_arrays
    owners, _ = footprint_owners(graph, distribution)
    remote = owners != assignment[tids]
    sizes = graph.blocks.sizes()
    # Exact integer arithmetic, so summation order is irrelevant.
    return int(np.sum(sizes[rows] * sizes[cols] * 8 * remote))
