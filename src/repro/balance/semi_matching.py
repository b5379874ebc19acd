"""Semi-matching load balancing on the task x rank locality graph.

A *semi-matching* of a bipartite graph (tasks U, machines V) assigns every
task to one of its eligible machines; an **optimal** semi-matching
minimizes the maximum machine load (equivalently, it admits no
*cost-reducing path* — an alternating walk machine -> assigned task ->
eligible machine ending at a machine at least two units lighter; Harvey et
al. 2003). The paper's novelty claim is that this machinery, run on the
Fock task graph with eligibility = "ranks owning part of the task's data
footprint", balances as well as hypergraph partitioning at a tiny fraction
of its cost.

Three solvers:

- :func:`greedy_semi_matching` -- weighted greedy (decreasing cost, least
  loaded eligible rank); O(n log n).
- :func:`optimal_semi_matching` -- exact for unit weights, by repeatedly
  flipping cost-reducing paths found with BFS.
- :func:`weighted_semi_matching` -- greedy + relocation/swap refinement
  sweeps for real-valued costs (optimality is NP-hard there).

The greedy loop and one refinement sweep have compiled forms, the core's
``greedy_semi_matching`` and ``semi_matching_sweep`` kernels over the
:class:`Eligibility` CSR, which run whenever the engine mode selects a core
(``REPRO_ENGINE``, see ``repro.simulate.sched``). The Python bodies are the
reference they are held to, assignment for assignment. The optimal solver
has none: its BFS is steered by set iteration order (``docs/perf.md``, "The
cheap balancers in the compiled core").
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from functools import cached_property
from itertools import chain

import numpy as np

from repro.balance.metrics import compiled_core, finite_costs, footprint_owners
from repro.chemistry.tasks import TaskGraph
from repro.runtime.garrays import BlockDistribution
from repro.util import ConfigurationError, PartitionError, check_integer, spawn_rng


def _store():
    # Call-time import: repro.core's package init reaches back into this
    # layer, so a module-level import would be circular.
    from repro.core.artifacts import default_store

    return default_store()


class Eligibility(Sequence):
    """CSR task -> eligible ranks, checked against ``n_ranks``; not to be mutated.

    Row ``tid`` is ``ranks[offsets[tid]:offsets[tid + 1]]``. ``len()``,
    ``[tid]`` and iteration answer like the ``list[list[int]]`` it replaces;
    the last two read ``rows``, the row lists the solvers' per-task Python
    loops use, built on first read (the compiled kernels read the arrays).
    """

    def __init__(self, offsets: np.ndarray, ranks: np.ndarray, n_ranks: int):
        empty = np.flatnonzero(offsets[1:] == offsets[:-1])
        bad = np.flatnonzero((ranks < 0) | (ranks >= n_ranks))[:1]
        bad_tid = np.searchsorted(offsets, bad, "right") - 1
        # Report the first offending task, whichever rule it breaks.
        if empty.size and not np.any(bad_tid < empty[0]):
            raise ConfigurationError(f"task {empty[0]} has an empty eligibility list")
        if bad.size:
            raise ConfigurationError(
                f"task {bad_tid[0]} eligible for rank {ranks[bad[0]]} "
                f"outside [0, {n_ranks})"
            )
        self.offsets, self.ranks, self.n_ranks = offsets, ranks, n_ranks

    @cached_property
    def rows(self) -> list[list[int]]:
        flat, offs = self.ranks.tolist(), self.offsets.tolist()
        return [flat[a:b] for a, b in zip(offs, offs[1:])]

    @classmethod
    def of(cls, eligibility: Sequence[Sequence[int]], n_ranks: int) -> Eligibility:
        """``eligibility`` as checked CSR (itself, if it is that for ``n_ranks``)."""
        if isinstance(eligibility, cls) and eligibility.n_ranks == n_ranks:
            return eligibility
        offsets = np.cumsum([0, *map(len, eligibility)], dtype=np.int64)
        ranks = np.fromiter(chain.from_iterable(eligibility), np.int64, offsets[-1])
        return cls(offsets, ranks, n_ranks)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, tid):
        return self.rows[tid]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self.rows == list(other)


def _draw_extras(rng: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    """``(m, k)`` table of ``m`` successive ``rng.choice(n, k, replace=False)``.

    One broadcast ``integers`` call consumes the generator exactly as those
    calls would: per row, Floyd's ``k`` draws below ``n-k+1 .. n`` (a repeat
    takes its bound's top value) and then the ``k-1`` draws below ``k .. 2``
    of the closing shuffle. For ``n > 10 000`` and ``k > n // 50``
    ``choice`` runs another algorithm, so there it is called row by row.
    """
    if n > 10_000 and k > n // 50:
        rows = [rng.choice(n, size=k, replace=False) for _ in range(m)]
        return np.array(rows, dtype=np.int64).reshape(m, k)
    highs = np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)])
    draws = rng.integers(0, highs, size=(m, highs.size))
    out, every = draws[:, :k], np.arange(m)
    for s in range(1, k):
        out[(out[:, :s] == out[:, s, None]).any(axis=1), s] = n - k + s
    for i, j in zip(range(k - 1, 0, -1), draws[:, k:].T):
        out[every, j], out[:, i] = out[:, i].copy(), out[every, j]
    return out


def build_eligibility(
    graph: TaskGraph,
    n_ranks: int,
    distribution: BlockDistribution,
    extra_degree: int = 0,
    seed: int = 0,
) -> Eligibility:
    """Eligible ranks per task: owners of its data blocks (+ random extras).

    ``extra_degree`` appends that many random additional ranks per task,
    loosening locality to guarantee balance feasibility on adversarial
    footprint distributions (the paper's bounded-degree relaxation).
    """
    n_ranks = check_integer("n_ranks", n_ranks, 1)
    extra_degree = check_integer("extra_degree", extra_degree, 0)
    rng = spawn_rng(seed, "eligibility", n_ranks)
    owners = footprint_owners(graph, distribution, n_ranks)[0]
    extras = _draw_extras(rng, graph.n_tasks, n_ranks, min(extra_degree, n_ranks))
    # The sorted distinct keys task * n_ranks + rank are the CSR. Sorted in
    # place: np.unique's hash table (NumPy >= 2.3) costs as much resident
    # memory as every other temporary here together.
    task_keys = np.arange(0, graph.n_tasks * n_ranks, n_ranks)[:, None]
    keys = np.concatenate(
        [graph.footprint_arrays[2] * n_ranks + owners, (task_keys + extras).ravel()]
    )
    del owners, extras  # peak_rss_mb is benchmarked: free these before the copies below
    keys.sort()
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    offsets = np.cumsum(np.bincount(keys // n_ranks, minlength=graph.n_tasks))
    return Eligibility(np.concatenate([[0], offsets]), keys % n_ranks, n_ranks)


def greedy_semi_matching(
    costs: np.ndarray, eligibility: Sequence[Sequence[int]], n_ranks: int
) -> np.ndarray:
    """Decreasing-cost greedy: each task to its least-loaded eligible rank."""
    n_ranks = check_integer("n_ranks", n_ranks, 1)
    costs = finite_costs(costs)
    if costs.size != len(eligibility):
        raise ConfigurationError(
            f"{costs.size} costs but {len(eligibility)} eligibility lists"
        )
    eligibility = Eligibility.of(eligibility, n_ranks)
    assignment = np.empty(costs.size, dtype=np.int64)
    order = np.argsort(-costs, kind="stable")
    core = compiled_core()
    if core is not None:
        # The same loop over the CSR in the compiled core, bit for bit; the
        # body below is its reference.
        core.greedy_semi_matching(
            costs, eligibility.offsets, eligibility.ranks, order, assignment, n_ranks
        )
        return assignment
    rows = eligibility.rows
    # Python-list load state: the loop reads/writes single elements only,
    # where ndarray scalar indexing dominates. Same doubles, same
    # first-minimum tie-break, so the assignment is unchanged.
    loads = [0.0] * n_ranks
    costs_l = costs.tolist()
    for tid in order.tolist():
        rank = min(rows[tid], key=loads.__getitem__)
        assignment[tid] = rank
        loads[rank] += costs_l[tid]
    return assignment


def optimal_semi_matching(
    eligibility: Sequence[Sequence[int]], n_ranks: int, max_flips: int | None = None
) -> np.ndarray:
    """Optimal unit-weight semi-matching via cost-reducing paths.

    Starts from the greedy solution and BFS-searches, from each overloaded
    machine, for an alternating path to a machine at least two tasks
    lighter; flipping the path moves one task along each edge, strictly
    decreasing ``sum(load^2)``. When no machine admits a cost-reducing
    path, the assignment is optimal (minimizes max load, and in fact the
    whole load profile lexicographically).

    Args:
        max_flips: safety cap on path flips (default ``8 * n_tasks``).

    Raises:
        PartitionError: if the flip cap is hit (would indicate a bug —
            the potential argument guarantees termination).
    """
    n_ranks = check_integer("n_ranks", n_ranks, 1)
    if max_flips is not None:
        max_flips = check_integer("max_flips", max_flips, 0)
    eligibility = Eligibility.of(eligibility, n_ranks)
    n_tasks = len(eligibility)
    unit = np.ones(n_tasks)
    assignment = greedy_semi_matching(unit, eligibility, n_ranks)
    # Integer load counts as a Python list: the BFS below reads single
    # elements millions of times. The set-based ``tasks_on`` structures
    # are load-bearing — their iteration order steers which reducing
    # path BFS finds first — and stay exactly as they were.
    loads: list[int] = np.bincount(assignment, minlength=n_ranks).tolist()

    # tasks_on[r]: set of task ids currently on rank r.
    tasks_on: list[set[int]] = [set() for _ in range(n_ranks)]
    for tid, rank in enumerate(assignment):
        tasks_on[rank].add(tid)

    cap = max_flips if max_flips is not None else 8 * max(n_tasks, 1)
    flips = 0
    while True:
        # Scan machines from most loaded; a flip changes reachability
        # globally, so restart the scan after each one. Termination: every
        # flip strictly decreases sum(load^2).
        found = False
        for start in np.argsort(-np.array(loads), kind="stable"):
            path = _cost_reducing_path(int(start), loads, tasks_on, eligibility.rows)
            if path is None:
                continue
            # path = [m0, t0, m1, t1, ..., mk]; move ti from mi to mi+1.
            for idx in range(1, len(path), 2):
                tid = path[idx]
                src = path[idx - 1]
                dst = path[idx + 1]
                tasks_on[src].discard(tid)
                tasks_on[dst].add(tid)
                assignment[tid] = dst
            loads[path[0]] -= 1
            loads[path[-1]] += 1
            flips += 1
            if flips > cap:
                raise PartitionError("optimal semi-matching exceeded its flip cap")
            found = True
            break
        if not found:
            return assignment


def _cost_reducing_path(
    start: int,
    loads: list[int],
    tasks_on: list[set[int]],
    eligibility: list[list[int]],
) -> list[int] | None:
    """BFS for an alternating path from ``start`` to a machine with
    ``load <= load[start] - 2``; returns [m0, t0, m1, ..., mk] or None."""
    target_load = loads[start] - 2
    if target_load < 0:
        return None
    parent: dict[int, tuple[int, int]] = {}  # machine -> (prev_machine, task)
    visited = {start}
    queue = deque([start])
    while queue:
        machine = queue.popleft()
        for tid in tasks_on[machine]:
            for nxt in eligibility[tid]:
                if nxt in visited:
                    continue
                visited.add(nxt)
                parent[nxt] = (machine, tid)
                if loads[nxt] <= target_load:
                    # Reconstruct path back to start.
                    path: list[int] = [nxt]
                    cur = nxt
                    while cur != start:
                        prev, task = parent[cur]
                        path.extend([task, prev])
                        cur = prev
                    path.reverse()
                    return path
                queue.append(nxt)
    return None


def weighted_semi_matching(
    costs: np.ndarray,
    eligibility: Sequence[Sequence[int]],
    n_ranks: int,
    sweeps: int = 4,
) -> np.ndarray:
    """Greedy weighted semi-matching plus relocation refinement.

    Each sweep scans ranks from most to least loaded and tries to relocate
    tasks off the heaviest ranks onto lighter eligible ranks whenever that
    lowers the maximum of the pair; sweeps stop early at a fixed point.
    """
    n_ranks = check_integer("n_ranks", n_ranks, 1)
    sweeps = check_integer("sweeps", sweeps, 0)
    costs = finite_costs(costs)
    eligibility = Eligibility.of(eligibility, n_ranks)
    assignment = greedy_semi_matching(costs, eligibility, n_ranks)
    offsets, ranks = eligibility.offsets, eligibility.ranks
    # Summed afresh: the greedy's running sums round differently.
    loads = np.bincount(assignment, weights=costs, minlength=n_ranks)
    core = compiled_core()
    if core is not None:
        # One sweep per call, bit for bit the loop below: the visit order
        # stays NumPy's (unstable) argsort, and ``arrival`` carries the order
        # ``tasks_on`` would hold across sweeps (ascending tid, then moved-in
        # tasks in the order they moved).
        arrival = np.arange(costs.size, dtype=np.int64)
        loads = loads.astype(np.float64, copy=False)  # bincount of no tasks is int
        for _ in range(sweeps):
            visit = np.argsort(-loads)
            if not core.semi_matching_sweep(
                costs, offsets, ranks, visit, assignment, loads, arrival
            ):
                break
        return assignment
    tasks_on: list[list[int]] = [[] for _ in range(n_ranks)]
    for tid, rank in enumerate(assignment.tolist()):
        tasks_on[rank].append(tid)

    # rank -> its (tids, task, dst, cost) arrays in visit order. Under 1 % of
    # visits move a task, so an entry outlives most of the up to 4 * n_ranks
    # visits; a move drops the source's and the destination's.
    pairs: dict[int, tuple[np.ndarray, ...]] = {}
    for _ in range(sweeps):
        moved = False
        for rank in np.argsort(-loads).tolist():
            # Big tasks first: moving them helps the most. Under 1 % of the
            # (task, other eligible rank) pairs move, so one array test over
            # the pairs in visit order finds the next task that can; it alone
            # runs the scalar choice; the tail is tested again on the new loads.
            if rank not in pairs:
                tids = np.array(tasks_on[rank], dtype=np.int64)
                tids = tids[np.argsort(-costs[tids], kind="stable")]
                starts = offsets[tids]
                lens = offsets[tids + 1] - starts
                task = np.repeat(np.arange(tids.size), lens)
                dst = ranks[np.arange(task.size) + (starts - np.cumsum(lens) + lens)[task]]
                other = dst != rank
                task, dst = task[other], dst[other]
                pairs[rank] = tids, task, dst, costs[tids][task]
            tids, task, dst, cost = pairs[rank]
            at = 0
            while True:
                load_r = loads[rank]
                better = np.maximum(load_r - cost[at:], loads[dst[at:]] + cost[at:])
                hits = np.flatnonzero(better < load_r - 1e-12)
                if hits.size == 0:
                    break
                mover = task[at + hits[0]]
                at, end = np.searchsorted(task, [mover, mover + 1])
                tid, c = int(tids[mover]), cost[at]
                best_dst, best_peak = None, load_r
                for d in dst[at:end].tolist():
                    peak = max(load_r - c, loads[d] + c)
                    if peak < best_peak - 1e-12:
                        best_dst, best_peak = d, peak
                tasks_on[rank].remove(tid)
                tasks_on[best_dst].append(tid)
                loads[rank] = load_r - c
                loads[best_dst] += c
                assignment[tid] = best_dst
                pairs.pop(rank, None)
                pairs.pop(best_dst, None)
                moved = True
                at = end
        if not moved:
            break
    return assignment


def semi_matching_balancer(
    graph: TaskGraph,
    n_ranks: int,
    distribution: BlockDistribution | None = None,
    mode: str = "weighted",
    extra_degree: int = 2,
    sweeps: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Balancer-signature entry point for semi-matching.

    Args:
        mode: ``"weighted"`` (default), ``"greedy"``, or ``"optimal_unit"``
            (ignores costs; exact on task counts).
        extra_degree: random extra eligible ranks per task.
    """
    if mode not in ("weighted", "greedy", "optimal_unit"):
        raise ConfigurationError(f"unknown semi-matching mode {mode!r}")
    # Checked before the artifact key, which holds them as ints.
    n_ranks = check_integer("n_ranks", n_ranks, 1)
    extra_degree = check_integer("extra_degree", extra_degree, 0)
    sweeps = check_integer("sweeps", sweeps, 0)
    if distribution is None:
        distribution = BlockDistribution(graph.blocks.n_blocks, n_ranks)

    def _solve() -> np.ndarray:
        eligibility = build_eligibility(
            graph, n_ranks, distribution, extra_degree, seed
        )
        if mode == "greedy":
            return greedy_semi_matching(graph.costs, eligibility, n_ranks)
        if mode == "optimal_unit":
            return optimal_semi_matching(eligibility, n_ranks)
        return weighted_semi_matching(graph.costs, eligibility, n_ranks, sweeps)

    store = _store()
    if store is None:
        return _solve()
    # Content-addressed by every input that steers the solve (the
    # distribution fields pin eligibility); hits return a fresh copy.
    return store.fetch(
        store.key(
            "semi_matching",
            graph.content_key,
            int(n_ranks),
            (distribution.n_blocks, distribution.n_ranks, distribution.scheme),
            mode,
            int(extra_degree),
            int(sweeps),
            int(seed),
        ),
        _solve,
        encode=lambda assign: ({"assignment": assign}, {}),
        decode=lambda arrays, _meta: arrays["assignment"],
        copy_on_hit=np.copy,
    )
