"""Whole-SCF simulation: iterated Fock builds with synchronization.

The single-shot harness answers "how long does one Fock build take?";
real SCF interleaves Fock builds with machine-wide synchronization
(Fock reduction, density broadcast, convergence check). This module
simulates ``n_iterations`` of that loop inside **one** run of the
:class:`~repro.exec_models.base.Harness` (the engine, task protocol and
claim loops of the single-shot models), so iteration-boundary costs and
cross-iteration adaptation (persistence) are modeled faithfully:

    per iteration:  claim & execute tasks (per the chosen discipline)
                    -> allreduce(Fock bytes)     (binomial reduce+bcast)
                    -> broadcast(density bytes)
                    -> barrier                   (convergence check)

Disciplines: ``static_block``, ``static_cyclic``, ``counter`` (chunked
NXTVAL), ``work_stealing`` (per-iteration epoch-tagged token rings), and
``persistence`` (iteration i+1 statically scheduled from iteration i's
*measured* durations and rank throughputs). The diagonalization itself is
outside the scope (it is a dense-linear-algebra phase, not part of the
paper's kernel); its synchronization structure is what the collectives
stand in for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.chemistry.tasks import TaskGraph
from repro.exec_models.base import Harness, take_fields
from repro.exec_models.persistence import persistence_assignment
from repro.exec_models.static_ import block_assignment, cyclic_assignment
from repro.exec_models.termination import TokenRing
from repro.exec_models.work_stealing import STEAL_COUNTERS, WorkStealing
from repro.runtime.collectives import allreduce, barrier, broadcast
from repro.runtime.comm import RankContext
from repro.runtime.counter import GlobalCounter
from repro.runtime.trace import COMPUTE
from repro.simulate.engine import Resource
from repro.simulate.machine import MachineSpec
from repro.util import (
    ConfigurationError,
    SchedulingError,
    check_integer,
    check_positive,
    derive_seed,
    spawn_rng,
)

MODES = ("static_block", "static_cyclic", "persistence", "counter", "work_stealing")

#: How :meth:`ScfSimResult.to_arrays` stores each field.
_SCF_ARRAYS = dict(
    iteration_times=np.dtype("<f8"), assignments=np.dtype("<i8"), compute_seconds=np.dtype("<f8")
)
_SCF_FIELDS = dict(mode=str, n_ranks=int, n_iterations=int, total_time=float, counters=dict)


@dataclass
class ScfSimResult:
    """Outcome of one simulated multi-iteration SCF run."""

    mode: str
    n_ranks: int
    n_iterations: int
    total_time: float
    iteration_times: np.ndarray
    assignments: list[np.ndarray]
    compute_seconds: np.ndarray
    counters: dict[str, float] = field(default_factory=dict)

    def to_arrays(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """This result as named arrays (``assignments`` stacked into one
        ``(n_iterations, n_tasks)`` array) plus a JSON-able meta record;
        :meth:`from_arrays` is the exact inverse."""
        arrays = {name: getattr(self, name) for name in _SCF_ARRAYS}  # then assignments, stacked
        arrays["assignments"] = np.array(self.assignments, dtype=np.int64)
        return arrays, {name: getattr(self, name) for name in _SCF_FIELDS}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], meta: dict[str, Any]) -> ScfSimResult:
        """The result :meth:`to_arrays` encoded. A missing or unknown field
        or a value of another type raises :class:`ConfigurationError`."""
        arrays, meta = dict(arrays), dict(meta)
        fields = {**take_fields(arrays, _SCF_ARRAYS), **take_fields(meta, _SCF_FIELDS)}
        if (
            arrays
            or meta
            or fields["assignments"].ndim != 2
            or not set(map(type, fields["counters"].values())) <= {int, float}
        ):
            raise ConfigurationError(f"not a stored ScfSimResult: {sorted([*arrays, *meta])}")
        fields["assignments"] = list(fields["assignments"])
        return cls(**fields)

    @property
    def steady_state_time(self) -> float:
        """Mean per-iteration time excluding the first iteration."""
        if self.n_iterations < 2:
            return float(self.iteration_times[0])
        return float(self.iteration_times[1:].mean())

    @property
    def first_iteration_time(self) -> float:
        return float(self.iteration_times[0])


class ScfSimulation:
    """Simulates an SCF run under one task-claiming discipline.

    Args:
        mode: one of :data:`MODES`.
        **options: discipline knobs in the same spellings
            :func:`~repro.exec_models.registry.make_model` accepts
            (``chunk``/``chunk_size`` for ``counter`` mode,
            ``steal``/``steal_policy`` for ``work_stealing`` mode); an
            option the mode does not use is refused.
    """

    def __init__(self, mode: str = "work_stealing", **options) -> None:
        from repro.exec_models.registry import normalize_model_options

        if mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
        normalized = normalize_model_options(options)
        refused = sorted(set(normalized) - {_MODE_OPTIONS.get(mode)})
        if refused:
            raise ConfigurationError(f"ScfSimulation({mode!r}) does not accept options {refused}")
        self.chunk = check_integer("chunk", normalized.get("chunk", 1), 1)
        steal = normalized.get("steal", "half")
        if steal not in ("half", "one"):
            raise ConfigurationError(f"steal must be 'half' or 'one', got {steal!r}")
        self.mode = mode
        self.steal = steal
        #: The stealing discipline's rank loop and steal attempt.
        self._stealing = WorkStealing(steal=steal)

    # ------------------------------------------------------------------
    def run(
        self,
        graph: TaskGraph,
        machine: MachineSpec,
        n_iterations: int = 5,
        seed: int = 0,
    ) -> ScfSimResult:
        check_positive("n_iterations", n_iterations)
        n_ranks = machine.n_ranks
        n_tasks = graph.n_tasks
        harness = Harness(graph, machine, seed=seed)
        harness.counters.update(dict.fromkeys(STEAL_COUNTERS, 0.0), claims=0.0)
        state = _IterationState(self.mode, harness)
        nxtval = [GlobalCounter(0) for _ in range(n_iterations)]  # counter mode's NXTVAL
        matrix_bytes = graph.blocks.n_basis**2 * 8
        iteration_marks: list[float] = []

        def rank_process(harness: Harness, ctx: RankContext):
            for iteration in range(n_iterations):
                if self.mode == "counter":
                    while True:
                        first = yield from nxtval[iteration].next(ctx, self.chunk)
                        harness.counters["claims"] += 1.0
                        if first >= n_tasks:
                            break
                        chunk = range(first, min(first + self.chunk, n_tasks))
                        yield from harness.execute_tasks(ctx, chunk)
                elif self.mode == "work_stealing":
                    # Poll-based stealing over the iteration's epoch ring.
                    # Its messages are polled by tag and a rank never
                    # parks: a parked recv would swallow collective traffic
                    # from ranks already past termination.
                    queues, locks, ring = state.stealing(iteration)
                    rng = spawn_rng(derive_seed(harness.seed, "scfsim", iteration, ctx.rank))
                    yield from self._stealing._steal_loop(
                        harness, ctx, queues, locks, ring, rng,
                        tags=(ring.terminate_tag, ring.token_tag), park=False, after_unlock=True,
                    )  # fmt: skip
                else:
                    yield from harness.execute_tasks(ctx, state.schedule(iteration)[ctx.rank])
                # Iteration boundary: Fock reduction, density broadcast,
                # convergence barrier.
                yield from allreduce(ctx, n_ranks, matrix_bytes, epoch=3 * iteration)
                yield from broadcast(ctx, n_ranks, matrix_bytes, epoch=3 * iteration + 1)
                yield from barrier(ctx, n_ranks, epoch=3 * iteration + 2)
                if ctx.rank == 0:
                    iteration_marks.append(ctx.now)

        harness.spawn_ranks(rank_process)
        total = harness.engine.run()
        harness.count_steals()
        assignments = [state.records(iteration)[0] for iteration in range(n_iterations)]
        if len(harness.trace.task_ids) != n_iterations * n_tasks:
            raise SchedulingError(
                f"iterative run recorded {len(harness.trace.task_ids)} tasks, "
                f"not {n_iterations} x {n_tasks}"
            )
        marks = np.array(iteration_marks)
        iteration_times = np.diff(np.concatenate([[0.0], marks]))
        return ScfSimResult(
            mode=self.mode,
            n_ranks=n_ranks,
            n_iterations=n_iterations,
            total_time=total,
            iteration_times=iteration_times,
            assignments=assignments,
            compute_seconds=harness.trace.total(COMPUTE),
            counters={
                "steals": harness.counters["steal_successes"],
                "claims": harness.counters["claims"],
                # One token per ring, and each forward is handled once.
                "token_hops": float(sum(ring.hops for *_, ring in state._stealing.values())),
            },
        )

#: The one option each mode uses, if any.
_MODE_OPTIONS = {"counter": "chunk", "work_stealing": "steal"}


class _IterationState:
    """Lazily built per-iteration scheduling state of one run.

    Iteration boundaries are global sync points, so by the time any rank
    asks for iteration *i*'s state, every task of iteration *i-1* has run
    and no task of iteration *i* has: the trace's task columns hold
    exactly the records of iterations ``0 .. i-1``, one slice of
    ``n_tasks`` each, and lazy construction is race-free inside the
    deterministic simulation.
    """

    def __init__(self, mode: str, harness: Harness) -> None:
        self.mode = mode
        self.harness = harness
        self._schedules: dict[int, list[list[int]]] = {}
        self._stealing: dict[int, tuple[list[deque[int]], list[Resource], TokenRing]] = {}

    def records(self, iteration: int) -> tuple[np.ndarray, np.ndarray]:
        """Iteration ``iteration``'s ``(assignment, durations)``: the rank
        and kernel seconds of each task, read from its slice of the
        trace's task columns.

        Raises:
            SchedulingError: unless every task ran exactly once in it.
        """
        trace = self.harness.trace
        n_tasks = self.harness.graph.n_tasks
        window = slice(iteration * n_tasks, (iteration + 1) * n_tasks)
        tids = np.array(trace.task_ids[window], dtype=np.int64)
        counts = np.bincount(tids, minlength=n_tasks)
        if tids.size != n_tasks or np.any(counts != 1):
            bad = np.flatnonzero(counts != 1)[:5]
            raise SchedulingError(
                f"iterative run broke exactly-once execution in iteration {iteration} "
                f"at tids {bad.tolist()}"
            )
        assignment = np.empty(n_tasks, dtype=np.int64)
        assignment[tids] = trace.task_ranks[window]
        durations = np.empty(n_tasks)
        durations[tids] = np.subtract(trace.task_ends[window], trace.task_starts[window])
        return assignment, durations

    def schedule(self, iteration: int) -> list[list[int]]:
        """Each rank's task list for ``iteration`` (static modes and
        persistence, which plans from iteration *i-1*'s records)."""
        if iteration not in self._schedules:
            graph, n_ranks = self.harness.graph, self.harness.n_ranks
            if self.mode == "static_cyclic":
                assignment = cyclic_assignment(graph.n_tasks, n_ranks)
            elif self.mode == "static_block" or iteration == 0:
                assignment = block_assignment(graph.n_tasks, n_ranks)
            else:
                # Persistence: capacity-aware LPT on last iteration's
                # measurements.
                previous = self.records(iteration - 1)
                assignment = persistence_assignment(*previous, graph.costs, n_ranks)
            lists: list[list[int]] = [[] for _ in range(n_ranks)]
            for tid, rank in enumerate(assignment.tolist()):
                lists[rank].append(tid)
            self._schedules[iteration] = lists
        return self._schedules[iteration]

    def stealing(self, iteration: int) -> tuple[list[deque[int]], list[Resource], TokenRing]:
        """``iteration``'s block-distributed task queues, their locks and
        its termination ring."""
        if iteration not in self._stealing:
            n_ranks = self.harness.n_ranks
            queues: list[deque[int]] = [deque() for _ in range(n_ranks)]
            for tid, rank in enumerate(block_assignment(self.harness.graph.n_tasks, n_ranks)):
                queues[rank].append(tid)
            locks = [Resource(1) for _ in range(n_ranks)]
            self._stealing[iteration] = (queues, locks, TokenRing(n_ranks, epoch=iteration))
        return self._stealing[iteration]
