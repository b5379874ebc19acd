"""Whole-SCF simulation: iterated Fock builds with synchronization.

The single-shot harness answers "how long does one Fock build take?";
real SCF interleaves Fock builds with machine-wide synchronization
(Fock reduction, density broadcast, convergence check). This module
simulates ``n_iterations`` of that loop inside **one** engine, so
iteration-boundary costs and cross-iteration adaptation (persistence)
are modeled faithfully:

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

import numpy as np

from repro.chemistry.tasks import TaskGraph, TaskSpec
from repro.exec_models.base import Harness
from repro.exec_models.persistence import persistence_assignment
from repro.exec_models.static_ import block_assignment, cyclic_assignment
from repro.exec_models.termination import TokenRing
from repro.runtime.collectives import allreduce, barrier, broadcast
from repro.runtime.comm import RankContext
from repro.runtime.counter import GlobalCounter
from repro.runtime.garrays import BlockDistribution, GlobalBlockedMatrix
from repro.runtime.trace import COMPUTE, TraceRecorder
from repro.simulate.engine import Engine, Resource
from repro.simulate.machine import MachineSpec
from repro.simulate.network import Network
from repro.util import (
    ConfigurationError,
    SchedulingError,
    check_positive,
    derive_seed,
    spawn_rng,
)

MODES = ("static_block", "static_cyclic", "persistence", "counter", "work_stealing")


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
            ``steal``/``steal_policy`` for ``work_stealing`` mode).
    """

    def __init__(self, mode: str = "work_stealing", **options) -> None:
        from repro.exec_models.registry import normalize_model_options

        if mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
        normalized = normalize_model_options(options)
        chunk = normalized.pop("chunk", 1)
        steal = normalized.pop("steal", "half")
        if normalized:
            raise ConfigurationError(
                f"ScfSimulation({mode!r}) does not accept options "
                f"{sorted(normalized)}"
            )
        check_positive("chunk", chunk)
        if steal not in ("half", "one"):
            raise ConfigurationError(f"steal must be 'half' or 'one', got {steal!r}")
        self.mode = mode
        self.chunk = int(chunk)
        self.steal = steal

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
        engine = Engine()
        node_of = machine.node_of if machine.cores_per_node is not None else None
        network = Network(engine, machine.network, n_ranks, node_of)
        trace = TraceRecorder(n_ranks)
        dist = BlockDistribution(graph.blocks.n_blocks, n_ranks)
        density_ga = GlobalBlockedMatrix("D", graph.blocks, dist)
        fock_ga = GlobalBlockedMatrix("F", graph.blocks, dist)
        matrix_bytes = graph.blocks.n_basis**2 * 8

        executed = np.zeros((n_iterations, n_tasks), dtype=np.int64)
        assignments = [np.full(n_tasks, -1, dtype=np.int64) for _ in range(n_iterations)]
        durations = [np.zeros(n_tasks) for _ in range(n_iterations)]
        iteration_marks: list[float] = []
        counters: dict[str, float] = {"steals": 0.0, "claims": 0.0, "token_hops": 0.0}

        state = _IterationState(
            graph=graph,
            machine=machine,
            n_iterations=n_iterations,
            seed=seed,
            executed=executed,
            assignments=assignments,
            durations=durations,
            counters=counters,
        )
        state.prepare(self.mode, self.chunk, n_ranks)

        def execute(ctx: RankContext, task: TaskSpec, iteration: int):
            for ref in task.reads:
                yield from density_ga.get(ctx, ref)
            start = ctx.now
            yield from ctx.compute(task.flops)
            durations[iteration][task.tid] = ctx.now - start
            for ref in task.writes:
                yield from fock_ga.accumulate(ctx, ref)
            executed[iteration, task.tid] += 1
            assignments[iteration][task.tid] = ctx.rank

        def rank_process(rank: int):
            ctx = RankContext(rank, engine, network, machine, trace)
            for iteration in range(n_iterations):
                if self.mode in ("static_block", "static_cyclic", "persistence"):
                    for tid in state.schedule(iteration)[rank]:
                        yield from execute(ctx, graph.tasks[tid], iteration)
                elif self.mode == "counter":
                    counter = state.counter(iteration)
                    while True:
                        first = yield from counter.next(ctx, self.chunk)
                        counters["claims"] += 1.0
                        if first >= n_tasks:
                            break
                        for tid in range(first, min(first + self.chunk, n_tasks)):
                            yield from execute(ctx, graph.tasks[tid], iteration)
                else:
                    yield from self._steal_iteration(
                        ctx, state, iteration, execute, counters
                    )
                # Iteration boundary: Fock reduction, density broadcast,
                # convergence barrier.
                yield from allreduce(ctx, n_ranks, matrix_bytes, epoch=3 * iteration)
                yield from broadcast(ctx, n_ranks, matrix_bytes, epoch=3 * iteration + 1)
                yield from barrier(ctx, n_ranks, epoch=3 * iteration + 2)
                if rank == 0:
                    iteration_marks.append(engine.now)

        for rank in range(n_ranks):
            engine.process(rank_process(rank), name=f"scf-rank{rank}")
        total = engine.run()

        if not np.all(executed == 1):
            bad = np.argwhere(executed != 1)[:5]
            raise SchedulingError(
                f"iterative run broke exactly-once execution at (iter, tid) {bad.tolist()}"
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
            compute_seconds=trace.total(COMPUTE),
            counters=dict(counters),
        )

    # ------------------------------------------------------------------
    def _steal_iteration(self, ctx, state: "_IterationState", iteration, execute, counters):
        """One iteration of poll-based work stealing with an epoch ring."""
        graph = state.graph
        n_ranks = state.machine.n_ranks
        queues = state.steal_queues(iteration)
        locks = state.steal_locks(iteration)
        ring = state.ring(iteration)
        queue = queues[ctx.rank]
        rng = spawn_rng(derive_seed(state.seed, "scfsim", iteration, ctx.rank))
        backoff = 1.0e-6

        while True:
            while queue:
                yield locks[ctx.rank].acquire()
                try:
                    yield from ctx.overhead_delay(Harness.LOCAL_QUEUE_OP)
                    tid = queue.popleft() if queue else None
                finally:
                    locks[ctx.rank].release()
                if tid is None:
                    break
                yield from execute(ctx, graph.tasks[tid], iteration)
                backoff = 1.0e-6
            if n_ranks == 1:
                return
            # Poll protocol messages (tag-filtered: collective traffic from
            # ranks already past termination must not be consumed here).
            message = ctx.try_recv(ring.terminate_tag)
            if message is not None:
                return
            message = ctx.try_recv(ring.token_tag)
            if message is not None:
                declared = yield from ring.handle_token(ctx, message.payload)
                counters["token_hops"] = counters.get("token_hops", 0.0) + 1.0
                if declared:
                    return
            yield from ring.maybe_launch(ctx)
            victim = int(rng.integers(0, n_ranks - 1))
            if victim >= ctx.rank:
                victim += 1
            got = yield from self._attempt_steal(ctx, queues, locks, ring, victim, counters)
            if got:
                backoff = 1.0e-6
            else:
                yield from ctx.sleep(backoff)
                backoff = min(backoff * 2.0, 8.0e-6)

    def _attempt_steal(self, ctx, queues, locks, ring, victim, counters):
        yield from ctx.protocol_get(victim, 8)
        yield locks[victim].acquire()
        try:
            yield from ctx.protocol_get(victim, 16)
            available = len(queues[victim])
            if available == 0:
                return 0
            k = (available + 1) // 2 if self.steal == "half" else 1
            yield from ctx.protocol_get(victim, k * Harness.TASK_DESCRIPTOR_BYTES)
            loot = [queues[victim].pop() for _ in range(k)]
        finally:
            locks[victim].release()
        yield from ctx.protocol_put(victim, 8)
        loot.reverse()
        queues[ctx.rank].extend(loot)
        ring.mark_dirty(ctx.rank)
        counters["steals"] = counters.get("steals", 0.0) + 1.0
        return k


class _IterationState:
    """Lazily-built per-iteration scheduling state.

    Iteration boundaries are global sync points, so by the time any rank
    asks for iteration *i*'s schedule, iteration *i-1*'s measurements are
    complete — lazy construction is race-free inside the deterministic
    simulation.
    """

    def __init__(self, graph, machine, n_iterations, seed, executed, assignments, durations, counters):
        self.graph = graph
        self.machine = machine
        self.n_iterations = n_iterations
        self.seed = seed
        self.executed = executed
        self.assignments = assignments
        self.durations = durations
        self.counters = counters
        self._schedules: dict[int, list[list[int]]] = {}
        self._counters: dict[int, GlobalCounter] = {}
        self._queues: dict[int, list[deque[int]]] = {}
        self._locks: dict[int, list[Resource]] = {}
        self._rings: dict[int, TokenRing] = {}
        self._mode = "static_block"
        self._chunk = 1
        self._n_ranks = machine.n_ranks

    def prepare(self, mode: str, chunk: int, n_ranks: int) -> None:
        self._mode = mode
        self._chunk = chunk
        self._n_ranks = n_ranks

    def _assignment_to_lists(self, assignment: np.ndarray) -> list[list[int]]:
        lists: list[list[int]] = [[] for _ in range(self._n_ranks)]
        for tid, rank in enumerate(assignment):
            lists[rank].append(tid)
        return lists

    def schedule(self, iteration: int) -> list[list[int]]:
        cached = self._schedules.get(iteration)
        if cached is not None:
            return cached
        n_tasks = self.graph.n_tasks
        if self._mode == "static_cyclic":
            assignment = cyclic_assignment(n_tasks, self._n_ranks)
        elif self._mode == "static_block" or iteration == 0:
            assignment = block_assignment(n_tasks, self._n_ranks)
        else:
            # Persistence: capacity-aware LPT on last iteration's
            # measurements.
            prev = iteration - 1
            assignment = persistence_assignment(
                self.assignments[prev], self.durations[prev], self.graph.costs, self._n_ranks
            )
        lists = self._assignment_to_lists(assignment)
        self._schedules[iteration] = lists
        return lists

    def counter(self, iteration: int) -> GlobalCounter:
        if iteration not in self._counters:
            self._counters[iteration] = GlobalCounter(0)
        return self._counters[iteration]

    def steal_queues(self, iteration: int) -> list[deque[int]]:
        if iteration not in self._queues:
            assignment = block_assignment(self.graph.n_tasks, self._n_ranks)
            queues: list[deque[int]] = [deque() for _ in range(self._n_ranks)]
            for tid, rank in enumerate(assignment):
                queues[rank].append(tid)
            self._queues[iteration] = queues
        return self._queues[iteration]

    def steal_locks(self, iteration: int) -> list[Resource]:
        if iteration not in self._locks:
            self._locks[iteration] = [Resource(1) for _ in range(self._n_ranks)]
        return self._locks[iteration]

    def ring(self, iteration: int) -> TokenRing:
        if iteration not in self._rings:
            self._rings[iteration] = TokenRing(self._n_ranks, epoch=iteration)
        return self._rings[iteration]
