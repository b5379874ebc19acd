"""Execution-model base class, run harness, and result record.

The :class:`Harness` wires one simulated run together: engine, network,
trace recorder, and the distributed density/Fock matrices. Its
:meth:`Harness.execute_task` is the *common task protocol* every model
uses —

    get density blocks -> compute kernel -> accumulate Fock blocks

so models differ **only** in how tasks are claimed, exactly as the paper's
methodology demands.

:class:`RunResult` is the uniform outcome record: makespan, per-rank
activity breakdown, the task->rank assignment (validated for exactly-once
execution), per-task timings (consumed by persistence-based balancing),
model-specific counters, and network statistics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.balance.metrics import footprint_owners
from repro.chemistry.tasks import TaskGraph, TaskSpec
from repro.faults import FailureDetector, FaultInjector, FaultPlan
from repro.runtime.comm import RankContext
from repro.runtime.counter import GlobalCounter
from repro.runtime.garrays import BlockDistribution, GlobalBlockedMatrix
from repro.runtime.trace import COMM, COMPUTE, FAILED, IDLE, OVERHEAD, TraceRecorder
from repro.simulate.engine import Process
from repro.simulate.machine import MachineSpec
from repro.simulate.sched import make_engine
from repro.simulate.network import MOVE_TASKS, Network, SharedCell
from repro.util import ConfigurationError, SchedulingError, derive_seed


@dataclass
class RunResult:
    """Outcome of one simulated execution.

    Attributes:
        model: execution-model name.
        n_ranks: rank count.
        n_tasks: task count.
        makespan: simulated seconds from start to the last rank finishing.
        breakdown: category -> ``(n_ranks,)`` seconds
            (compute / comm / overhead / idle).
        assignment: ``(n_tasks,)`` executing rank per task.
        task_starts: ``(n_tasks,)`` kernel start time per task.
        task_durations: ``(n_tasks,)`` kernel compute seconds per task
            (the persistence balancer's measurement input).
        finish_times: ``(n_ranks,)`` when each rank's process completed.
        counters: model-specific statistics (steals, chunks, rounds, ...).
        network: operation counts and bytes moved.
        total_flops: task-graph total (for speedup/efficiency).
        nominal_flops_per_second: machine nominal per-rank rate.
        failed_ranks: ranks that crashed during the run (fault plans).
        completion_rate: fraction of tasks that executed at least once
            (1.0 for fault-free runs; < 1.0 marks a degraded run).
    """

    model: str
    n_ranks: int
    n_tasks: int
    makespan: float
    breakdown: dict[str, np.ndarray]
    assignment: np.ndarray
    task_starts: np.ndarray
    task_durations: np.ndarray
    finish_times: np.ndarray
    counters: dict[str, float] = field(default_factory=dict)
    network: dict[str, float] = field(default_factory=dict)
    total_flops: float = 0.0
    nominal_flops_per_second: float = 1.0
    failed_ranks: tuple[int, ...] = ()
    completion_rate: float = 1.0
    #: Raw (rank, category, start, end) intervals; populated only when the
    #: run was made with ``trace_intervals=True`` (timeline rendering).
    intervals: list[tuple[int, str, float, float]] | None = None
    #: Deterministic engine/trace volume counters (see ``repro.perf``):
    #: total events dispatched, events dispatched via the zero-delay
    #: run-queue, and trace intervals recorded. Kept out of ``counters``
    #: so experiment tables are unaffected.
    sim_events: int = 0
    sim_ready_events: int = 0
    trace_records: int = 0
    #: Timeout requests consumed by the engines' resume fast paths. With
    #: the shared freelist these no longer cost one allocation each; the
    #: counter measures how much traffic the freelist absorbs. A task run
    #: as one chained request counts its kernel step as the ``Timeout``
    #: it stands for, and a drain's pop step its ``overhead_delay``
    #: ``Timeout``, so the count does not say which form ran.
    timeout_allocs: int = 0
    #: Resource grants delivered straight to a waiter's resume (NIC and
    #: atomic-counter queueing) without a generic callback frame.
    grant_resumes: int = 0
    #: Traced network ops served from the fused cost tables (no
    #: generator frame), one by one or as steps of a chained request; 0
    #: when fault injection arms the traced path.
    fused_ops: int = 0

    @property
    def degraded(self) -> bool:
        """True when some tasks were lost to failures (no recovery)."""
        return self.completion_rate < 1.0

    @property
    def serial_seconds(self) -> float:
        """Modeled single-rank (nominal-speed, zero-overhead) time."""
        return self.total_flops / self.nominal_flops_per_second

    @property
    def speedup(self) -> float:
        return self.serial_seconds / self.makespan if self.makespan > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.speedup / self.n_ranks

    @property
    def mean_utilization(self) -> float:
        """Mean fraction of makespan ranks spent computing tasks."""
        if self.makespan <= 0:
            return 0.0
        return float(self.breakdown[COMPUTE].mean() / self.makespan)

    @property
    def compute_imbalance(self) -> float:
        """max/mean of per-rank compute time (lambda >= 1; 1 is perfect)."""
        busy = self.breakdown[COMPUTE]
        mean = busy.mean()
        return float(busy.max() / mean) if mean > 0 else float("inf")

    def breakdown_fractions(self) -> dict[str, float]:
        """Machine-wide fraction of rank-seconds per activity category."""
        total = self.makespan * self.n_ranks
        if total <= 0:
            return {cat: 0.0 for cat in (COMPUTE, COMM, OVERHEAD, IDLE, FAILED)}
        return {cat: float(vals.sum() / total) for cat, vals in self.breakdown.items()}

    def to_arrays(self) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
        """This result as named arrays plus a JSON-able meta record.

        The arrays are the four per-task/per-rank ones, ``breakdown``
        stacked into one ``(categories, n_ranks)`` array and, when traced,
        the intervals as ``intervals.ints`` (rank and category code rows)
        and ``intervals.times`` (start and end rows). Every other field is
        in the meta, with ``categories`` naming the breakdown rows and
        ``intervals`` the interval categories (None when untraced).
        :meth:`from_arrays` is the exact inverse; the result cache stores
        this form.
        """
        arrays = {name: getattr(self, name) for name in _RESULT_ARRAYS}  # then breakdown, stacked
        arrays["breakdown"] = np.array([*self.breakdown.values()], dtype=np.float64).reshape(
            len(self.breakdown), self.n_ranks
        )
        meta = {name: getattr(self, name) for name in _RESULT_FIELDS}
        meta["categories"] = list(self.breakdown)
        meta["failed_ranks"] = list(self.failed_ranks)
        meta["intervals"] = None
        if self.intervals is not None:
            ranks, cats, starts, ends = list(zip(*self.intervals)) or [()] * 4
            meta["intervals"] = names = list(dict.fromkeys(cats))
            codes = list(map(names.index, cats))
            arrays["intervals.ints"] = np.array([ranks, codes], dtype=np.int64)
            arrays["intervals.times"] = np.array([starts, ends], dtype=np.float64)
        return arrays, meta

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], meta: dict[str, Any]) -> RunResult:
        """The result :meth:`to_arrays` encoded. A missing or unknown field
        or a value of another type raises :class:`ConfigurationError`."""
        arrays, meta = dict(arrays), dict(meta)
        names, categories = meta.pop("intervals", ()), meta.pop("categories", None)
        fields = {**take_fields(arrays, _RESULT_ARRAYS), **take_fields(meta, _RESULT_FIELDS)}
        if type(categories) is not list:
            raise ConfigurationError("stored field 'categories' is not a list")
        fields["failed_ranks"] = tuple(fields["failed_ranks"])
        fields["intervals"] = None
        if type(names) is list:
            ints = take_fields(arrays, _INTERVAL_ARRAYS)
            (ranks, codes), (starts, ends) = (a.tolist() for a in ints.values())
            fields["intervals"] = list(zip(ranks, [names[c] for c in codes], starts, ends))
        elif names is not None:
            raise ConfigurationError("stored field 'intervals' is not a list or None")
        if (
            arrays
            or meta
            or fields["breakdown"].shape != (len(categories), fields["n_ranks"])
            or not set(map(type, fields["failed_ranks"])) <= {int}
            or not {*map(type, categories), *map(type, names or ())} <= {str}
            or not {*map(type, fields["counters"].values()), *map(type, fields["network"].values())}
            <= {int, float}
        ):
            raise ConfigurationError(f"not a stored RunResult: {sorted([*arrays, *meta])}")
        fields["breakdown"] = dict(zip(categories, fields["breakdown"]))
        return cls(**fields)


#: How :meth:`RunResult.to_arrays` stores each field: arrays by dtype,
#: meta values by the exact type they decode to.
_F8, _I8 = np.dtype("<f8"), np.dtype("<i8")
_RESULT_ARRAYS = dict(
    assignment=_I8, task_starts=_F8, task_durations=_F8, finish_times=_F8, breakdown=_F8
)
_INTERVAL_ARRAYS = {"intervals.ints": _I8, "intervals.times": _F8}
_RESULT_FIELDS = dict(
    model=str, n_ranks=int, n_tasks=int, makespan=float, counters=dict, network=dict,
    total_flops=float, nominal_flops_per_second=float, failed_ranks=list,
    completion_rate=float, sim_events=int, sim_ready_events=int, trace_records=int,
    timeout_allocs=int, grant_resumes=int, fused_ops=int,
)


def take_fields(source: dict[str, Any], spec: dict[str, Any]) -> dict[str, Any]:
    """Pop ``spec``'s fields from ``source``: each an array of the dtype
    or a value of exactly the type ``spec`` names, else
    :class:`ConfigurationError` (the decoders of stored results)."""
    values = [source.pop(name, None) for name in spec]
    kinds = [v.dtype if type(v) is np.ndarray else type(v) for v in values]
    if kinds != [*spec.values()]:
        raise ConfigurationError(f"stored fields are missing or mistyped: {list(spec)}")
    return dict(zip(spec, values))


def _step_table(graph: TaskGraph, distribution: BlockDistribution, network: Network):
    """Every task's communication as steps of one flat list, or None.

    Returns ``(steps, bounds, costs, totals)``:
    ``steps[bounds[t]:bounds[t + 1]]`` is task ``t`` as a
    ``FusedOp`` chain (:attr:`~repro.simulate.network.Network.op_type`)
    walks it — one
    ``(owner, (tier-0, tier-1, tier-2 program), COMM)`` step per density
    block read, ``None`` for the kernel, one step per Fock block
    accumulated — ``costs[t]`` its flops and ``totals[t]`` its
    ``(gets, accumulates, bytes)``: ``bounds`` an int64 array,
    ``costs`` a float64 one, ``totals`` an ``(n_tasks, 3)`` int64 array.
    Tasks share one step per distinct (owner, nbytes, kind); the
    programs are :meth:`Network._tier_program`'s. None when the graph
    has no tasks or a negative cost, which only the per-task path
    rejects (task ids are dense and ordered by construction).

    Memoised on the graph per ``(distribution, network model)`` — the
    locality tier is resolved per step at run time, so one table serves
    every topology — next to its first-read attributes; a pickled graph
    is its arrays, so a table is never shipped, and it is no part of
    ``content_key``. ``bounds``, ``costs`` and ``totals`` are the
    graph's alone, so every table of a graph holds the same ones.
    """
    tables = graph.__dict__.setdefault("_step_tables", {})
    key = (distribution, network.model)
    if key not in tables:
        sibling = next(iter(tables.values()), None)
        tables[key] = _build_step_table(graph, distribution, network, sibling)
    return tables[key]


def _build_step_table(
    graph: TaskGraph, distribution: BlockDistribution, network: Network, sibling: tuple | None
):
    n = graph.n_tasks
    if n == 0 or graph.costs.min() < 0.0:
        return None
    n_reads = graph.footprint_counts[:, 0]
    rows, cols, tids = graph.footprint_arrays  # per task: reads, then writes
    owners, offsets = footprint_owners(graph, distribution)
    first, n_refs = offsets[:-1], np.diff(offsets)
    local = np.arange(rows.size) - first[tids]
    accumulates = (local >= n_reads[tids]).astype(np.int64)
    sizes = graph.blocks.sizes()
    nbytes = sizes[rows] * sizes[cols] * 8

    # One shared step per distinct (owner, nbytes, kind).
    n_ranks = distribution.n_ranks
    keys, inverse = np.unique(
        (nbytes * n_ranks + owners) * 2 + accumulates, return_inverse=True
    )
    shared = np.empty(keys.size, dtype=object)
    for i, key in enumerate(keys.tolist()):
        kind = "accumulate" if key & 1 else "rma"
        size, owner = divmod(key >> 1, n_ranks)
        programs = tuple(network._tier_program(kind, tier, size) for tier in (0, 1, 2))
        shared[i] = (owner, programs, COMM)

    # Task t's refs sit after t kernels of earlier tasks, its accumulates
    # after its own; the slots left None are the kernels.
    steps = np.empty(rows.size + n, dtype=object)
    steps[first[tids] + tids + local + accumulates] = shared[inverse]
    if sibling is not None:  # the graph's bounds, costs and totals
        return (tuple(steps.tolist()), *sibling[1:])
    bounds = np.append(first + np.arange(n), rows.size + n).astype(np.int64)
    moved = np.bincount(tids, weights=nbytes, minlength=n).astype(np.int64)
    totals = np.stack([n_reads, n_refs - n_reads, moved], axis=1).astype(np.int64)
    costs = np.ascontiguousarray(graph.costs, dtype=np.float64)
    return tuple(steps.tolist()), bounds, costs, totals


class Harness:
    """Shared per-run machinery: engine, network, trace, global arrays."""

    #: Modeled local cost of claiming a task from a rank's own queue.
    LOCAL_QUEUE_OP = 1.0e-7
    #: Bytes of one task descriptor when stolen/transferred.
    TASK_DESCRIPTOR_BYTES = 16
    #: Bytes of a queue's lock word and of its metadata, as a thief reads
    #: (and writes back) them.
    LOCK_WORD_BYTES = 8
    QUEUE_META_BYTES = 16

    def __init__(
        self,
        graph: TaskGraph,
        machine: MachineSpec,
        seed: int = 0,
        trace_intervals: bool = False,
        distribution_scheme: str = "cyclic",
        faults: FaultPlan | None = None,
    ) -> None:
        self.graph = graph
        self.machine = machine
        self.seed = int(seed)
        self.engine = make_engine()
        node_of = machine.node_of if machine.cores_per_node is not None else None
        self.network = Network(self.engine, machine.network, machine.n_ranks, node_of)
        self.trace = TraceRecorder(machine.n_ranks)
        if trace_intervals:
            self.trace.keep_intervals()
        dist = BlockDistribution(graph.blocks.n_blocks, machine.n_ranks, distribution_scheme)
        self.density = GlobalBlockedMatrix("D", graph.blocks, dist)
        self.fock = GlobalBlockedMatrix("F", graph.blocks, dist)
        #: Scratch for model-specific statistics, folded into RunResult.
        self.counters: dict[str, float] = {}
        #: Per-run model state (schedules, queues, shared counters).
        self.model_state: dict = {}
        self._finish_times = np.full(machine.n_ranks, np.nan)
        #: Fault machinery; all None for fault-free runs. An *empty*
        #: FaultPlan is treated exactly like no plan at all, so zero-fault
        #: runs are bit-for-bit identical to the baseline.
        self.injector: FaultInjector | None = None
        self.detector: FailureDetector | None = None
        if faults is not None and not faults.empty:
            self.injector = FaultInjector(faults, self.engine, self.network)
            self.network.faults = self.injector
            self.detector = FailureDetector(self.injector)
        #: The ``FusedOp`` chain every task of this run is a slice of,
        #: else None and :meth:`_walk_task` runs it. Read from what this
        #: run is: the network has an op type (the engine walks fused
        #: ops, and ``_op`` is that type), no fault plan is armed
        #: (only generators know dead targets, stalls and failover),
        #: kernel costs do not depend on start times, and no interval log
        #: pins the sequence of records.
        self._chain: tuple | None = None
        variability = machine.variability
        if (
            self.network.op_type is not None
            and self.injector is None
            and variability.time_independent
            and self.trace.intervals is None
        ):
            table = _step_table(graph, dist, self.network)
            if table is not None:
                steps, bounds, costs, self._totals = table
                self._chain = self.network._chain(steps)
                self._op = self.network.op_type
                #: The task table of the ops' native claim sources: task
                #: ``t`` is ``steps[bounds[t]:bounds[t + 1]]`` of the
                #: chain, its kernel ``costs[t] / rates[rank]`` — the
                #: per-rank divisor of ``MachineSpec.compute_seconds``.
                rates = [
                    machine.flops_per_second * variability.speed(rank, 0.0)
                    for rank in range(machine.n_ranks)
                ]
                self._tasks = (self._chain, bounds, costs, np.array(rates, dtype=np.float64))
                #: Tasks :meth:`execute_task` walked all the same: their
                #: operations counted themselves (see :meth:`finish`).
                self._walked: list[int] = []
                #: Fetch-adds of every :meth:`claim_loop`, which each loop
                #: adds as it ends.
                self._loop_claims = SharedCell()
                #: The idle passes' steal tally (attempts, successes, tasks
                #: stolen, failures), which the core counts and
                #: :meth:`count_steals` folds; what they share, made by
                #: the first (:meth:`idle_pass`).
                self._steals = np.zeros(4, dtype=np.int64)
                self._idle_shared: tuple | None = None

    @property
    def n_ranks(self) -> int:
        return self.machine.n_ranks

    def context(self, rank: int) -> RankContext:
        return RankContext(
            rank, self.engine, self.network, self.machine, self.trace,
            faults=self.injector,
        )

    # ------------------------------------------------------------------
    # Fault-tolerance helpers (no-ops without an armed fault plan)
    # ------------------------------------------------------------------
    def next_alive(self, rank: int) -> int:
        """First rank at or after ``rank`` (cyclically) not suspected dead."""
        if self.detector is None:
            return rank % self.n_ranks
        for k in range(self.n_ranks):
            cand = (rank + k) % self.n_ranks
            if not self.detector.is_suspected(cand):
                return cand
        return rank % self.n_ranks

    def enable_data_failover(self) -> None:
        """Redirect block ownership away from suspected-dead ranks.

        Models the replicated/recoverable data store fault-tolerant
        runtimes keep (e.g. a parity copy of density/Fock blocks): once a
        rank is *suspected*, its blocks are served by the next live rank.
        Operations against a dead-but-unsuspected owner still fail fast
        and must be retried after reporting — that window is the modeled
        detection cost.
        """
        if self.detector is None:
            return

        def failover(owner: int) -> int:
            if self.detector.is_suspected(owner):
                return self.next_alive((owner + 1) % self.n_ranks)
            return owner

        self.density.failover = failover
        self.fock.failover = failover

    def rank_seed(self, rank: int, *keys: int | str) -> int:
        return derive_seed(self.seed, "rank", rank, *keys)

    # ------------------------------------------------------------------
    def execute_task(self, ctx: RankContext, task: TaskSpec):
        """The common task protocol: reads, kernel, accumulates.

        Returns what the caller drives with ``yield from``: the whole
        task as one request the engine walks (see ``_chain``), else the
        :meth:`_walk_task` generator — the same gets, ``Timeout`` and
        accumulates in the same order, so runs are bit-identical.
        """
        if self._chain is None:
            return self._walk_task(ctx, task)
        tid = task.tid
        tasks = self.graph.tasks
        if tid >= len(tasks) or tasks[tid] is not task:  # not the graph's own task
            self._walked.append(tid)
            return self._walk_task(ctx, task)
        source = ("list", self._tasks, [tid])
        return self._op(self.trace, ctx.rank, chain=self._chain, claim=source)

    def claim_loop(self, ctx: RankContext, counter: GlobalCounter, sequence: np.ndarray):
        """``counter_dynamic``'s chunk-1 loop as one request, else None.

        Fetch-add ``counter``, run task ``sequence[value]``, fetch-add
        again, until a claim reads ``n_tasks`` or more, which the request
        returns. The core reads each claim itself (the op's ``"counter"``
        claim source); the loop's fetch-adds reach ``counters["claims"]``
        and the network stats once, in :meth:`finish`. None when tasks do
        not run as chains (see :meth:`execute_task`): the caller drives
        the generator loop, the reference, which this request reproduces
        event by event.
        """
        if self._chain is None:
            return None
        network = self.network
        cell = counter.cell
        programs = tuple(network._tier_program("fetch_add", tier, 0) for tier in (0, 1, 2))
        fetch_add = network._chain(((counter.home_rank, programs, OVERHEAD),))
        source = (
            "counter", self._tasks, fetch_add, cell,
            np.ascontiguousarray(sequence, dtype=np.int64), self._loop_claims,
        )  # fmt: skip
        return self._op(
            self.trace, ctx.rank, counter=cell, amount=1, chain=fetch_add, end=1, claim=source
        )

    def local_drain(self, ctx: RankContext, queue, locks: list, run_task=None):
        """``work_stealing``'s local drain, to drive with ``yield from``.

        Pop the head of ``queue`` holding ``locks[rank]`` for
        :attr:`LOCAL_QUEUE_OP`, run the task, repeat while the queue holds
        tasks; the result is how many ran (0 when a thief emptied the
        queue under the lock). One request (the op's ``"drain"`` claim
        source) when tasks run as chains (see :meth:`execute_task`) and no
        ``run_task(tid)`` generator stands in for :meth:`execute_task`;
        else :meth:`_walk_drain`, the reference.
        """
        if self._chain is None or run_task is not None:
            return self._walk_drain(ctx, queue, locks[ctx.rank], run_task)
        rank = ctx.rank
        program = ((), self.LOCAL_QUEUE_OP, ())
        pop = (((rank, (program, program, program), OVERHEAD),), locks, None)
        source = ("drain", self._tasks, queue, pop)
        return self._op(self.trace, rank, chain=pop, end=1, claim=source)

    def idle_pass(
        self, ctx: RankContext, queues, locks, ring, rng, victim: str, peers, steal: str,
        tags, park_after: int, min_backoff: float, max_backoff: float, after_unlock: bool,
    ):  # fmt: skip
        """A stealing rank's idle pass as one request, else None.

        Returns ``start(backoff, scan, failures)``, which arms the rank's
        request from the rank loop's state (made on the first call, and
        re-armed by its ``again`` after, so the core reads its claim
        source once per rank): choose a victim (``victim``
        over ``peers``, drawn on ``rng``), attempt a steal on it (lock
        word, ``locks[victim]`` kept, metadata, then ``steal``'s decision:
        the descriptors, the move from the tail of ``queues[victim]`` to
        the thief's and the unlock write, the landing after it if
        ``after_unlock``, or the release and the backoff sleep), poll the
        rank's mailbox for ``tags`` (None: any message), again, until an
        attempt took tasks, a message waits or ``park_after`` failures in
        a row (0: never) call for a park. A park waits in the rank's
        mailbox as ``recv(tag=None)`` does, for any message, and records
        the wait as IDLE. The request returns the loop's ``(backoff, scan,
        failures)`` and the message that woke a park (else None); the core
        marks the thief in ``ring.dirty`` as it gains tasks and tallies the
        attempts, which :meth:`count_steals` folds. Call it with the rank's
        queue empty, the token launched or the rank not its launcher. None
        as for :meth:`claim_loop`; the generators are
        ``WorkStealing._steal_loop``'s attempt loop and park, the
        reference.
        """
        if self._chain is None:
            return None
        if self._idle_shared is None:
            # No closure here may hold the harness: the shared tuple would
            # then keep the whole run alive until a full collection.
            tier_program, descriptor_bytes = self.network._tier_program, self.TASK_DESCRIPTOR_BYTES

            def programs(nbytes):
                return tuple(tier_program("rma", tier, nbytes) for tier in (0, 1, 2))

            def descriptors(k):
                return programs(k * descriptor_bytes)

            self._idle_shared = (
                [None] * self.n_ranks, programs(self.LOCK_WORD_BYTES),
                programs(self.QUEUE_META_BYTES), OVERHEAD, IDLE, {}, descriptors,
                self.network._chain((MOVE_TASKS, IDLE)), self._steals,
            )  # fmt: skip
        rank = ctx.rank
        mailbox = self.network._mailboxes[rank]
        source = (
            "idle", self._tasks, self._idle_shared, queues, locks, ring.dirty, rank,
            deque() if after_unlock else None, rng.bit_generator, victim, tuple(peers or ()),
            steal, tags, mailbox.messages, mailbox.waiters, park_after,
            float(min_backoff), float(max_backoff),
        )  # fmt: skip
        op, trace, chain = self._op, self.trace, self._chain
        request = None  # the rank's one request, re-armed for each pass

        def start(backoff: float, scan: int, failures: int):
            nonlocal request
            if request is None:
                request = op(trace, rank, chain=chain, claim=(*source, backoff, scan, failures))
                return request
            return request.again(backoff, scan, failures)

        return start

    def _walk_drain(self, ctx: RankContext, queue, lock, run_task):
        """The local drain as a generator: the reference for the op."""
        ran = 0
        while queue:
            yield lock.acquire()
            try:
                yield from ctx.overhead_delay(self.LOCAL_QUEUE_OP)
                tid = queue.popleft() if queue else None
            finally:
                lock.release()
            if tid is None:
                break
            if run_task is None:
                yield from self.execute_task(ctx, self.graph.tasks[tid])
            else:
                yield from run_task(tid)
            ran += 1
        return ran

    def _walk_task(self, ctx: RankContext, task: TaskSpec):
        """The task protocol as a generator: the reference for the chain."""
        for ref in task.reads:
            yield from self.density.get(ctx, ref)
        yield from ctx.compute(task.flops, tid=task.tid)
        for ref in task.writes:
            yield from self.fock.accumulate(ctx, ref)

    def execute_tasks(self, ctx: RankContext, tids):
        """Run the claimed task ids ``tids`` in order, as one claim loop.

        A list is the third claim source beside :meth:`claim_loop`'s
        fetch-add and :meth:`local_drain`'s pop: the core arms the next
        id's slice of the chain itself (the op's ``"list"`` claim source),
        and the process resumes once, when the list is exhausted. Without
        a chain (see :meth:`execute_task`) the caller drives the per-task
        generator, the reference; so it does for an empty list, since an
        op with no slice to load would finish inside ``activate`` and
        resume its process re-entrantly.
        """
        if self._chain is None or not tids:

            def each_task():
                for tid in tids:
                    yield from self.execute_task(ctx, self.graph.tasks[tid])

            return each_task()
        source = ("list", self._tasks, tids if type(tids) is list else list(tids))
        return self._op(self.trace, ctx.rank, chain=self._chain, claim=source)

    def spawn_ranks(self, process_factory) -> None:
        """Start one process per rank; records per-rank finish times.

        ``process_factory(harness, ctx)`` must return the rank's generator.
        With a fault plan, also arms the injector so scheduled crashes can
        cancel the right processes.
        """

        # The finish time is recorded through the process's synchronous
        # on_finish hook rather than a wrapping generator: one frame fewer
        # on every event send, same record (engine.now at generator
        # return), and still skipped on cancellation exactly as the
        # statement after a ``yield from`` would be.
        engine = self.engine
        finish_times = self._finish_times

        def recorder(rank: int) -> Callable[[], None]:
            def record() -> None:
                finish_times[rank] = engine.now

            return record

        procs: dict[int, Process] = {}
        for rank in range(self.n_ranks):
            procs[rank] = engine.process(
                process_factory(self, self.context(rank)),
                name=f"rank{rank}",
                on_finish=recorder(rank),
            )
        if self.injector is not None:
            self.injector.arm(procs)

    def _tolerant_assignment(self) -> tuple[np.ndarray, int, int, np.ndarray]:
        """Task assignment under faults: last record wins.

        Replay makes duplicate task records legitimate (tasks are
        idempotent; re-execution overwrites), and a crash can lose tasks
        outright under non-recovering models. Returns
        ``(assignment, tasks_lost, tasks_replayed, last)`` — lost tasks
        keep rank -1, and ``last`` indexes each executed task's last
        record in the trace's task columns.
        """
        n_tasks = self.graph.n_tasks
        tids = self.trace.checked_task_ids(n_tasks, repeats=True)
        # A task's last record is its first in reverse recording order.
        ran, first_back = np.unique(tids[::-1], return_index=True)
        last = tids.size - 1 - first_back
        assignment = np.full(n_tasks, -1, dtype=np.int64)
        assignment[ran] = np.array(self.trace.task_ranks, dtype=np.int64)[last]
        lost = int(np.count_nonzero(assignment < 0))
        return assignment, lost, tids.size - ran.size, last

    def _count_chained_ops(self) -> None:
        """Add the operations of every task run as a chain to the network
        stats, as the traced entry points count them op by op — once per
        run, after :meth:`TraceRecorder.task_assignment` has seen each
        task run exactly once; the tasks :meth:`execute_task` walked
        counted their own. So with the claim loops' fetch-adds, which
        ``counters["claims"]`` counts too."""
        ran = np.ones(self.graph.n_tasks, dtype=bool)
        ran[self._walked] = False
        gets, accumulates, nbytes = self._totals[ran].sum(axis=0).tolist()
        stats = self.network.stats
        stats.gets += gets
        stats.accumulates += accumulates
        stats.fused_ops += gets + accumulates
        stats.bytes_moved += nbytes
        claims = self._loop_claims.value
        if claims:
            self.counters["claims"] += float(claims)
            stats.fetch_adds += claims
            stats.fused_ops += claims
        self.count_steals()

    def count_steals(self) -> None:
        """Fold the idle passes' tally into the steal counters and the
        network stats, as each attempt's generator counts its operations:
        per attempt two gets (lock word, metadata), per success a
        descriptor get of its tasks and the unlock put. Once per run
        (:meth:`finish`, ``ScfSimulation.run``); a no-op without a chain."""
        if self._chain is None:
            return
        attempts, successes, stolen, failed = self._steals.tolist()
        self._steals[:] = 0
        if not attempts:
            return
        counters = self.counters
        counters["steal_attempts"] += float(attempts)
        counters["steal_successes"] += float(successes)
        counters["tasks_stolen"] += float(stolen)
        counters["failed_steals"] += float(failed)
        stats = self.network.stats
        stats.gets += 2 * attempts + successes
        stats.puts += successes
        stats.bytes_moved += (
            (self.LOCK_WORD_BYTES + self.QUEUE_META_BYTES) * attempts
            + self.TASK_DESCRIPTOR_BYTES * stolen
            + self.LOCK_WORD_BYTES * successes
        )
        stats.fused_ops += 2 * (attempts + successes)

    def finish(self, model_name: str) -> RunResult:
        """Drain the engine, validate invariants, assemble the result."""
        self.engine.run()
        crashed: tuple[int, ...] = ()
        if self.injector is not None:
            crashed = self.injector.failed_ranks
            for rank in crashed:
                if np.isnan(self._finish_times[rank]):
                    self._finish_times[rank] = self.injector.dead_since[rank]
        if np.any(np.isnan(self._finish_times)):
            raise SchedulingError(
                f"model {model_name!r}: some ranks never finished"
            )
        makespan = float(np.max(self._finish_times))
        trace = self.trace
        if self.injector is not None:
            # A crashed rank's remaining makespan is failed time, not idle.
            for rank in crashed:
                since = self.injector.dead_since[rank]
                if makespan > since:
                    trace.record(rank, FAILED, since, makespan)
        n_tasks = self.graph.n_tasks
        if self.injector is None:
            assignment = trace.task_assignment(n_tasks)
            tasks_lost = tasks_replayed = 0
            kept = slice(None)  # exactly one record per task
            if self._chain is not None:
                self._count_chained_ops()
        else:
            assignment, tasks_lost, tasks_replayed, kept = self._tolerant_assignment()

        tids = np.array(trace.task_ids, dtype=np.int64)[kept]
        begun = np.array(trace.task_starts, dtype=np.float64)[kept]
        starts = np.zeros(n_tasks)
        durations = np.zeros(n_tasks)
        starts[tids] = begun
        durations[tids] = np.array(trace.task_ends, dtype=np.float64)[kept] - begun

        counters = dict(self.counters)
        if self.injector is not None:
            counters.update(self.injector.stats)
            counters["tasks_lost"] = float(tasks_lost)
            counters["tasks_replayed"] = float(tasks_replayed)
        completion = 1.0 if n_tasks == 0 else (n_tasks - tasks_lost) / n_tasks

        stats = self.network.stats
        return RunResult(
            model=model_name,
            n_ranks=self.n_ranks,
            n_tasks=n_tasks,
            makespan=makespan,
            breakdown=trace.breakdown(makespan),
            assignment=assignment,
            task_starts=starts,
            task_durations=durations,
            finish_times=self._finish_times.copy(),
            counters=counters,
            network={
                "gets": float(stats.gets),
                "puts": float(stats.puts),
                "accumulates": float(stats.accumulates),
                "fetch_adds": float(stats.fetch_adds),
                "messages": float(stats.messages),
                "bytes_moved": float(stats.bytes_moved),
            },
            total_flops=self.graph.total_flops,
            nominal_flops_per_second=self.machine.flops_per_second,
            failed_ranks=crashed,
            completion_rate=float(completion),
            intervals=trace.intervals,
            sim_events=self.engine.events_dispatched,
            sim_ready_events=self.engine.ready_dispatched,
            trace_records=trace.records,
            timeout_allocs=self.engine.timeout_allocs,
            grant_resumes=self.engine.grant_resumes,
            fused_ops=stats.fused_ops,
        )


class ExecutionModel(ABC):
    """Base class: subclasses implement per-rank behaviour.

    A model instance is stateless across runs; all per-run state lives in
    the harness or in locals of :meth:`rank_process`.
    """

    name: str = "abstract"

    def run(
        self,
        graph: TaskGraph,
        machine: MachineSpec,
        seed: int = 0,
        trace_intervals: bool = False,
        faults: FaultPlan | None = None,
    ) -> RunResult:
        """Simulate this model on ``graph`` over ``machine``.

        ``faults`` injects a :class:`~repro.faults.FaultPlan`; an empty
        plan is inert (bit-for-bit identical to passing None).
        """
        harness = Harness(
            graph, machine, seed=seed, trace_intervals=trace_intervals, faults=faults
        )
        self.setup(harness)
        harness.spawn_ranks(self.rank_process)
        return harness.finish(self.name)

    def setup(self, harness: Harness) -> None:
        """Per-run initialization hook (queues, counters, schedules)."""

    @abstractmethod
    def rank_process(self, harness: Harness, ctx: RankContext):
        """Generator implementing one rank's behaviour."""
