"""Distributed work stealing over one-sided operations (TASCEL-style).

Each rank owns a deque of task ids, initially filled by a static
distribution. Owners pop from the head; thieves steal from the tail of a
randomly chosen victim. Queues are protected by per-rank locks; a steal
costs the thief a lock CAS round-trip, a metadata read, a descriptor
transfer, and an unlock write — all one-sided, so the **victim spends no
CPU serving steals** (the defining property of the RMA execution model the
paper studies). Termination uses the token ring of
:mod:`repro.exec_models.termination`.

Modeled cost anatomy of one successful steal (commodity network):

    lock CAS     ~ RTT + NIC        (~3.6 us)
    metadata     ~ RTT + NIC        (~3.6 us)
    k descriptors~ RTT + k*16 B     (~3.6 us)
    unlock       ~ RTT + NIC        (~3.6 us)

i.e. ~15 us per steal — negligible against millisecond tasks, ruinous
against 10 us tasks: exactly the granularity trade-off of experiment E5.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from functools import partial

import numpy as np

from repro.exec_models.base import ExecutionModel, Harness
from repro.exec_models.static_ import block_assignment, cyclic_assignment
from repro.exec_models.termination import TokenRing
from repro.runtime.comm import RankContext
from repro.simulate.engine import Resource
from repro.util import ConfigurationError, check_integer, check_positive, spawn_rng

#: The counters :meth:`WorkStealing._steal_loop` keeps.
STEAL_COUNTERS = (
    "steal_attempts", "steal_successes", "tasks_stolen", "failed_steals", "token_hops"
)


class WorkStealing(ExecutionModel):
    """Random work stealing with lock-based remote deques.

    Args:
        initial: initial task distribution — ``"block"``, ``"cyclic"``, or
            an explicit ``(n_tasks,)`` rank per task (array or sequence),
            checked against the run at setup.
        steal: amount policy — ``"half"`` (ceil of half the victim's
            queue, TASCEL default), ``"one"``, or ``"half_cost"`` (tail
            tasks until half the queue's modeled cost has moved).
        victim: victim selection — ``"random"``, ``"ring"`` (cyclic scan
            starting after self), or ``"hierarchical"`` (two attempts on
            a random peer of the rank's node, then one on any rank).
        min_backoff / max_backoff: failed-steal exponential backoff bounds
            (simulated seconds).
        park_after: failed attempts in a row after which an idle rank
            stops stealing and waits for a message (the token, or
            terminate); one attempt follows each message.
    """

    def __init__(
        self,
        initial: str | np.ndarray | Sequence[int] = "block",
        steal: str = "half",
        victim: str = "random",
        min_backoff: float = 1.0e-6,
        max_backoff: float = 8.0e-6,
        park_after: int = 8,
    ) -> None:
        if isinstance(initial, str) and initial not in ("block", "cyclic"):
            raise ConfigurationError("initial must be 'block', 'cyclic', or an array")
        if steal not in ("half", "one", "half_cost"):
            raise ConfigurationError(
                f"steal must be 'half', 'one', or 'half_cost', got {steal!r}"
            )
        if victim not in ("random", "ring", "hierarchical"):
            raise ConfigurationError(
                f"victim must be 'random', 'ring', or 'hierarchical', got {victim!r}"
            )
        check_positive("min_backoff", min_backoff)
        check_positive("max_backoff", max_backoff)
        if max_backoff < min_backoff:
            raise ConfigurationError("max_backoff must be >= min_backoff")
        self.park_after = check_integer("park_after", park_after, 1)
        self.initial = initial if isinstance(initial, str) else np.asarray(initial, dtype=np.int64)
        self.steal = steal
        self.victim = victim
        self.min_backoff = float(min_backoff)
        self.max_backoff = float(max_backoff)
        suffix = "" if steal == "half" and victim == "random" else f"({steal},{victim})"
        self.name = f"work_stealing{suffix}"

    # ------------------------------------------------------------------
    def setup(self, harness: Harness) -> None:
        n_tasks = harness.graph.n_tasks
        n_ranks = harness.n_ranks
        if not isinstance(self.initial, str):
            assignment = self.initial
            if assignment.shape != (n_tasks,):
                raise ConfigurationError(
                    f"initial assignment must be ({n_tasks},), got {assignment.shape}"
                )
            if n_tasks and (assignment.min() < 0 or assignment.max() >= n_ranks):
                raise ConfigurationError(
                    f"initial assignment references ranks outside [0, {n_ranks})"
                )
        elif self.initial == "block":
            assignment = block_assignment(n_tasks, n_ranks)
        else:
            assignment = cyclic_assignment(n_tasks, n_ranks)
        queues: list[deque[int]] = [deque() for _ in range(n_ranks)]
        for tid, rank in enumerate(assignment.tolist()):
            queues[rank].append(tid)
        harness.model_state["queues"] = queues
        harness.model_state["locks"] = [Resource(1) for _ in range(n_ranks)]
        harness.model_state["ring"] = TokenRing(n_ranks)
        harness.counters.update(dict.fromkeys(STEAL_COUNTERS, 0.0))

    # ------------------------------------------------------------------
    def _choose_victim(
        self, ctx: RankContext, rng: np.random.Generator, peers: list[int] | None, scan: int
    ) -> int:
        """The next victim; ``peers`` are the rank's node peers for
        ``"hierarchical"`` (:meth:`_peers`, computed here if None)."""
        n = ctx.machine.n_ranks
        if self.victim == "ring":
            return (ctx.rank + 1 + scan % (n - 1)) % n
        if self.victim == "hierarchical":
            # Two same-node attempts (cheap shared-memory steals), then
            # one remote attempt, repeating — locality-first stealing.
            if peers is None:
                peers = self._peers(ctx)
            if peers and scan % 3 < 2:
                return int(peers[rng.integers(0, len(peers))])
        victim = int(rng.integers(0, n - 1))
        return victim if victim < ctx.rank else victim + 1

    @staticmethod
    def _peers(ctx: RankContext) -> list[int]:
        """The other ranks on this rank's node."""
        return [r for r in ctx.machine.node_peers(ctx.rank) if r != ctx.rank]

    def _steal_count(self, harness: Harness, queue: deque[int]) -> int:
        """How many tasks to take from the tail of a non-empty ``queue``."""
        available = len(queue)
        if self.steal == "half":
            return (available + 1) // 2
        if self.steal == "one":
            return 1
        # half_cost: take tail tasks until half the victim's remaining
        # modeled *cost* moves (cost-aware splitting; the metadata read
        # covers the extra bookkeeping word).
        costs = harness.graph.costs
        total = sum(costs[tid] for tid in queue)
        taken = 0.0
        k = 0
        for tid in reversed(queue):
            if k > 0 and taken >= total / 2.0:
                break
            taken += costs[tid]
            k += 1
        return min(k, available)

    def _attempt_steal(
        self, harness: Harness, ctx: RankContext, victim: int, queues, locks, ring, after_unlock
    ):
        """One steal attempt; returns number of tasks stolen (generator).
        With the backoff sleep after a failure, the reference for an
        attempt of :meth:`Harness.idle_pass`, in its order."""
        harness.counters["steal_attempts"] += 1.0

        # Remote lock acquisition: one CAS round-trip, then wait if held.
        yield from ctx.protocol_get(victim, Harness.LOCK_WORD_BYTES)
        yield locks[victim].acquire()
        try:
            # Queue metadata read.
            yield from ctx.protocol_get(victim, Harness.QUEUE_META_BYTES)
            if not queues[victim]:
                harness.counters["failed_steals"] += 1.0
                return 0
            k = self._steal_count(harness, queues[victim])
            # Descriptor transfer; tasks leave the victim at completion.
            yield from ctx.protocol_get(victim, k * Harness.TASK_DESCRIPTOR_BYTES)
            stolen = [queues[victim].pop() for _ in range(k)]
        finally:
            locks[victim].release()
        stolen.reverse()
        # Unlock write (after release so a waiting thief proceeds now).
        # Unless ``after_unlock``, the transfer is committed before it: the
        # descriptors are already local, and a thief or victim dying under
        # the unlock must not leave tasks outside every queue (crash
        # recovery only scans queues and in-flight lists).
        if after_unlock:
            yield from ctx.protocol_put(victim, Harness.LOCK_WORD_BYTES)
        queues[ctx.rank].extend(stolen)
        ring.mark_dirty(ctx.rank)
        harness.counters["steal_successes"] += 1.0
        harness.counters["tasks_stolen"] += float(k)
        if not after_unlock:
            yield from ctx.protocol_put(victim, Harness.LOCK_WORD_BYTES)
        return k

    # ------------------------------------------------------------------
    def rank_process(self, harness: Harness, ctx: RankContext):
        state = harness.model_state
        rng = spawn_rng(harness.rank_seed(ctx.rank, "steal"))
        return self._steal_loop(harness, ctx, state["queues"], state["locks"], state["ring"], rng)

    def _steal_loop(
        self,
        harness: Harness,
        ctx: RankContext,
        queues: list[deque[int]],
        locks: list[Resource],
        ring: TokenRing,
        rng: np.random.Generator,
        tags: tuple | None = None,
        park=True,
        choose=None,
        heartbeat=None,
        on_silence=None,
        run_task=None,
        recover=None,
        after_unlock=False,
    ):
        """A stealing rank until ``ring`` terminates (generator): drain its
        queue, poll for a message matching one of ``tags`` in turn
        (default: any), park in a ``recv`` after ``park_after`` failed
        attempts in a row if ``park`` (``on_silence()`` says whether to
        stop when ``heartbeat`` ends it empty), steal from the victim
        :meth:`_choose_victim` draws on ``rng`` (or ``choose(scan)``'s,
        None: no victim), back off. Fault tolerance adds ``choose``,
        ``run_task(tid)`` and ``recover()`` (tasks adopted before each
        poll); ``after_unlock`` orders the attempt (:meth:`_attempt_steal`).
        Without ``choose``, the attempts from an empty queue up to the
        next success, message or park are one request when the engine
        walks it (:meth:`Harness.idle_pass`).
        """
        counters = harness.counters
        queue = queues[ctx.rank]
        n_ranks = harness.n_ranks
        terminate_tag, token_tag = ring.terminate_tag, ring.token_tag
        polled = tags or (None,)
        backoff = self.min_backoff
        scan = 0
        consecutive_failures = 0
        idle = None
        if choose is None:
            peers = self._peers(ctx) if self.victim == "hierarchical" else None
            choose = partial(self._choose_victim, ctx, rng, peers)
            idle = harness.idle_pass(
                ctx, queues, locks, ring, rng, self.victim, peers, self.steal, tags,
                self.park_after if park else 0, self.min_backoff, self.max_backoff, after_unlock,
            )  # fmt: skip

        while True:
            # Drain the local queue: one request when the engine walks it.
            if queue and (yield from harness.local_drain(ctx, queue, locks, run_task)):
                backoff = self.min_backoff
                consecutive_failures = 0
            if n_ranks == 1:
                return
            if recover is not None and (yield from recover()):
                backoff = self.min_backoff
                consecutive_failures = 0
                continue

            # Idle: handle protocol messages.
            for tag in polled:
                message = ctx.try_recv(tag)
                if message is not None:
                    break
            if message is None and park and consecutive_failures >= self.park_after:
                # Park: the local neighbourhood looks drained, so wait for
                # the circulating token (or terminate) instead of burning
                # NIC time on hopeless steals. The wait is untraced: it
                # shows up as idle, which is what it is. One steal attempt
                # follows every token wake-up, so residual work elsewhere
                # is still reachable.
                message = yield from ctx.recv(traced=False, timeout=heartbeat)
                if message is None and (yield from on_silence()):
                    return
            if message is not None:
                if message.tag == terminate_tag:
                    return
                if message.tag == token_tag:
                    declared = yield from ring.handle_token(ctx, message.payload)
                    counters["token_hops"] = float(ring.hops)
                    if declared:
                        return
            if not ring.launched and ctx.rank == ring.lowest_alive():  # the launcher, once
                yield from ring.maybe_launch(ctx)
                counters["token_hops"] = float(ring.hops)

            # Steal: the attempts up to the next success, message or park
            # as one request when the engine walks it; else one attempt's
            # generator, then the backoff sleep.
            if idle is not None:
                backoff, scan, consecutive_failures = yield from idle(
                    backoff, scan, consecutive_failures
                )
                continue
            victim = choose(scan)
            scan += 1
            got = 0
            if victim is not None:
                got = yield from self._attempt_steal(
                    harness, ctx, victim, queues, locks, ring, after_unlock
                )
            if got:
                backoff = self.min_backoff
                consecutive_failures = 0
            else:
                consecutive_failures += 1
                yield from ctx.sleep(backoff)
                backoff = min(backoff * 2.0, self.max_backoff)
