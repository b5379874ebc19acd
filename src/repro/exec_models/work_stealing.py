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

import numpy as np

from repro.exec_models.base import ExecutionModel, Harness
from repro.exec_models.static_ import block_assignment, cyclic_assignment
from repro.exec_models.termination import TERMINATE_TAG, TOKEN_TAG, TokenRing
from repro.runtime.comm import RankContext
from repro.simulate.engine import Resource
from repro.util import ConfigurationError, check_integer, check_positive, spawn_rng

#: Bytes of the lock word / queue metadata moved by protocol operations.
_LOCK_BYTES = 8
_META_BYTES = 16


class WorkStealing(ExecutionModel):
    """Random work stealing with lock-based remote deques.

    Args:
        initial: initial task distribution — ``"block"``, ``"cyclic"``, or
            an explicit ``(n_tasks,)`` rank per task (array or sequence),
            checked against the run at setup.
        steal: amount policy — ``"half"`` (ceil of half the victim's
            queue, TASCEL default) or ``"one"``.
        victim: victim selection — ``"random"`` or ``"ring"`` (cyclic scan
            starting after self).
        min_backoff / max_backoff: failed-steal exponential backoff bounds
            (simulated seconds).
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
        for key in (
            "steal_attempts",
            "steal_successes",
            "tasks_stolen",
            "failed_steals",
            "token_hops",
        ):
            harness.counters[key] = 0.0

    # ------------------------------------------------------------------
    def _pop_local(self, harness: Harness, ctx: RankContext):
        """Pop one task id from the rank's own queue head (or None)."""
        locks: list[Resource] = harness.model_state["locks"]
        queue: deque[int] = harness.model_state["queues"][ctx.rank]
        yield locks[ctx.rank].acquire()
        try:
            yield from ctx.overhead_delay(Harness.LOCAL_QUEUE_OP)
            tid = queue.popleft() if queue else None
        finally:
            locks[ctx.rank].release()
        return tid

    def _choose_victim(self, ctx: RankContext, rng: np.random.Generator, scan: int) -> int:
        n = ctx.machine.n_ranks
        if self.victim == "ring":
            return (ctx.rank + 1 + scan % (n - 1)) % n
        if self.victim == "hierarchical":
            # Two same-node attempts (cheap shared-memory steals), then
            # one remote attempt, repeating — locality-first stealing.
            peers = [r for r in ctx.machine.node_peers(ctx.rank) if r != ctx.rank]
            if peers and scan % 3 < 2:
                return int(peers[rng.integers(0, len(peers))])
        victim = int(rng.integers(0, n - 1))
        return victim if victim < ctx.rank else victim + 1

    def _attempt_steal(self, harness: Harness, ctx: RankContext, victim: int):
        """One steal attempt; returns number of tasks stolen (generator)."""
        locks: list[Resource] = harness.model_state["locks"]
        queues: list[deque[int]] = harness.model_state["queues"]
        ring: TokenRing = harness.model_state["ring"]
        harness.counters["steal_attempts"] += 1.0

        # Remote lock acquisition: one CAS round-trip, then wait if held.
        yield from ctx.protocol_get(victim, _LOCK_BYTES)
        yield locks[victim].acquire()
        try:
            # Queue metadata read.
            yield from ctx.protocol_get(victim, _META_BYTES)
            available = len(queues[victim])
            if available == 0:
                harness.counters["failed_steals"] += 1.0
                return 0
            if self.steal == "half":
                k = (available + 1) // 2
            elif self.steal == "one":
                k = 1
            else:
                # half_cost: take tail tasks until half the victim's
                # remaining modeled *cost* moves (cost-aware splitting; the
                # metadata read above covers the extra bookkeeping word).
                costs = harness.graph.costs
                total = sum(costs[tid] for tid in queues[victim])
                taken = 0.0
                k = 0
                for tid in reversed(queues[victim]):
                    if k > 0 and taken >= total / 2.0:
                        break
                    taken += costs[tid]
                    k += 1
                k = min(k, available)
            # Descriptor transfer; tasks move atomically at completion.
            yield from ctx.protocol_get(victim, k * Harness.TASK_DESCRIPTOR_BYTES)
            stolen = [queues[victim].pop() for _ in range(k)]
        finally:
            locks[victim].release()
        # Commit the transfer before the unlock write: the descriptors are
        # already local after the get above, and a thief or victim dying
        # under the unlock must not leave tasks outside every queue
        # (crash recovery only scans queues and in-flight lists).
        stolen.reverse()
        queues[ctx.rank].extend(stolen)
        ring.mark_dirty(ctx.rank)
        harness.counters["steal_successes"] += 1.0
        harness.counters["tasks_stolen"] += float(k)
        # Unlock write (after release so a waiting thief proceeds now).
        yield from ctx.protocol_put(victim, _LOCK_BYTES)
        return k

    # ------------------------------------------------------------------
    def rank_process(self, harness: Harness, ctx: RankContext):
        queues: list[deque[int]] = harness.model_state["queues"]
        locks: list[Resource] = harness.model_state["locks"]
        ring: TokenRing = harness.model_state["ring"]
        queue = queues[ctx.rank]
        n_ranks = harness.n_ranks
        rng = spawn_rng(harness.rank_seed(ctx.rank, "steal"))
        backoff = self.min_backoff
        scan = 0
        consecutive_failures = 0

        while True:
            # Drain the local queue: one request when the engine walks
            # the drain, which leaves the queue empty; else the loop.
            drain = harness.local_drain(ctx, queue, locks) if queue else None
            if drain is not None and (yield from drain):
                backoff = self.min_backoff
                consecutive_failures = 0
            while queue:
                tid = yield from self._pop_local(harness, ctx)
                if tid is None:
                    break
                yield from harness.execute_task(ctx, harness.graph.tasks[tid])
                backoff = self.min_backoff
                consecutive_failures = 0

            if n_ranks == 1:
                return

            # Idle: handle protocol messages.
            message = ctx.try_recv()
            if message is None and consecutive_failures >= self.park_after:
                # Park: the local neighbourhood looks drained, so wait for
                # the circulating token (or terminate) instead of burning
                # NIC time on hopeless steals. The wait is untraced: it
                # shows up as idle, which is what it is. One steal attempt
                # follows every token wake-up, so residual work elsewhere
                # is still reachable.
                message = yield from ctx.recv(traced=False)
            if message is not None:
                if message.tag == TERMINATE_TAG:
                    return
                if message.tag == TOKEN_TAG:
                    declared = yield from ring.handle_token(ctx, message.payload)
                    harness.counters["token_hops"] = float(ring.hops)
                    if declared:
                        return
            yield from ring.maybe_launch(ctx)
            harness.counters["token_hops"] = float(ring.hops)

            # Steal.
            victim = self._choose_victim(ctx, rng, scan)
            scan += 1
            got = yield from self._attempt_steal(harness, ctx, victim)
            if got:
                backoff = self.min_backoff
                consecutive_failures = 0
            else:
                consecutive_failures += 1
                yield from ctx.sleep(backoff)
                backoff = min(backoff * 2.0, self.max_backoff)
