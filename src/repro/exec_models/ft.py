"""Fault-tolerant execution-model variants (experiment E16).

Two variants bracket the paper's dependability contrast:

- :class:`FaultTolerantWorkStealing` — the RMA work-stealing model plus
  the three mechanisms that make crash recovery possible: a shared
  failure detector, orphan-task adoption (queued *and* in-flight tasks of
  a crashed rank are replayed by survivors — tasks are idempotent, so
  replay is safe), and the healing token ring of
  :class:`~repro.exec_models.termination.FaultTolerantTokenRing`. Under a
  crash it still finishes **every** task; the price shows up as FAILED
  time, retries, and recovery steals.
- :class:`FaultTolerantStatic` — the static baseline plus *detection
  only*. It cannot recover: the schedule is fixed before execution, so a
  crashed rank's tasks are simply lost and tasks touching its data are
  abandoned after the fail-fast timeout. The run completes degraded
  (``completion_rate < 1``). That asymmetry — not the raw makespans — is
  E16's result.

Both variants delegate to their plain base class when no fault plan is
armed, so zero-fault runs are bit-for-bit identical to the baseline.
"""

from __future__ import annotations

import numpy as np

from repro.exec_models.base import Harness
from repro.exec_models.static_ import StaticBlock
from repro.exec_models.termination import (
    TERMINATE_TAG,
    TOKEN_TAG,
    FaultTolerantTokenRing,
)
from repro.exec_models.work_stealing import WorkStealing
from repro.faults import RetryPolicy, with_retries
from repro.runtime.comm import RankContext
from repro.util import RankFailedError, spawn_rng


class FaultTolerantWorkStealing(WorkStealing):
    """Work stealing that detects crashes and replays orphaned tasks.

    Args:
        retry: backoff policy for replaying a task whose data touches a
            dead rank (default allows enough attempts to ride out two
            cascaded owner failures).
        token_timeout: silent period after which the lowest live rank
            reissues the termination token (simulated seconds).
        **kwargs: forwarded to :class:`WorkStealing` (initial, steal,
            victim, backoff bounds, park_after).
    """

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        token_timeout: float = 1.0e-3,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=5)
        self.token_timeout = float(token_timeout)
        self.name = "ft_work_stealing"

    # ------------------------------------------------------------------
    def setup(self, harness: Harness) -> None:
        super().setup(harness)
        if harness.injector is None:
            return
        queues = harness.model_state["queues"]
        in_flight: list[list[int]] = [[] for _ in range(harness.n_ranks)]
        harness.model_state["in_flight"] = in_flight
        #: Ranks whose orphans have been adopted (exactly-once recovery).
        harness.model_state["recovered"] = set()

        def work_remains() -> bool:
            # The replay barrier: any queued task anywhere, or any task
            # still marked in flight (a crashed rank's in-flight entries
            # persist until adopted), blocks termination.
            return any(queues) or any(in_flight)

        harness.model_state["ring"] = FaultTolerantTokenRing(
            harness.n_ranks,
            harness.detector,
            work_remains=work_remains,
            token_timeout=self.token_timeout,
        )
        harness.enable_data_failover()
        for key in (
            "failed_contacts",
            "ranks_recovered",
            "tasks_recovered",
            "token_regenerations",
        ):
            harness.counters[key] = 0.0

    # ------------------------------------------------------------------
    def _execute_with_replay(
        self, harness: Harness, ctx: RankContext, tid: int, rng: np.random.Generator
    ):
        """Run one task, retrying through owner failures (generator)."""
        detector = harness.detector
        task = harness.graph.tasks[tid]

        def on_failure(rank: int) -> None:
            # Report makes the death visible everywhere; the data-failover
            # hook then redirects the retry to the replica holder.
            detector.report(rank)
            harness.counters["failed_contacts"] += 1.0

        yield from with_retries(
            ctx,
            lambda: harness.execute_task(ctx, task),
            self.retry,
            rng,
            on_failure=on_failure,
        )

    def _recover_orphans(self, harness: Harness, ctx: RankContext):
        """Adopt queued + in-flight tasks of newly suspected ranks.

        Adoption is atomic (no yields) and happens *before* the modeled
        protocol costs are paid: if this rank dies mid-recovery the
        orphans already sit in its queue, where the next survivor finds
        them. Returns the number of tasks adopted (generator).
        """
        detector = harness.detector
        queues = harness.model_state["queues"]
        in_flight = harness.model_state["in_flight"]
        recovered: set[int] = harness.model_state["recovered"]
        ring: FaultTolerantTokenRing = harness.model_state["ring"]
        adopted = 0
        for dead in sorted(detector.suspects()):
            if dead in recovered:
                continue
            recovered.add(dead)
            moved = 0
            while queues[dead]:
                queues[ctx.rank].append(queues[dead].popleft())
                moved += 1
            while in_flight[dead]:
                queues[ctx.rank].append(in_flight[dead].pop())
                moved += 1
            if moved:
                ring.mark_dirty(ctx.rank)
            adopted += moved
            harness.counters["ranks_recovered"] += 1.0
            harness.counters["tasks_recovered"] += float(moved)
            # Pay for re-reading the dead rank's scheduler state from the
            # replica holder: queue metadata plus the orphan descriptors.
            replica = harness.next_alive((dead + 1) % harness.n_ranks)
            yield from ctx.protocol_get(replica, Harness.QUEUE_META_BYTES)
            if moved:
                yield from ctx.protocol_get(
                    replica, moved * Harness.TASK_DESCRIPTOR_BYTES
                )
        return adopted

    def _choose_live_victim(
        self, ctx: RankContext, detector, rng: np.random.Generator, scan: int
    ) -> int | None:
        """A victim not currently suspected dead (None if none exists)."""
        n = ctx.machine.n_ranks
        for offset in range(n):
            victim = self._choose_victim(ctx, rng, scan + offset)
            if not detector.is_suspected(victim):
                return victim
        return None

    # ------------------------------------------------------------------
    def rank_process(self, harness: Harness, ctx: RankContext):
        if harness.injector is None:
            # Zero-fault runs take the plain path, bit for bit.
            yield from super().rank_process(harness, ctx)
            return
        queues = harness.model_state["queues"]
        ring: FaultTolerantTokenRing = harness.model_state["ring"]
        in_flight = harness.model_state["in_flight"]
        detector = harness.detector
        queue = queues[ctx.rank]
        mine = in_flight[ctx.rank]
        n_ranks = harness.n_ranks
        rng = spawn_rng(harness.rank_seed(ctx.rank, "steal"))
        retry_rng = spawn_rng(harness.rank_seed(ctx.rank, "retry"))
        heartbeat = detector.detection_latency
        backoff = self.min_backoff
        scan = 0
        consecutive_failures = 0

        while True:
            # Drain the local queue; track in-flight so a crash mid-task
            # leaves a replayable record.
            while queue:
                tid = yield from self._pop_local(harness, ctx)
                if tid is None:
                    break
                mine.append(tid)
                yield from self._execute_with_replay(harness, ctx, tid, retry_rng)
                mine.remove(tid)
                backoff = self.min_backoff
                consecutive_failures = 0

            if n_ranks == 1:
                return

            # Adopt orphans of any newly suspected rank.
            adopted = yield from self._recover_orphans(harness, ctx)
            if adopted:
                backoff = self.min_backoff
                consecutive_failures = 0
                continue

            message = ctx.try_recv()
            if message is None and consecutive_failures >= self.park_after:
                # Park, but wake every heartbeat: a token or terminate
                # lost to message faults (or a dying holder) must not
                # strand a parked rank.
                message = yield from ctx.recv(traced=False, timeout=heartbeat)
                if message is None:
                    if ring.terminated:
                        return
                    yield from ring.maybe_regenerate(ctx)
                    harness.counters["token_regenerations"] = float(
                        ring.regenerations
                    )
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

            victim = self._choose_live_victim(ctx, detector, rng, scan)
            scan += 1
            got = 0
            if victim is not None:
                try:
                    got = yield from self._attempt_steal(harness, ctx, victim)
                except RankFailedError as err:
                    # Victim died between selection and contact: the
                    # failed CAS is itself the detection.
                    detector.report(err.rank)
                    harness.counters["failed_contacts"] += 1.0
                    harness.counters["failed_steals"] += 1.0
            if got:
                backoff = self.min_backoff
                consecutive_failures = 0
            else:
                consecutive_failures += 1
                yield from ctx.sleep(backoff)
                backoff = min(backoff * 2.0, self.max_backoff)


class FaultTolerantStatic(StaticBlock):
    """Static block schedule with failure detection but no recovery.

    The honest fault-tolerant ceiling of a static execution model: it
    notices failures (fail-fast RMA timeouts) and keeps going, but the
    pre-computed schedule leaves it nothing to recover *with* — a crashed
    rank's tasks are lost and tasks touching its data are abandoned after
    one failed contact. Runs complete with ``completion_rate < 1``.
    """

    def __init__(self) -> None:
        super().__init__()
        self.name = "ft_static_block"

    def setup(self, harness: Harness) -> None:
        super().setup(harness)
        if harness.injector is not None:
            harness.counters["detected_failures"] = 0.0
            harness.counters["tasks_abandoned"] = 0.0

    def rank_process(self, harness: Harness, ctx: RankContext):
        if harness.injector is None:
            yield from super().rank_process(harness, ctx)
            return
        detector = harness.detector
        for tid in harness.model_state["task_lists"][ctx.rank]:
            try:
                yield from harness.execute_task(ctx, harness.graph.tasks[tid])
            except RankFailedError as err:
                detector.report(err.rank)
                harness.counters["detected_failures"] += 1.0
                harness.counters["tasks_abandoned"] += 1.0
