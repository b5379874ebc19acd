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

from functools import partial

import numpy as np

from repro.exec_models.base import Harness
from repro.exec_models.static_ import StaticBlock
from repro.exec_models.termination import FaultTolerantTokenRing
from repro.exec_models.work_stealing import WorkStealing
from repro.faults import RetryPolicy, with_retries
from repro.runtime.comm import RankContext
from repro.util import ConfigurationError, RankFailedError, check_positive, spawn_rng


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
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ConfigurationError(f"retry must be a RetryPolicy, got {retry!r}")
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=5)
        self.token_timeout = float(check_positive("token_timeout", token_timeout))
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
    def _report(self, harness: Harness, rank: int) -> None:
        """A contact with ``rank`` failed: report makes the death visible
        everywhere; the data-failover hook then redirects a retry to the
        replica holder."""
        harness.detector.report(rank)
        harness.counters["failed_contacts"] += 1.0

    def _execute_with_replay(self, harness: Harness, ctx: RankContext, in_flight, rng, tid):
        """Run one task, retrying through owner failures (generator). It is
        in ``in_flight`` meanwhile, so a crash mid-task leaves a
        replayable record."""
        task = harness.graph.tasks[tid]
        in_flight.append(tid)
        yield from with_retries(
            ctx,
            lambda: harness.execute_task(ctx, task),
            self.retry,
            rng,
            on_failure=partial(self._report, harness),
        )
        in_flight.remove(tid)

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

    def _attempt_steal(self, harness: Harness, ctx: RankContext, victim: int, *args):
        try:
            return (yield from super()._attempt_steal(harness, ctx, victim, *args))
        except RankFailedError as err:
            # Victim died between selection and contact: the failed CAS
            # is itself the detection.
            self._report(harness, err.rank)
            harness.counters["failed_steals"] += 1.0
            return 0

    def _choose_live_victim(
        self, ctx: RankContext, detector, rng: np.random.Generator, scan: int
    ) -> int | None:
        """A victim not currently suspected dead (None if none exists)."""
        n = ctx.machine.n_ranks
        for offset in range(n):
            victim = self._choose_victim(ctx, rng, None, scan + offset)
            if not detector.is_suspected(victim):
                return victim
        return None

    def _regenerate(self, harness: Harness, ctx: RankContext, ring: FaultTolerantTokenRing):
        """A parked rank's heartbeat passed with no message: a token or
        terminate lost to message faults (or a dying holder) must not
        strand it. Returns whether the run is over (generator)."""
        if ring.terminated:
            return True
        yield from ring.maybe_regenerate(ctx)
        harness.counters["token_regenerations"] = float(ring.regenerations)
        harness.counters["token_hops"] = float(ring.hops)
        return False

    # ------------------------------------------------------------------
    def rank_process(self, harness: Harness, ctx: RankContext):
        if harness.injector is None:
            # Zero-fault runs take the plain path, bit for bit.
            return super().rank_process(harness, ctx)
        state = harness.model_state
        ring: FaultTolerantTokenRing = state["ring"]
        rng = spawn_rng(harness.rank_seed(ctx.rank, "steal"))
        retry_rng = spawn_rng(harness.rank_seed(ctx.rank, "retry"))
        in_flight = state["in_flight"][ctx.rank]
        return self._steal_loop(
            harness, ctx, state["queues"], state["locks"], ring, rng,
            choose=partial(self._choose_live_victim, ctx, harness.detector, rng),
            heartbeat=harness.detector.detection_latency,
            on_silence=partial(self._regenerate, harness, ctx, ring),
            run_task=partial(self._execute_with_replay, harness, ctx, in_flight, retry_rng),
            recover=partial(self._recover_orphans, harness, ctx),
        )  # fmt: skip


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
