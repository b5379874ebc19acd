"""The ``distributed`` suite: real TCP workers, real network failures.

:mod:`repro.chaos.host` disturbs the *forked* sweep backend; these rows
disturb the *distributed* one (:mod:`repro.parallel.fabric`) with the
failure modes only a network can produce, each against live
``python -m repro worker`` subprocesses on loopback TCP — and demand the
same verdict: every disturbed sweep's result rows must be **bit-for-bit
identical** to the fault-free serial reference.
"""

from __future__ import annotations

import contextlib
import functools
import json
import signal
import subprocess
import sys
import time
import warnings
from typing import Any, Callable, Iterator, Sequence

from repro.chaos.harness import (
    ChaosContext,
    ChaosPlan,
    _compare_rows,
    _interrupt_after,
    _verdict,
    chaos_execute_cell,
    child_env,
    scenario,
)
from repro.chaos.host import _corrupt_cache_entries
from repro.core.sweep import SweepCell, SweepRunner, execute_cell
from repro.parallel.executor import DegradedExecutionWarning
from repro.parallel.fabric import DistributedExecutor
from repro.parallel.worker import CHAOS_ENV


@contextlib.contextmanager
def fleet(
    n: int,
    *,
    env: dict[str, str] | None = None,
    reconnect_attempts: int = 10,
    **fabric_kwargs: Any,
) -> Iterator[tuple[DistributedExecutor, list[subprocess.Popen]]]:
    """A fabric server with ``n`` worker subprocesses attached to it.

    Yields ``(executor, workers)`` and owns both ends: on every exit
    path the server is closed first (workers are told to leave and see
    the hang-up), then every worker is reaped, killed if it lingers.
    """
    fabric_kwargs = {
        "lease": 15.0,
        "connect_timeout": 30.0,
        "degrade_after": 10.0,
        **fabric_kwargs,
    }
    executor = DistributedExecutor(**fabric_kwargs)
    workers: list[subprocess.Popen] = []
    try:
        host, port = executor.endpoint
        for i in range(n):
            workers.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--connect", f"{host}:{port}",
                        "--id", f"chaos-w{i}",
                        "--reconnect-attempts", str(reconnect_attempts),
                        "--reconnect-delay", "0.2",
                    ],
                    env=child_env(**(env or {})),
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
        yield executor, workers
    finally:
        executor.close()
        for proc in workers:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)


def _worker_chaos(ctx: ChaosContext, fault: str, label: str) -> dict[str, str]:
    """Worker env arming the ``REPRO_WORKER_CHAOS`` hook for one label."""
    return {CHAOS_ENV: json.dumps({"marker_dir": ctx.markers(), fault: [label]})}


def _disturbed_sweep(
    ctx: ChaosContext, executor: DistributedExecutor, **runner_kwargs: Any
) -> tuple[SweepRunner, list[Any]]:
    runner = SweepRunner(
        jobs=2,
        retry=ctx.retry,
        on_error="quarantine",
        executor=executor,
        **runner_kwargs,
    )
    return runner, runner.run_cells(ctx.cells)


def _slow_cell(delay: float, cell: SweepCell) -> Any:
    """A rate-limited :func:`execute_cell` (widens chaos timing windows).

    The sleep happens *before* the computation, so results are exactly
    what ``execute_cell`` produces.
    """
    time.sleep(delay)
    return execute_cell(cell)


def _run_with_dispatch_hook(
    runner: SweepRunner,
    cells: Sequence[SweepCell],
    on_dispatch: Callable[[int, int], None],
) -> list[Any]:
    """Run cells with a dispatch hook threaded through the executor."""
    executor = runner.executor
    original_run = executor.run

    def run_with_hook(fn, jobs, **kwargs):
        kwargs["on_dispatch"] = on_dispatch
        return original_run(fn, jobs, **kwargs)

    executor.run = run_with_hook  # type: ignore[method-assign]
    try:
        return runner.run_cells(cells)
    finally:
        executor.run = original_run  # type: ignore[method-assign]


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

@scenario("distributed", "distributed: remote worker SIGKILL mid-cell, bit-for-bit")
def remote_sigkill(ctx: ChaosContext) -> str:
    """The worker SIGKILLs itself inside a cell (the shared
    :class:`ChaosPlan` kill fault); the server sees the connection drop,
    requeues exactly that cell through the shared
    :class:`~repro.parallel.supervisor.AttemptLedger`, and the surviving
    worker finishes the sweep."""
    plan = ChaosPlan(marker_dir=ctx.markers(), kill=(ctx.labels[1],))
    with fleet(2, reconnect_attempts=0) as (ex, _workers):
        runner, disturbed = _disturbed_sweep(
            ctx, ex, cell_fn=functools.partial(chaos_execute_cell, plan)
        )
    problems = _compare_rows(ctx.reference, disturbed)
    stats = runner.supervisor_stats
    if stats.disconnects < 1:
        problems.append("no disconnect observed (SIGKILL not injected?)")
    if stats.crashes < 1:
        problems.append("worker death not counted as a crash")
    if stats.retries < 1:
        problems.append("killed cell was never requeued")
    return _verdict(
        problems,
        f"{stats.crashes} crash(es), {stats.disconnects} disconnect(s), "
        f"{stats.retries} requeue(s); rows identical",
    )


@scenario("distributed", "distributed: frozen worker past lease, late result deduped")
def lease_expiry_freeze(ctx: ChaosContext) -> str:
    """A cell sleeps well past the lease; the server revokes the lease and
    requeues, and the frozen worker's eventual late result is deduplicated
    idempotently."""
    lease = 1.0
    plan = ChaosPlan(
        marker_dir=ctx.markers(),
        hang=(ctx.labels[2],),
        hang_seconds=lease * 3.0,
    )
    with fleet(2, lease=lease) as (ex, _workers):
        runner, disturbed = _disturbed_sweep(
            ctx,
            ex,
            cell_fn=functools.partial(chaos_execute_cell, plan),
            timeout=lease,
        )
    problems = _compare_rows(ctx.reference, disturbed)
    stats = runner.supervisor_stats
    if stats.lease_expiries < 1:
        problems.append("no lease expiry observed (freeze not injected?)")
    return _verdict(
        problems,
        f"{stats.lease_expiries} lease expiry(ies), {stats.duplicates} "
        f"late duplicate(s) deduped; rows identical",
    )


@scenario("distributed", "distributed: socket severed mid-result-upload")
def severed_upload(ctx: ChaosContext) -> str:
    """The worker writes half a result frame and hard-closes the socket
    (the ``REPRO_WORKER_CHAOS`` hook); the server discards the torn upload,
    requeues, and the reconnected worker keeps serving."""
    with fleet(2, env=_worker_chaos(ctx, "sever", ctx.labels[0])) as (ex, _workers):
        runner, disturbed = _disturbed_sweep(ctx, ex)
    problems = _compare_rows(ctx.reference, disturbed)
    stats = runner.supervisor_stats
    if stats.disconnects < 1:
        problems.append("no disconnect observed (sever not injected?)")
    if stats.retries < 1:
        problems.append("torn-upload cell was never requeued")
    return _verdict(
        problems,
        f"torn upload dropped, {stats.retries} requeue(s), "
        f"{stats.disconnects} disconnect(s); rows identical",
    )


@scenario("distributed", "distributed: duplicate delivery deduped idempotently")
def duplicate_delivery(ctx: ChaosContext) -> str:
    """A worker pushes the same result frame twice; the second is dropped
    by dispatch-key dedupe, counted, and changes nothing."""
    # Duplicate an early cell so the sweep is still consuming events
    # when the second copy lands.
    with fleet(2, env=_worker_chaos(ctx, "dup", ctx.labels[0])) as (ex, _workers):
        runner, disturbed = _disturbed_sweep(ctx, ex)
    problems = _compare_rows(ctx.reference, disturbed)
    stats = runner.supervisor_stats
    if stats.duplicates < 1:
        problems.append("no duplicate observed (dup not injected?)")
    if stats.completed != len(ctx.cells):
        problems.append(
            f"completed {stats.completed} != {len(ctx.cells)} "
            "(duplicate was double-counted?)"
        )
    return _verdict(problems, f"{stats.duplicates} duplicate(s) deduped; rows identical")


@scenario("distributed", "distributed: full remote loss degrades to local pool")
def full_remote_loss(ctx: ChaosContext) -> str:
    """Every remote worker is SIGKILLed mid-sweep; the executor reroutes
    the unfinished cells to the fallback local pool after one structured
    :class:`~repro.parallel.DegradedExecutionWarning`."""
    with fleet(2, reconnect_attempts=0, degrade_after=1.0) as (ex, workers):
        killed = {"n": 0}

        def kill_all_after_first(_index: int, _pid: int) -> None:
            # First dispatches land, then the whole fleet dies: the
            # executor must reroute everything unfinished locally.
            if killed["n"] == 0:
                killed["n"] = 1
                for proc in workers:
                    proc.send_signal(signal.SIGKILL)

        runner = SweepRunner(
            jobs=2,
            retry=ctx.retry,
            on_error="quarantine",
            cell_fn=functools.partial(_slow_cell, 0.5),
            executor=ex,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            disturbed = _run_with_dispatch_hook(
                runner, ctx.cells, kill_all_after_first
            )
    problems = _compare_rows(ctx.reference, disturbed)
    stats = runner.supervisor_stats
    degradations = [
        w for w in caught if isinstance(w.message, DegradedExecutionWarning)
    ]
    if stats.degraded < 1:
        problems.append("no cells were rerouted to the local fallback")
    if not degradations:
        problems.append("no DegradedExecutionWarning emitted")
    elif degradations[0].message.backend != "distributed":
        problems.append(
            f"warning names backend {degradations[0].message.backend!r}"
        )
    return _verdict(
        problems,
        f"fleet killed, {stats.degraded} cell(s) rerouted locally with "
        f"a structured warning; rows identical",
    )


@scenario(
    "distributed", "distributed: killed worker + interrupt + cached rerun, 100% parity"
)
def kill_interrupt_resume(ctx: ChaosContext) -> str:
    """A cached distributed sweep loses a worker to SIGKILL *and* is
    interrupted, and one entry it settled is corrupted; a rerun on a
    fresh fabric serves every other settled cell as ``cached``,
    recomputes the corrupt one and the rest, with 100% row parity."""
    cells = ctx.cells
    cache = ctx.workdir / "cache"
    plan = ChaosPlan(marker_dir=ctx.markers(), kill=(ctx.labels[1],))
    interrupted = False
    with fleet(2, reconnect_attempts=0) as (ex, _workers):
        first = SweepRunner(
            jobs=2,
            cache=cache,
            retry=ctx.retry,
            on_error="quarantine",
            cell_fn=functools.partial(chaos_execute_cell, plan),
            executor=ex,
            progress=_interrupt_after(max(2, len(cells) // 2)),
        )
        try:
            first.run_cells(cells)
        except KeyboardInterrupt:
            interrupted = True
    if not interrupted:
        raise AssertionError("sweep was not interrupted")
    settled = [c for c, how in zip(cells, first.last_provenance) if how == "fresh"]
    if len(settled) < 2:
        raise AssertionError(f"only {len(settled)} cell(s) cached before the interrupt")
    if _corrupt_cache_entries(first.cache, [first.cell_key(settled[-1])]) != 1:
        raise AssertionError("the last settled cell has no cache entry")

    # A fresh fabric + fresh workers, as a restarted driver would.
    with fleet(2) as (ex2, _workers):
        second, rerun = _disturbed_sweep(ctx, ex2, cache=cache)
    problems = _compare_rows(ctx.reference, rerun)
    if second.stats.cached != len(settled) - 1:
        problems.append(
            f"cache hits {second.stats.cached}, expected {len(settled) - 1}"
        )
    if second.cache.stats.errors != 1:
        problems.append(
            f"cache detected {second.cache.stats.errors} corruptions, expected 1"
        )
    if second.stats.cached + second.stats.computed != len(cells):
        problems.append("row count does not add up to the full grid")
    return _verdict(
        problems,
        f"worker killed + interrupt after {len(settled)}, "
        f"{second.stats.cached} cached, 1 corrupt entry healed, recomputed "
        f"{second.stats.computed}; 100% row parity",
    )
