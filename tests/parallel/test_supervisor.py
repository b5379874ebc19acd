"""The local backend under the supervision loop: crash recovery,
timeouts, retry, quarantine."""

import os
import signal
import threading
import time

import pytest

from repro.faults import RetryPolicy
from repro.parallel import (
    CellFailure,
    LocalExecutor,
    SupervisorStats,
    WorkerError,
)
from repro.util import ConfigurationError

#: Fast retries so failure-path tests don't sleep human-scale backoffs.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.0)


def square(x):
    return x * x


def _first_attempt(marker: str) -> bool:
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def crash_once(job):
    """SIGKILL our own worker process on the first attempt of job[0]."""
    value, marker = job
    if value == 0 and _first_attempt(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def hang_once(job):
    """Sleep far past the pool timeout on the first attempt of job[0]."""
    value, marker = job
    if value == 0 and _first_attempt(marker):
        time.sleep(60.0)
    return value * 10


def hang_always(job):
    """The last job sleeps far past the pool timeout on every attempt."""
    value, last = job
    if value == last:
        time.sleep(60.0)
    return value * 10


def poison(job):
    value = job[0] if isinstance(job, tuple) else job
    if value == 2:
        raise ValueError(f"poison {value}")
    return value * 10


def bad_config(job):
    if job == 1:
        raise ConfigurationError("unusable cell")
    return job


def flaky_then_ok(job):
    value, marker = job
    if _first_attempt(marker):
        raise RuntimeError("transient")
    return value + 100


def behind_lock(job):
    """A job that cannot pickle: its value sits behind a lock. With a
    marker, the first attempt of job 0 SIGKILLs its worker."""
    value, lock, marker = job
    if value == 0 and marker and _first_attempt(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    with lock:
        return value * 10


def collect(iterator, n):
    """Materialize (index, outcome) pairs into a results list."""
    results = [None] * n
    for index, outcome in iterator:
        results[index] = outcome
    return results


class TestSupervisedImapParallel:
    """``LocalExecutor.run`` on forked workers (``n_workers > 1``)."""

    def test_matches_serial(self):
        jobs = list(range(8))
        got = collect(LocalExecutor().run(square, jobs, n_workers=4), len(jobs))
        assert got == [square(x) for x in jobs]

    @pytest.mark.parametrize("respawn", [False, True], ids=["forked", "respawned"])
    def test_the_pipe_carries_an_index(self, respawn, tmp_path):
        """Workers are forked once the batch exists and read their jobs
        from inherited memory, so a job need not pickle — also on a
        worker forked again after a SIGKILL."""
        marker = str(tmp_path / "kill") if respawn else ""
        jobs = [(i, threading.Lock(), marker) for i in range(6)]
        stats = SupervisorStats()
        got = collect(
            LocalExecutor().run(
                behind_lock, jobs, n_workers=2, retry=FAST_RETRY, stats=stats
            ),
            len(jobs),
        )
        serial = collect(LocalExecutor().run(behind_lock, jobs, n_workers=1), len(jobs))
        assert got == serial == [i * 10 for i in range(6)]
        assert stats.crashes == int(respawn)

    def test_worker_sigkill_recovered(self, tmp_path):
        jobs = [(i, str(tmp_path / "kill")) for i in range(6)]
        stats = SupervisorStats()
        got = collect(
            LocalExecutor().run(
                crash_once, jobs, n_workers=3, retry=FAST_RETRY, stats=stats
            ),
            len(jobs),
        )
        assert got == [i * 10 for i in range(6)]
        assert stats.crashes >= 1
        assert stats.retries >= 1
        assert stats.respawns > 3  # initial forks plus the replacement

    def test_hung_job_times_out_and_retries(self, tmp_path):
        jobs = [(i, str(tmp_path / "hang")) for i in range(4)]
        stats = SupervisorStats()
        start = time.monotonic()
        got = collect(
            LocalExecutor().run(
                hang_once,
                jobs,
                n_workers=2,
                timeout=1.0,
                retry=FAST_RETRY,
                stats=stats,
            ),
            len(jobs),
        )
        elapsed = time.monotonic() - start
        assert got == [i * 10 for i in range(4)]
        assert stats.timeouts >= 1
        assert elapsed < 30.0  # the 60s sleep was cut short by the kill

    @pytest.mark.parametrize("n_jobs", [2, 3])
    @pytest.mark.parametrize("with_deadline", [False, True])
    def test_last_job_overruns_every_attempt(self, n_jobs, with_deadline):
        # The batch ends inside the budget check, with nothing left to
        # wait for: it must return then, not sleep until the deadline.
        jobs = [(i, n_jobs - 1) for i in range(n_jobs)]
        stats = SupervisorStats()
        start = time.monotonic()
        got = collect(
            LocalExecutor().run(
                hang_always,
                jobs,
                n_workers=2,
                timeout=0.3,
                retry=RetryPolicy(2, base_delay=0.01, max_delay=0.05, jitter=0.0),
                stats=stats,
                deadline=start + 30.0 if with_deadline else None,
            ),
            n_jobs,
        )
        elapsed = time.monotonic() - start
        assert got[:-1] == [i * 10 for i in range(n_jobs - 1)]
        assert isinstance(got[-1], CellFailure)
        assert got[-1].error_type == "CellTimeout"
        assert got[-1].attempts == 2
        assert stats.timeouts == 2 and stats.quarantined == 1
        assert elapsed < 10.0

    def test_poison_job_quarantined(self):
        jobs = list(range(5))
        stats = SupervisorStats()
        got = collect(
            LocalExecutor().run(
                poison,
                jobs,
                n_workers=2,
                retry=FAST_RETRY,
                on_error="quarantine",
                labels=[f"cell-{i}" for i in jobs],
                stats=stats,
            ),
            len(jobs),
        )
        failure = got[2]
        assert isinstance(failure, CellFailure)
        assert failure.label == "cell-2"
        assert failure.attempts == FAST_RETRY.max_attempts
        assert failure.error_type == "ValueError"
        assert "poison" in failure.message
        assert [g for i, g in enumerate(got) if i != 2] == [0, 10, 30, 40]
        assert stats.quarantined == 1

    def test_poison_job_raises_worker_error(self):
        with pytest.raises(WorkerError) as excinfo:
            collect(
                LocalExecutor().run(
                    poison,
                    list(range(4)),
                    n_workers=2,
                    retry=FAST_RETRY,
                    on_error="raise",
                    labels=["a", "b", "c", "d"],
                ),
                4,
            )
        assert excinfo.value.label == "c"
        assert excinfo.value.index == 2
        assert "3 attempt(s)" in str(excinfo.value)

    def test_non_retryable_raises_immediately(self):
        stats = SupervisorStats()
        with pytest.raises(WorkerError) as excinfo:
            collect(
                LocalExecutor().run(
                    bad_config,
                    [0, 1, 2],
                    n_workers=2,
                    retry=FAST_RETRY,
                    on_error="quarantine",
                    stats=stats,
                ),
                3,
            )
        assert excinfo.value.error_type == "ConfigurationError"
        assert stats.retries == 0  # never retried, never quarantined

    def test_transient_errors_retried(self, tmp_path):
        jobs = [(i, str(tmp_path / f"flake-{i}")) for i in range(4)]
        stats = SupervisorStats()
        got = collect(
            LocalExecutor().run(
                flaky_then_ok, jobs, n_workers=2, retry=FAST_RETRY, stats=stats
            ),
            len(jobs),
        )
        assert got == [100, 101, 102, 103]
        assert stats.retries == 4  # every job failed exactly once

    def test_on_dispatch_reports_worker_pids(self):
        seen = []
        collect(
            LocalExecutor().run(
                square,
                list(range(6)),
                n_workers=2,
                on_dispatch=lambda index, pid: seen.append((index, pid)),
            ),
            6,
        )
        assert sorted(index for index, _ in seen) == list(range(6))
        assert all(pid != os.getpid() for _, pid in seen)


class TestSerialFallback:
    def test_single_worker_is_serial(self):
        got = collect(LocalExecutor().run(square, [1, 2, 3], n_workers=1), 3)
        assert got == [1, 4, 9]

    def test_serial_retry_and_quarantine(self):
        got = collect(
            LocalExecutor().run(
                poison,
                list(range(4)),
                n_workers=1,
                retry=FAST_RETRY,
                on_error="quarantine",
            ),
            4,
        )
        assert isinstance(got[2], CellFailure)
        assert got[2].attempts == FAST_RETRY.max_attempts
        assert got[2].traceback_text  # serial path captures the traceback

    def test_serial_raise_mode_raises_original(self):
        with pytest.raises(ValueError, match="poison"):
            collect(
                LocalExecutor().run(
                    poison, list(range(4)), n_workers=1,
                    retry=FAST_RETRY, on_error="raise",
                ),
                4,
            )

    def test_serial_configuration_error_propagates(self):
        with pytest.raises(ConfigurationError):
            collect(
                LocalExecutor().run(
                    bad_config, [0, 1], n_workers=1, retry=FAST_RETRY
                ),
                2,
            )


class TestSupervisedPoolValidation:
    def test_bad_on_error_rejected(self):
        stats = SupervisorStats()
        with pytest.raises(ConfigurationError):
            collect(
                LocalExecutor().run(
                    square, [1, 2], n_workers=2, on_error="explode", stats=stats
                ),
                2,
            )
        assert stats.respawns == 0  # rejected before any worker was forked

    def test_bad_timeout_rejected(self):
        with pytest.raises(ConfigurationError):
            collect(LocalExecutor().run(square, [1, 2], n_workers=2, timeout=0.0), 2)

    def test_cell_failure_str(self):
        failure = CellFailure(
            index=3, label="ws@P=8", attempts=3,
            error_type="ValueError", message="boom",
        )
        text = str(failure)
        assert "ws@P=8" in text and "ValueError" in text and "3 attempt(s)" in text


class TestHostRetryPolicy:
    def test_jitter_pinned_nonzero(self):
        # Deterministic *seeded* jitter, not zero: simultaneous requeues
        # (one dead worker's whole batch) must not retry in lockstep
        # against the shared cache/journal.
        from repro.parallel.supervisor import HOST_RETRY_POLICY

        assert HOST_RETRY_POLICY.jitter == 0.25
        assert HOST_RETRY_POLICY.max_attempts == 3

    def test_backoff_deterministic_across_ledgers(self):
        # Two fresh ledgers draw identical jitter streams (seeded RNG),
        # so a resumed sweep reproduces the original backoff schedule.
        from repro.parallel.supervisor import HOST_RETRY_POLICY, AttemptLedger

        a, b = AttemptLedger(), AttemptLedger()
        delays_a = [HOST_RETRY_POLICY.delay(i, a.rng) for i in range(6)]
        delays_b = [HOST_RETRY_POLICY.delay(i, b.rng) for i in range(6)]
        assert delays_a == delays_b
        # Jitter is applied: each delay sits strictly inside (d, d*1.25].
        for attempt, delay in enumerate(delays_a):
            base = min(
                HOST_RETRY_POLICY.base_delay * 2.0**attempt,
                HOST_RETRY_POLICY.max_delay,
            )
            assert base < delay <= base * 1.25


def sleep_if_odd(job):
    """Odd jobs sleep far past any test deadline; even jobs are instant."""
    if job % 2:
        time.sleep(60.0)
    return job * 10


def brief_sleep(job):
    time.sleep(0.2)
    return job * 10


class TestJobDeadline:
    def test_parallel_deadline_kills_unfinished_cells(self):
        stats = SupervisorStats()
        start = time.monotonic()
        got = collect(
            LocalExecutor().run(
                sleep_if_odd,
                list(range(4)),
                n_workers=2,
                retry=FAST_RETRY,
                deadline=time.monotonic() + 1.5,
                stats=stats,
            ),
            4,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # the 60s sleepers were killed, not waited for
        assert got[0] == 0 and got[2] == 20  # fast cells settled normally
        for index in (1, 3):
            failure = got[index]
            assert isinstance(failure, CellFailure)
            assert failure.error_type == "DeadlineExceeded"
            assert "deadline" in failure.message
        assert stats.quarantined == 2

    def test_parallel_deadline_raise_mode(self):
        with pytest.raises(WorkerError) as excinfo:
            collect(
                LocalExecutor().run(
                    sleep_if_odd,
                    [1, 3],
                    n_workers=2,
                    retry=FAST_RETRY,
                    on_error="raise",
                    deadline=time.monotonic() + 0.5,
                ),
                2,
            )
        assert excinfo.value.error_type == "DeadlineExceeded"

    def test_serial_deadline_checked_between_cells(self):
        got = collect(
            LocalExecutor().run(
                brief_sleep,
                list(range(4)),
                n_workers=1,
                retry=FAST_RETRY,
                deadline=time.monotonic() + 0.3,
            ),
            4,
        )
        assert got[0] == 0  # already running when the deadline passed
        late = [g for g in got[1:] if isinstance(g, CellFailure)]
        assert late, "no cell expired on the serial deadline"
        assert all(f.error_type == "DeadlineExceeded" for f in late)

    def test_expired_deadline_settles_everything_immediately(self):
        start = time.monotonic()
        got = collect(
            LocalExecutor().run(
                sleep_if_odd,
                [1, 3, 5],
                n_workers=2,
                retry=FAST_RETRY,
                deadline=time.monotonic() - 1.0,
            ),
            3,
        )
        assert time.monotonic() - start < 10.0
        assert all(
            isinstance(g, CellFailure) and g.error_type == "DeadlineExceeded"
            for g in got
        )


class TestDegradationWarning:
    def test_forkless_platform_warns_once(self, monkeypatch):
        from repro.parallel import executor

        reason = "no 'fork' start method on this platform (test)"
        monkeypatch.setattr(executor, "serial_fallback_reason", lambda: reason)
        monkeypatch.setattr(executor, "_WARNED_DEGRADATIONS", set())
        import warnings as warnings_mod

        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            got = collect(LocalExecutor().run(square, [1, 2, 3], n_workers=2), 3)
            # Second batch on the same degraded platform: no new warning.
            collect(LocalExecutor().run(square, [4, 5], n_workers=2), 2)
        assert got == [1, 4, 9]
        degradations = [
            w.message
            for w in caught
            if isinstance(w.message, executor.DegradedExecutionWarning)
        ]
        assert len(degradations) == 1
        assert degradations[0].backend == "local"
        assert degradations[0].reason == reason
