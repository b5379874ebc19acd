"""One supervision loop, three transports: the policy is the same on all.

Every test here runs through the ``CellExecutor`` surface of the
``serial``, ``local`` (2 forked workers) and ``distributed`` (two
``run_worker`` threads on loopback TCP) backends and demands identical
accounting and failure shapes — each only builds a transport for
``CellExecutor.run`` to hand :func:`repro.parallel.supervisor.supervise`,
so anything else is a bug in a transport. The loop's own duplicate
handling is pinned against a scripted transport at the end.
"""

import contextlib
import os
import threading
import time

import pytest

from repro.faults import RetryPolicy
from repro.parallel import (
    CellExecutor,
    CellFailure,
    DistributedExecutor,
    SupervisorStats,
    WorkerError,
    make_executor,
    run_worker,
)
from repro.parallel.executor import EXECUTOR_BACKENDS
from repro.parallel.supervisor import Event, InProcessTransport, Transport, supervise
from repro.util import ConfigurationError

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.0)

BACKENDS = ("serial", "local", "distributed")


@contextlib.contextmanager
def backend(name):
    """The named executor, with two attached workers if it needs them."""
    if name != "distributed":
        yield make_executor(name)
        return
    executor = DistributedExecutor(connect_timeout=20.0, degrade_after=20.0)
    host, port = executor.endpoint
    for i in range(2):
        threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs=dict(worker_id=f"b{i}", reconnect_attempts=0),
            daemon=True,
        ).start()
    try:
        yield executor
    finally:
        executor.close()


def run(executor, fn, jobs, **kwargs):
    results = [None] * len(jobs)
    for index, outcome in executor.run(
        fn, jobs, n_workers=2, retry=FAST_RETRY, **kwargs
    ):
        results[index] = outcome
    return results


def flaky_or_poison(job):
    """Job 2 always raises; odd jobs raise on their first attempt only."""
    value, marker_dir = job
    if value == 2:
        raise ValueError("poison")
    if value % 2:
        try:
            os.close(os.open(f"{marker_dir}/{value}", os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            raise RuntimeError("transient")
    return value * 10


def nap_if_odd(job):
    if job % 2:
        time.sleep(2.0)
    return job * 10


@pytest.mark.parametrize("name", BACKENDS)
def test_stats_agree_across_backends(name, tmp_path):
    jobs = [(value, str(tmp_path)) for value in range(5)]
    stats = SupervisorStats()
    with backend(name) as executor:
        got = run(executor, flaky_or_poison, jobs, stats=stats)
    assert [g for i, g in enumerate(got) if i != 2] == [0, 10, 30, 40]
    assert isinstance(got[2], CellFailure) and got[2].attempts == 3
    # 1 and 3 are retried once each, the poison job twice before it is
    # given up on: the same ledger, so the same counts, on every backend.
    assert (stats.completed, stats.retries, stats.quarantined) == (4, 4, 1)


class Inline(CellExecutor):
    """A backend that only says which transport a batch runs over."""

    name = "inline"

    def transport(self, fn, jobs, n_workers, timeout, stats):
        return InProcessTransport(fn, stats), None


def test_a_backend_is_only_a_transport(tmp_path):
    jobs = [(value, str(tmp_path)) for value in range(5)]
    stats = SupervisorStats()
    got = run(Inline(), flaky_or_poison, jobs, stats=stats)
    assert [g for i, g in enumerate(got) if i != 2] == [0, 10, 30, 40]
    assert isinstance(got[2], CellFailure) and got[2].attempts == 3
    assert (stats.completed, stats.retries, stats.quarantined) == (4, 4, 1)


#: Arguments every backend refuses, the same way.
BAD_ARGUMENTS = {
    "timeout=0": {"timeout": 0},
    "timeout=-1": {"timeout": -1},
    "timeout=nan": {"timeout": float("nan")},
    "n_workers=0": {"n_workers": 0},
    "n_workers=2.7": {"n_workers": 2.7},
    "on_error=explode": {"on_error": "explode"},
}


@pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
@pytest.mark.parametrize("name", sorted(EXECUTOR_BACKENDS))
def test_bad_arguments_refused_before_a_transport_exists(name, case, monkeypatch):
    """Refused before any worker is forked or leased: the backend is
    never asked for a transport (so ``distributed`` needs no worker)."""
    executor = make_executor(name)
    monkeypatch.setattr(
        executor, "transport", lambda *args: pytest.fail("a transport was built")
    )
    kwargs = {"n_workers": 2, **BAD_ARGUMENTS[case]}
    try:
        with pytest.raises(ConfigurationError):
            next(executor.run(nap_if_odd, [0, 2, 4], **kwargs))
    finally:
        if isinstance(executor, DistributedExecutor):
            executor.close()


@pytest.mark.parametrize("name", BACKENDS)
def test_deadline_failure_has_one_shape(name):
    labels = [f"cell-{i}" for i in range(3)]
    stats = SupervisorStats()
    with backend(name) as executor:
        got = run(
            executor, nap_if_odd, [0, 1, 2], labels=labels, stats=stats,
            deadline=time.monotonic() - 1.0,
        )
        with pytest.raises(WorkerError) as excinfo:
            run(
                executor, nap_if_odd, [0, 1, 2], labels=labels,
                on_error="raise", deadline=time.monotonic() - 1.0,
            )
    assert got == [
        CellFailure(
            index=i,
            label=labels[i],
            attempts=1,
            error_type="DeadlineExceeded",
            message="job deadline reached before this cell settled",
        )
        for i in range(3)
    ]
    assert stats.quarantined == 3
    assert excinfo.value.error_type == "DeadlineExceeded"
    assert excinfo.value.label == "cell-0"


def test_fabric_deadline_settles_at_the_deadline():
    # Both workers end up napping (2 s) inside an odd cell when the 0.5 s
    # deadline passes: the batch must settle then — leases revoked, the
    # rest DeadlineExceeded — not when a napping cell next completes.
    stats = SupervisorStats()
    with backend("distributed") as executor:
        start = time.monotonic()
        got = run(
            executor, nap_if_odd, [0, 1, 2, 3, 5], stats=stats,
            deadline=start + 0.5,
        )
        elapsed = time.monotonic() - start
    assert elapsed < 1.5
    assert got[0] == 0 and got[2] == 20
    for failure in (got[1], got[3], got[4]):
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "DeadlineExceeded"
    assert stats.lease_expiries == 2  # one revoked lease per napping worker
    assert stats.quarantined == 3


class Stutter(Transport):
    """One worker that reports every completion twice, the second time
    after the loop has settled the job — and, when ``keys`` are set, a
    third time echoing a key from some other batch."""

    def __init__(self, keys=None):
        self.stats = SupervisorStats()
        self.keys = keys
        self._out = []

    def idle(self):
        return [] if self._out else ["w0"]

    def send(self, worker, task):
        done = Event("result", worker, task.index, task.key, task.job)
        self._out += [done._replace(key="stale")] if self.keys else []
        self._out += [done, done]
        return 0

    def wait(self, timeout):
        out, self._out = self._out, []
        return out


@pytest.mark.parametrize("keys", [None, ["k0", "k1", "k2"]])
def test_late_and_stale_completions_are_counted_and_dropped(keys):
    transport = Stutter(keys)
    got = list(supervise(transport, ["a", "b", "c"]))
    assert got == [(0, "a"), (1, "b"), (2, "c")]  # each yielded exactly once
    assert transport.stats.completed == 3
    assert transport.stats.duplicates == (6 if keys else 3)
