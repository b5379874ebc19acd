"""Service survivability: concurrent scheduler, deadlines, drain,
retention GC, and the retrying client (PR 9).

Everything here drives the :class:`~repro.service.jobs.JobManager` (and
occasionally a full :class:`~repro.service.server.StudyService`)
directly — the live-loopback equivalents, including the six fault
scenarios, live in ``repro.chaos.service`` / ``repro chaos --only service``.
"""

import functools
import json
import threading
import time

import pytest

from repro import api
from repro.core.jobspec import JobSpec, SourceSpec
from repro.parallel.executor import EXECUTOR_BACKENDS, SerialExecutor
from repro.service import (
    Draining,
    Janitor,
    JobManager,
    QueueFull,
    RetentionPolicy,
    ServiceClient,
    ServiceError,
    StudyService,
)
from repro.service.retention import finish_tombstones


def spec_for(seed, *, size=3, slow=False, **overrides):
    """A serial-executor study grid, disjoint from other seeds."""
    base = JobSpec(
        source=SourceSpec(size=6 if slow else size, seed=seed),
        models=(
            ("static_block", "static_cyclic", "counter_dynamic", "work_stealing")
            if slow
            else ("static_block", "work_stealing")
        ),
        ranks=(64, 256) if slow else (8, 16),
        seed=seed,
        executor="serial",
    )
    return base.with_overrides(**overrides) if overrides else base


def serial_rows(spec):
    """Fault-free reference rows for parity assertions."""
    clean = spec.with_overrides(cache=False, deadline_s=None)
    return api.run_job(clean, cache=None).rows()


def wait_terminal(manager, job_id, timeout=180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = manager.get(job_id)
        assert job is not None, f"job {job_id[:12]} vanished"
        if job.terminal:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id[:12]} not terminal after {timeout}s")


def wait_idle(manager, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = manager.stats()
        if stats["queued_depth"] == 0 and stats["running_weight"] == 0:
            return stats
        time.sleep(0.05)
    raise AssertionError(f"scheduler never went idle: {manager.stats()}")


class TestConcurrentScheduler:
    def test_two_disjoint_jobs_overlap_in_wall_clock(self, tmp_path):
        manager = JobManager(tmp_path / "state", capacity=2, workers=2)
        try:
            a, _ = manager.submit(spec_for(1, slow=True))
            b, _ = manager.submit(spec_for(2, slow=True))
            both_running = False
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if a.status == "running" and b.status == "running":
                    both_running = True
                    break
                if a.terminal or b.terminal:
                    break
                time.sleep(0.01)
            assert both_running, "jobs never ran concurrently"
            a = wait_terminal(manager, a.id)
            b = wait_terminal(manager, b.id)
            assert a.status == "done" and b.status == "done"
            # The wall-clock intervals overlap: each started before the
            # other finished.
            assert a.started_at < b.finished_at
            assert b.started_at < a.finished_at
        finally:
            manager.close()
        assert a.rows == serial_rows(a.spec)
        assert b.rows == serial_rows(b.spec)

    def test_dedupe_storm_thirty_two_threads(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            spec = spec_for(3, size=2)
            barrier = threading.Barrier(32)
            outcomes, errors = [], []

            def storm():
                try:
                    barrier.wait(timeout=30)
                    outcomes.append(manager.submit(spec))
                except Exception as exc:  # noqa: BLE001 - verdict data
                    errors.append(exc)

            threads = [threading.Thread(target=storm) for _ in range(32)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not errors
            assert len(outcomes) == 32
            assert {job.id for job, _ in outcomes} == {spec.job_key()}
            assert sum(1 for _, deduped in outcomes if not deduped) == 1
            assert len(manager.list_jobs()) == 1
            job = wait_terminal(manager, spec.job_key())
            assert job.status == "done"
        finally:
            manager.close()

    def test_queue_full_carries_scheduler_snapshot(self, tmp_path):
        manager = JobManager(
            tmp_path / "state", max_queued=1, capacity=1, workers=1
        )
        try:
            head, _ = manager.submit(spec_for(4, slow=True))
            deadline = time.monotonic() + 30
            while head.status != "running" and time.monotonic() < deadline:
                time.sleep(0.01)
            assert head.status == "running"
            manager.submit(spec_for(5))  # fills the 1-deep queue
            with pytest.raises(QueueFull) as err:
                manager.submit(spec_for(6))
            assert err.value.retry_after >= 1.0
            assert err.value.capacity == 1
            assert err.value.queued >= 1
        finally:
            manager.close()

    def test_cancel_never_races_promotion(self, tmp_path):
        # Regression loop for the queued->running race: a cancel that
        # reports "cancelled" must stick — the runner may never execute
        # that spec from a stale queue slot.
        manager = JobManager(tmp_path / "state", capacity=1, workers=1)
        try:
            pre = 0
            for i in range(10):
                batch = [spec_for(100 + i * 8 + j, size=2) for j in range(3)]
                for spec in batch:
                    manager.submit(spec)
                for spec in batch:
                    job = manager.cancel(spec.job_key())
                    if job.status == "cancelled":
                        pre += 1
                for spec in batch:
                    job = wait_terminal(manager, spec.job_key())
                    assert job.status in ("cancelled", "done")
                    if job.status == "cancelled" and not job.cells:
                        for _ in range(5):
                            assert (
                                manager.get(spec.job_key()).status
                                == "cancelled"
                            )
                            time.sleep(0.01)
            assert pre, "no cancel ever hit a queued job"
            stats = wait_idle(manager)
            assert stats["running_weight"] == 0
        finally:
            manager.close()


class TestLiveStream:
    def test_live_stream_carries_each_stored_row_once(self, tmp_path):
        manager = JobManager(tmp_path / "state", workers=1)
        try:
            # Descending ranks: cells settle in the opposite order to the
            # stored (P, model)-sorted table, so a reader's row count
            # points at different rows in the two.
            job, _ = manager.submit(spec_for(17, ranks=(16, 8)))
            stream = job.stream_rows()
            streamed = [next(stream)]  # live: blocks until a first cell settles
            # Hold that position while the job finishes and publishes its
            # canonical table, then drain the rest of the stream.
            job = wait_terminal(manager, job.id)
            streamed.extend(stream)
        finally:
            manager.close()
        assert job.status == "done", job.error

        def cell(row):
            return (row["P"], row["model"])

        assert [cell(r) for r in streamed] != [cell(r) for r in job.rows]
        assert sorted(streamed, key=cell) == job.rows == serial_rows(job.spec)


def stall_after_first_cell(seconds):
    """A serial backend that sleeps ``seconds`` once a first cell has
    settled, so a job is mid-grid for at least that long on any host.

    The serial backend checks the deadline before starting each cell, so
    with a job deadline of ``seconds`` the second cell's check provably
    comes after expiry: the job misses its deadline mid-grid, fast host
    or slow.
    """

    class StallAfterFirstCell(SerialExecutor):
        def run(self, fn, jobs, **kwargs):
            for settled, item in enumerate(super().run(fn, jobs, **kwargs)):
                yield item
                if settled == 0:
                    time.sleep(seconds)

    return StallAfterFirstCell


class TestDeadline:
    def test_deadline_exceeded_is_terminal_failed(self, tmp_path, monkeypatch):
        budget = 0.2
        manager = JobManager(tmp_path / "state", workers=1)
        try:
            spec = spec_for(7, slow=True, deadline_s=budget)
            with monkeypatch.context() as patched:
                patched.setitem(EXECUTOR_BACKENDS, "serial", stall_after_first_cell(budget))
                job, _ = manager.submit(spec)
                job = wait_terminal(manager, job.id)
            assert job.status == "failed"
            assert job.error.startswith("deadline")
            assert "unsettled" in job.error
        finally:
            manager.close()

    def test_resubmission_resumes_past_deadline_failure(self, tmp_path, monkeypatch):
        budget = 2.0  # ample for the build plus a first cell of this grid
        manager = JobManager(tmp_path / "state", workers=1)
        try:
            tight = spec_for(8, deadline_s=budget)
            with monkeypatch.context() as patched:
                patched.setitem(EXECUTOR_BACKENDS, "serial", stall_after_first_cell(budget))
                job, _ = manager.submit(tight)
                job = wait_terminal(manager, job.id)
            assert job.status == "failed"
            assert job.error.startswith("deadline")
            settled_first = job.completed_cells - job.failed_cells
            assert settled_first < job.total_cells
            # Same grid, no deadline: deadline_s is outside the job
            # identity, so this *revives* the failed record and reuses
            # the cached cells instead of deduping onto it.
            relaxed = tight.with_overrides(deadline_s=None)
            assert relaxed.job_key() == tight.job_key()
            revived, deduped = manager.submit(relaxed)
            assert not deduped
            revived = wait_terminal(manager, revived.id)
            assert revived.status == "done", revived.error
            # Every cell the first attempt settled is served from the
            # cache, not recomputed (on very slow hosts the deadline
            # can beat the first cell; then there is nothing to reuse).
            assert revived.cached_cells >= settled_first
        finally:
            manager.close()
        assert revived.rows == serial_rows(relaxed)


class TestDrainRestart:
    @staticmethod
    def _drain_after_first_cell(state, spec, monkeypatch):
        """Run ``spec`` until a first cell settles, then drain the manager."""
        manager = JobManager(state, workers=1)
        try:
            with monkeypatch.context() as patched:
                # The job sleeps 0.5 s after its first cell, so it is
                # still running when the 0.05 s grace expires however fast
                # its other cells are, and its next cell settles well
                # inside the drain's 2 s unwind.
                patched.setitem(EXECUTOR_BACKENDS, "serial", stall_after_first_cell(0.5))
                job, _ = manager.submit(spec)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if job.status == "running" and job.completed_cells >= 1:
                        break
                    time.sleep(0.01)
                else:
                    raise AssertionError("job never settled a first cell")
                manager.drain(grace=0.05)
                assert manager.stats()["draining"] is True
        finally:
            manager.close()
        record = json.loads(
            (state / "jobs" / f"{spec.job_key()}.json").read_text()
        )
        assert record["status"] == "queued", "drain must preserve the job"

    def test_drain_requeues_and_restart_resumes(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        spec = spec_for(9, slow=True)
        self._drain_after_first_cell(state, spec, monkeypatch)
        # A fresh manager on the same state dir resumes it unasked.
        restarted = JobManager(state, workers=1)
        try:
            job = wait_terminal(restarted, spec.job_key())
            assert job.status == "done", job.error
            assert job.cached_cells >= 1  # cells settled before the drain
            rows = list(job.rows)
        finally:
            restarted.close()
        assert rows == serial_rows(spec)

    def test_uncached_job_keeps_no_store_and_recomputes(self, tmp_path, monkeypatch):
        # A cache=False job writes no result entry anywhere under the
        # state dir, so after a drain and a restart it recomputes.
        state = tmp_path / "state"
        spec = spec_for(17, slow=True, cache=False)
        self._drain_after_first_cell(state, spec, monkeypatch)
        assert not list(state.rglob("*.entry"))
        restarted = JobManager(state, workers=1)
        try:
            job = wait_terminal(restarted, spec.job_key())
            assert job.status == "done", job.error
            assert job.cached_cells == 0
            rows = list(job.rows)
        finally:
            restarted.close()
        assert not list(state.rglob("*.entry"))
        assert rows == serial_rows(spec)

    def test_draining_rejects_new_submits(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            done, _ = manager.submit(spec_for(10, size=2))
            wait_terminal(manager, done.id)
            manager.drain(grace=0.0)
            with pytest.raises(Draining) as err:
                manager.submit(spec_for(11))
            assert err.value.retry_after > 0
            # Dedupe hits on known jobs still answer during the drain.
            again, deduped = manager.submit(spec_for(10, size=2))
            assert deduped and again.id == done.id
        finally:
            manager.close()

    def test_close_without_drain_cancels_queued(self, tmp_path):
        manager = JobManager(
            tmp_path / "state", max_queued=8, capacity=1, workers=1
        )
        blocked = spec_for(13)
        manager.submit(spec_for(12, slow=True))
        manager.submit(blocked)
        manager.close()
        record = json.loads(
            (tmp_path / "state" / "jobs" / f"{blocked.job_key()}.json")
            .read_text()
        )
        assert record["status"] == "cancelled"


class TestRetention:
    def _finished_job(self, manager, seed=14):
        spec = spec_for(seed, size=2)
        job, _ = manager.submit(spec)
        return wait_terminal(manager, job.id)

    def test_gc_removes_expired_job_record_and_files(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            job = self._finished_job(manager)
            janitor = Janitor(manager, RetentionPolicy(ttl_s=0.0))
            removed = janitor.gc_now()
            assert removed["jobs"] == 1
            assert removed["cache_entries"] >= 1
            assert manager.get(job.id) is None
            assert not manager.record_path(job.id).exists()
            assert not list((tmp_path / "state" / "jobs").glob("*.tomb"))
        finally:
            manager.close()

    def test_gc_spares_young_records(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            job = self._finished_job(manager, seed=15)
            janitor = Janitor(manager, RetentionPolicy(ttl_s=3600.0))
            removed = janitor.gc_now()
            assert removed == {"jobs": 0, "cache_entries": 0}
            assert manager.get(job.id) is not None
        finally:
            manager.close()

    def test_gc_never_deletes_live_streamed_records(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            job = self._finished_job(manager, seed=16)
            janitor = Janitor(manager, RetentionPolicy(ttl_s=0.0))
            with job.stream_ref():
                for _ in range(5):
                    assert janitor.gc_now()["jobs"] == 0
                    assert manager.get(job.id) is not None
                # The stream still serves the full table mid-GC.
                assert list(job.stream_rows()) == list(job.rows)
            assert janitor.gc_now()["jobs"] == 1
            assert manager.get(job.id) is None
        finally:
            manager.close()

    def test_tombstone_completes_interrupted_gc(self, tmp_path):
        # Crash between tombstone write and unlink: the next startup
        # finishes the delete instead of resurrecting half a record.
        manager = JobManager(tmp_path / "state")
        try:
            job = self._finished_job(manager, seed=17)
            record = manager.record_path(job.id)
            tomb = record.with_suffix(record.suffix + ".tomb")
            tomb.write_text(
                json.dumps({"v": 1, "paths": [str(record)]}),
                encoding="utf-8",
            )
        finally:
            manager.close()
        assert finish_tombstones(tmp_path / "state" / "jobs") == 1
        assert not record.exists()
        assert not tomb.exists()
        # A restart on the same dir no longer knows the job.
        restarted = JobManager(tmp_path / "state")
        try:
            assert restarted.get(job.id) is None
        finally:
            restarted.close()

    def test_policy_validates(self):
        with pytest.raises(Exception):
            RetentionPolicy(ttl_s=-1.0).validate()
        RetentionPolicy(ttl_s=None).validate()
        RetentionPolicy(ttl_s=60.0, interval_s=5.0).validate()


class TestSaltBump:
    def test_state_dir_from_an_older_salt_recovers(self, tmp_path, monkeypatch):
        """Job ids and cell keys both fold in ``CACHE_SALT``: a state dir
        written before a bump must neither strand its unfinished jobs nor
        leak its finished ones past retention."""
        from repro.core.cache import CACHE_SALT, ResultCache

        state = tmp_path / "state"
        done_spec, pending_spec = spec_for(21, size=2), spec_for(22, size=2)
        with monkeypatch.context() as old:
            old.setattr("repro.core.cache.CACHE_SALT", "repro-sweep-v1")
            old.setattr(
                api, "SweepRunner", functools.partial(api.SweepRunner, salt="repro-sweep-v1")
            )
            manager = JobManager(state)
            try:
                finished = wait_terminal(manager, manager.submit(done_spec)[0].id)
                record = json.loads(manager.record_path(finished.id).read_text())
            finally:
                manager.close()
            # A second job that daemon was killed in the middle of.
            pending_id = pending_spec.job_key()
            record.update(
                id=pending_id, spec=pending_spec.to_json(), status="running", rows=[], cells=[]
            )
            (state / "jobs" / f"{pending_id}.json").write_text(json.dumps(record))
        assert CACHE_SALT != "repro-sweep-v1"
        old_keys = {cell["key"] for cell in finished.cells}
        assert old_keys and finished.id != done_spec.job_key()

        restarted = JobManager(state)
        try:
            cache = ResultCache(restarted.cache_dir)
            # Unfinished: re-run under today's key, the old record gone.
            job = wait_terminal(restarted, pending_spec.job_key())
            assert job.status == "done", job.error
            assert list(job.rows) == serial_rows(pending_spec)
            assert restarted.get(pending_id) is None
            assert not restarted.record_path(pending_id).exists()
            # Finished: still listed under its old id, never deduped onto,
            # and none of its cells is a hit for the same spec today.
            assert restarted.get(finished.id).status == "done"
            again, deduped = restarted.submit(done_spec)
            assert not deduped and again.id == done_spec.job_key()
            again = wait_terminal(restarted, again.id)
            assert again.cached_cells == 0
            assert list(again.rows) == list(finished.rows)
            assert old_keys.isdisjoint(cell["key"] for cell in again.cells)
            # Retention still finds what the old record names.
            assert all(cache.path_for(key).exists() for key in old_keys)
            Janitor(restarted, RetentionPolicy(ttl_s=0.0)).gc_now()
            assert restarted.get(finished.id) is None
            assert not restarted.record_path(finished.id).exists()
            assert not any(cache.path_for(key).exists() for key in old_keys)
        finally:
            restarted.close()


class TestServiceClientRetry:
    def test_backoff_grows_and_honours_retry_after(self):
        client = ServiceClient("127.0.0.1", 1, sleep=lambda _d: None)
        # Exponential shape, capped.
        assert client._retry_delay(0, {}, None) == pytest.approx(0.25)
        assert client._retry_delay(3, {}, None) == pytest.approx(2.0)
        assert client._retry_delay(30, {}, None) == client.backoff_cap
        # The server's hint floors the delay (header and body forms).
        assert client._retry_delay(0, {"retry-after": "5"}, None) == 5.0
        assert client._retry_delay(0, {}, {"retry_after": 3.0}) == 3.0
        # But the client never waits past its own cap.
        assert (
            client._retry_delay(0, {"retry-after": "900"}, None)
            == client.backoff_cap
        )

    def test_draining_service_yields_503_with_retry_after(self, tmp_path):
        with StudyService(
            str(tmp_path / "state"), bind="127.0.0.1:0"
        ) as svc:
            svc.manager.drain(grace=0.0)
            host, port = svc.endpoint
            delays = []
            client = ServiceClient(
                host, port, max_retries=2, sleep=delays.append
            )
            with pytest.raises(ServiceError) as err:
                client.submit(spec_for(18))
            assert err.value.status == 503
            assert client.retries == 2
            assert len(delays) == 2
            # Draining advertises retry_after=2.0; both waits honour it.
            assert all(d >= 2.0 for d in delays)
            # Health reports the drain so orchestrators can see it.
            assert client.health()["draining"] is True

    def test_connection_errors_are_retried(self, tmp_path):
        # Nothing listens on this port: what a restarting daemon looks
        # like from outside. The submit must retry, then fail loudly.
        with StudyService(
            str(tmp_path / "state"), bind="127.0.0.1:0"
        ) as svc:
            host, port = svc.endpoint
        # Service closed; the port is now dead.
        delays = []
        client = ServiceClient(
            host, port, max_retries=3, sleep=delays.append, timeout=2.0
        )
        with pytest.raises(ServiceError) as err:
            client.health()
        assert "failed after 4 attempt(s)" in str(err.value)
        assert client.retries == 3
        assert len(delays) == 3


class TestSubmitCli:
    def test_default_auto_executor_submits_and_streams(self, tmp_path, capsys):
        # Regression: the default --executor is "auto", service-side
        # vocabulary the daemon's router resolves; client-side
        # validation must not reject it before the spec ever reaches
        # the wire.
        from repro.__main__ import main

        with StudyService(
            str(tmp_path / "state"), bind="127.0.0.1:0"
        ) as svc:
            host, port = svc.endpoint
            rc = main(
                [
                    "submit",
                    "--connect", f"{host}:{port}",
                    "--size", "2",
                    "--ranks", "8",
                    "--models", "work_stealing",
                ]
            )
        assert rc == 0
        out = capsys.readouterr().out
        rows = [json.loads(line) for line in out.splitlines() if line]
        reference = serial_rows(
            JobSpec(
                source=SourceSpec(size=2),
                models=("work_stealing",),
                ranks=(8,),
                executor="serial",
            )
        )
        assert rows == reference

    def test_bad_field_fails_fast_client_side(self, capsys):
        from repro.__main__ import main

        rc = main(
            ["submit", "--connect", "127.0.0.1:1", "--ranks", "8", "--jobs", "0"]
        )
        assert rc == 2
        assert "jobs" in capsys.readouterr().err


class TestHealthSurface:
    def test_health_lifts_scheduler_vitals(self, tmp_path):
        manager = JobManager(
            tmp_path / "state", max_queued=7, capacity=3, workers=2
        )
        with StudyService(
            str(tmp_path / "state"), bind="127.0.0.1:0", manager=manager
        ) as svc:
            host, port = svc.endpoint
            body = ServiceClient(host, port).health()
            assert body["ok"] is True
            assert body["capacity"] == 3
            assert body["queued"] == 0
            assert body["draining"] is False
            assert body["jobs"]["workers"] == 2
