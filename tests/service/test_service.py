"""The study daemon: submit/stream/dedupe/cancel/resume over live HTTP."""

import http.client
import json
import time

import pytest

import repro
from repro import api
from repro.chaos.service import daemon
from repro.core.cache import decode_entry, decode_outcome
from repro.core.jobspec import JobSpec, SourceSpec
from repro.service import JobManager, QueueFull, ServiceClient, ServiceError, StudyService

#: A grid small enough that every HTTP test stays fast.
SMALL = {"source": {"size": 2}, "models": ["work_stealing"], "ranks": [8, 16]}

#: A grid with enough cells (and enough per-cell work) that a test can
#: reliably interrupt it after the first row and still leave work behind.
INTERRUPTIBLE = {
    "source": {"size": 6},
    "models": ["static_block", "static_cyclic", "counter_dynamic", "work_stealing"],
    "ranks": [64, 256],
}


@pytest.fixture
def service(tmp_path):
    svc = StudyService(str(tmp_path / "state"), bind="127.0.0.1:0").start()
    yield svc
    svc.close()


def request(svc, method, path, body=None):
    host, port = svc.endpoint
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request(method, path, body=json.dumps(body) if body is not None else None)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def stream_rows(svc, job_id, stop_after=None):
    """Consume the NDJSON rows endpoint; blocks until the job settles
    (or returns early after ``stop_after`` rows)."""
    host, port = svc.endpoint
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/rows")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        rows = []
        for line in response:
            rows.append(json.loads(line))
            if stop_after is not None and len(rows) >= stop_after:
                return rows
        return rows
    finally:
        conn.close()


def serial_rows(payload):
    """The reference table: the same study run serially in-process."""
    spec = JobSpec.from_json(payload)
    return api.run_job(spec.with_overrides(cache=False), cache=None).rows()


class TestEndpoints:
    def test_health(self, service):
        status, body = request(service, "GET", "/v1/health")
        assert status == 200
        assert body["ok"] is True
        assert body["version"] == repro.__version__
        assert body["jobs"]["running"] == 0

    def test_backends_inventory(self, service):
        status, body = request(service, "GET", "/v1/backends")
        assert status == 200
        names = {b["name"] for b in body["backends"]}
        assert names == {"local", "serial", "distributed"}
        local = next(b for b in body["backends"] if b["name"] == "local")
        assert local["default"] is True
        distributed = next(b for b in body["backends"] if b["name"] == "distributed")
        assert distributed["fabric_attached"] is False
        assert distributed["workers"] == 0

    def test_unknown_paths_and_jobs_are_404(self, service):
        assert request(service, "GET", "/v1/nope")[0] == 404
        assert request(service, "GET", "/v1/jobs/deadbeef")[0] == 404
        assert request(service, "DELETE", "/v1/jobs/deadbeef")[0] == 404
        assert request(service, "POST", "/v1/nope", body={})[0] == 404

    def test_invalid_spec_is_structured_400(self, service):
        status, body = request(
            service, "POST", "/v1/jobs", body={**SMALL, "models": ["nope"]}
        )
        assert status == 400
        assert body["field"] == "models"
        assert "nope" in body["reason"]

    @pytest.mark.parametrize("executor", ["local?foo=1", "distributed?fallback=no"])
    def test_executor_option_the_backend_does_not_take_is_400(self, service, executor):
        """Refused at submission, not when the job starts."""
        status, body = request(
            service, "POST", "/v1/jobs", body={**SMALL, "executor": executor, "jobs": 2}
        )
        assert status == 400
        assert body["field"] == "executor"
        assert "takes no option" in body["reason"]

    def test_unknown_field_is_400(self, service):
        status, body = request(
            service, "POST", "/v1/jobs", body={**SMALL, "modles": []}
        )
        assert status == 400
        assert body["field"] == "modles"

    def test_empty_body_is_400(self, service):
        host, port = service.endpoint
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/v1/jobs")
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestJobLifecycle:
    def test_submit_stream_done_matches_serial(self, service):
        status, sub = request(service, "POST", "/v1/jobs", body=SMALL)
        assert status == 202
        assert sub["deduped"] is False
        rows = stream_rows(service, sub["job_id"])
        assert len(rows) == 2
        # The stream is completion-ordered; the canonical table is
        # (P, model)-ordered. Sorted, they must agree bit for bit —
        # json round-trips floats exactly.
        assert sorted(rows, key=lambda r: (r["P"], r["model"])) == serial_rows(SMALL)
        status, body = request(service, "GET", f"/v1/jobs/{sub['job_id']}")
        assert status == 200
        assert body["status"] == "done"
        assert body["progress"]["completed"] == body["progress"]["total"] == 2
        assert body["error"] == ""

    def test_client_cancel_is_the_delete_route(self, service):
        client = ServiceClient(*service.endpoint)
        job_id = client.submit(SMALL)["job_id"]
        body = client.cancel(job_id)
        assert body["job_id"] == job_id
        assert client.wait(job_id, timeout=60)["status"] in ("cancelled", "done")
        with pytest.raises(ServiceError) as err:
            client.cancel("deadbeef")
        assert err.value.status == 404

    def test_rows_replay_after_completion(self, service):
        _, sub = request(service, "POST", "/v1/jobs", body=SMALL)
        first = stream_rows(service, sub["job_id"])
        again = stream_rows(service, sub["job_id"])
        assert again == sorted(first, key=lambda r: (r["P"], r["model"]))

    def test_duplicate_submit_dedupes_without_recompute(self, service):
        _, sub = request(service, "POST", "/v1/jobs", body=SMALL)
        rows = stream_rows(service, sub["job_id"])
        status, again = request(service, "POST", "/v1/jobs", body=SMALL)
        assert status == 200  # not 202: nothing new was accepted
        assert again["deduped"] is True
        assert again["job_id"] == sub["job_id"]
        assert again["status"] == "done"
        # Identity ignores execution knobs: a serial-executor variant of
        # the same study is the same job.
        variant = {**SMALL, "executor": "serial", "tag": "same study"}
        status, third = request(service, "POST", "/v1/jobs", body=variant)
        assert third["deduped"] is True
        assert third["job_id"] == sub["job_id"]
        # And the job never re-ran: progress still counts one grid.
        _, body = request(service, "GET", f"/v1/jobs/{sub['job_id']}")
        assert body["progress"]["total"] == len(rows)

    def test_job_listing(self, service):
        _, sub = request(service, "POST", "/v1/jobs", body=SMALL)
        stream_rows(service, sub["job_id"])
        status, body = request(service, "GET", "/v1/jobs")
        assert status == 200
        assert [j["id"] for j in body["jobs"]] == [sub["job_id"]]

    def test_artifact_fetch(self, service):
        _, sub = request(service, "POST", "/v1/jobs", body=SMALL)
        stream_rows(service, sub["job_id"])
        _, body = request(service, "GET", f"/v1/jobs/{sub['job_id']}")
        keys = [c["key"] for c in body["cells"] if c["key"]]
        assert keys, "settled cells should carry their cache keys"
        host, port = service.endpoint
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{sub['job_id']}/artifacts/{keys[0]}")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/octet-stream"
            blob = response.read()
        finally:
            conn.close()
        # The body is the cache entry itself: the store's own decoder reads
        # it, no pickle involved, and it is the cached cell.
        served = decode_outcome(*decode_entry(bytearray(blob), keys[0]))
        cached = service.manager.result_store().get(keys[0])
        (served_arrays, served_meta), (arrays, meta) = served.to_arrays(), cached.to_arrays()
        assert type(served) is type(cached) and served_meta == meta
        assert served_arrays.keys() == arrays.keys()
        assert all(served_arrays[k].tobytes() == arrays[k].tobytes() for k in arrays)
        status, _ = request(
            service, "GET", f"/v1/jobs/{sub['job_id']}/artifacts/{'0' * 64}"
        )
        assert status == 404

    def test_cancel_midrun_then_revive_resumes(self, service):
        _, sub = request(service, "POST", "/v1/jobs", body=INTERRUPTIBLE)
        job_id = sub["job_id"]
        streamed = stream_rows(service, job_id, stop_after=1)
        assert len(streamed) == 1
        status, body = request(service, "DELETE", f"/v1/jobs/{job_id}")
        assert status == 200
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, body = request(service, "GET", f"/v1/jobs/{job_id}")
            if body["status"] in ("cancelled", "done"):
                break
            time.sleep(0.1)
        # The sweep may have finished in the races' favour; only a
        # genuinely-interrupted job exercises the revive path.
        if body["status"] == "cancelled":
            assert body["progress"]["completed"] < body["progress"]["total"]
            status, again = request(service, "POST", "/v1/jobs", body=INTERRUPTIBLE)
            assert status == 202
            assert again["deduped"] is False  # revived, not deduped
            assert again["job_id"] == job_id
        rows = stream_rows(service, job_id)
        assert sorted(rows, key=lambda r: (r["P"], r["model"])) == serial_rows(
            INTERRUPTIBLE
        )
        _, body = request(service, "GET", f"/v1/jobs/{job_id}")
        # Cells settled before the cancel came back from the cache.
        assert any(c["status"] == "cached" for c in body["cells"])


class TestManager:
    def test_queue_bound_rejects_with_structured_error(self, tmp_path):
        manager = JobManager(tmp_path / "state", max_queued=0)
        try:
            with pytest.raises(QueueFull) as err:
                manager.submit(JobSpec.from_json(SMALL))
            assert err.value.field == "queue"
        finally:
            manager.close()

    def test_submit_normalizes_and_validates(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        try:
            from repro.core.jobspec import JobSpecError

            with pytest.raises(JobSpecError):
                manager.submit(JobSpec(executor="serial", jobs=4))
        finally:
            manager.close()

    def test_close_cancels_queued_jobs(self, tmp_path):
        manager = JobManager(tmp_path / "state")
        big = JobSpec.from_json(INTERRUPTIBLE)
        small = JobSpec.from_json(SMALL)
        job_a, _ = manager.submit(big)
        job_b, _ = manager.submit(small)
        manager.close()
        assert job_b.terminal
        assert job_a.terminal


class TestDaemonRestart:
    """The flagship durability property: SIGKILL the daemon mid-job,
    restart it on the same state dir, and the job finishes bit-for-bit."""

    def _request(self, host, port, method, path, body=None):
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.request(
                method, path, body=json.dumps(body) if body is not None else None
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_kill_and_restart_resumes_bit_for_bit(self, tmp_path):
        state = tmp_path / "state"
        with daemon(state) as (proc, host, port):
            status, sub = self._request(
                host, port, "POST", "/v1/jobs", body=INTERRUPTIBLE
            )
            assert status == 202
            job_id = sub["job_id"]
            # Wait for the first row on the live stream, then kill -9.
            conn = http.client.HTTPConnection(host, port, timeout=120)
            try:
                conn.request("GET", f"/v1/jobs/{job_id}/rows")
                first = conn.getresponse().readline()
            finally:
                conn.close()
            assert first, "no row ever streamed"
            json.loads(first)
            proc.kill()

        with daemon(state) as (proc, host, port):
            deadline = time.monotonic() + 180
            body = None
            while time.monotonic() < deadline:
                status, body = self._request(host, port, "GET", f"/v1/jobs/{job_id}")
                assert status == 200, "restarted daemon lost the job record"
                if body["status"] in ("done", "failed", "cancelled"):
                    break
                time.sleep(0.25)
            assert body["status"] == "done", body
            # Cells settled before the kill were restored, not recomputed.
            assert any(
                c["status"] == "cached" for c in body["cells"]
            ), body["cells"]
            conn = http.client.HTTPConnection(host, port, timeout=120)
            try:
                conn.request("GET", f"/v1/jobs/{job_id}/rows")
                rows = [json.loads(line) for line in conn.getresponse()]
            finally:
                conn.close()
            assert sorted(rows, key=lambda r: (r["P"], r["model"])) == serial_rows(
                INTERRUPTIBLE
            )
