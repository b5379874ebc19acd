"""The ``service`` suite: live loopback daemons under operational faults.

:mod:`repro.chaos.host` disturbs the *sweep* (killed workers, corrupted
caches), :mod:`repro.chaos.distributed` the *fabric* (lost TCP workers).
These rows disturb the *service*: a real
:class:`~repro.service.StudyService` (in-process or a
``python -m repro serve`` subprocess) is driven over actual HTTP while
the operational failure modes of PR 9 fire — overload bursts, racing
identical submissions, cancels racing promotion, SIGTERM drains, the
retention janitor, and readers that stop reading.

Every scenario ends on the same verdict the rest of the chaos family
uses: **the rows the service eventually serves are bit-for-bit identical
to a fault-free serial in-process run of the same spec**. Overload may
delay a study and a drain may checkpoint it across a restart, but
nothing the service layer does is allowed to change a single value.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Iterator

from repro.chaos.harness import ChaosContext, child_env, scenario
from repro.core.jobspec import JobSpec, SourceSpec
from repro.service.client import ServiceClient
from repro.service.jobs import JobManager
from repro.service.retention import Janitor, RetentionPolicy
from repro.service.server import StudyService, wait_ready


# ----------------------------------------------------------------------
# Spec and HTTP helpers
# ----------------------------------------------------------------------

def _spec(seed: int, *, size: int = 3, wide: bool = False) -> JobSpec:
    """A small, distinct-by-seed study grid for one scenario.

    Serial executor on purpose: the faults under test live in the
    service layer (scheduler, retention, drain, HTTP), so the cheapest
    executor keeps the suite fast without weakening any scenario.
    """
    if wide:
        return JobSpec(
            source=SourceSpec(size=5, seed=seed),
            models=(
                "static_block",
                "static_cyclic",
                "counter_dynamic",
                "work_stealing",
            ),
            ranks=(16, 64, 256),
            seed=seed,
            executor="serial",
        )
    return JobSpec(
        source=SourceSpec(size=size, seed=seed),
        models=("static_block", "work_stealing"),
        ranks=(16, 32),
        seed=seed,
        executor="serial",
    )


def _serial_rows(spec: JobSpec) -> list[dict[str, Any]]:
    """The fault-free reference: the same study, serial, in-process."""
    from repro import api

    return api.run_job(
        spec.with_overrides(
            cache=False,
            executor="serial",
            jobs=1,
            timeout=None,
            deadline_s=None,
        ),
        cache=None,
    ).rows()


def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: "dict[str, Any] | None" = None,
    timeout: float = 60.0,
) -> tuple[int, dict[str, str], Any]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            method, path, body=json.dumps(body) if body is not None else None
        )
        response = conn.getresponse()
        headers = {k.lower(): v for k, v in response.getheaders()}
        data = response.read()
        try:
            decoded = json.loads(data) if data else {}
        except json.JSONDecodeError:
            decoded = {}
        return response.status, headers, decoded
    finally:
        conn.close()


def _done_with_serial_rows(
    client: ServiceClient,
    job_id: str,
    spec: JobSpec,
    when: str,
    timeout: float | None = 120.0,
) -> dict[str, Any]:
    """Every row's last check: the job ends ``done`` and what the service
    serves for it equals the serial reference. Returns the final snapshot."""
    snapshot = client.wait(job_id, timeout=timeout)
    assert snapshot["status"] == "done", snapshot.get("error")
    assert client.rows(job_id) == _serial_rows(spec), f"row drift {when}"
    return snapshot


@contextlib.contextmanager
def daemon(
    state_dir: pathlib.Path, *, drain_grace: float = 1.0
) -> Iterator[tuple[subprocess.Popen, str, int]]:
    """A ``python -m repro serve`` subprocess on a loopback port.

    Yields ``(proc, host, port)`` once the endpoint it announced accepts
    connections. The caller may signal or kill ``proc``; on every exit
    path a daemon still running is SIGTERMed (killed if it outlives the
    drain), reaped, and its stdout pipe drained and closed.
    """
    state_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--bind", "127.0.0.1:0",
            "--state-dir", str(state_dir),
            "--drain-grace", str(drain_grace),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=child_env(),
        cwd=str(state_dir),
    )
    # Keeps the pipe from filling while the daemon logs job lifecycle.
    drain = threading.Thread(target=proc.stdout.read, daemon=True)
    try:
        endpoint = None
        for line in proc.stdout:  # ends at EOF if the daemon dies first
            if "listening on http://" in line:
                endpoint = line.split("http://", 1)[1].split()[0]
                break
        assert endpoint is not None, "daemon never reported its endpoint"
        drain.start()
        host, _, port = endpoint.rpartition(":")
        assert wait_ready(host, int(port)), "daemon endpoint never became reachable"
        yield proc, host, int(port)
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        if drain.is_alive():
            drain.join(timeout=10)
        proc.stdout.close()


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

def _service(ctx: ChaosContext, **kwargs: Any) -> StudyService:
    """An in-process service on this scenario's state dir, any free port."""
    return StudyService(str(ctx.workdir / "state"), bind="127.0.0.1:0", **kwargs)


@scenario("service", "service: overload burst -> 503 + Retry-After -> retried to parity")
def overload_burst(ctx: ChaosContext) -> str:
    """A submit burst against a 1-deep queue: 503s carry Retry-After and
    the scheduler snapshot; retrying clients land every job; parity."""
    specs = [_spec(ctx.seed + i) for i in range(6)]
    manager = JobManager(
        ctx.workdir / "state", max_queued=1, capacity=1, workers=1
    )
    with _service(ctx, manager=manager) as svc:
        host, port = svc.endpoint
        rejected = 0
        for spec in specs:
            status, headers, body = _request(
                host, port, "POST", "/v1/jobs", spec.to_json()
            )
            if status == 503:
                rejected += 1
                assert "retry-after" in headers, "503 without Retry-After"
                for field in ("queued", "running", "capacity"):
                    assert field in body, f"503 body missing {field!r}"
            else:
                assert status in (200, 202), f"unexpected status {status}"
        assert rejected, "burst never tripped the bounded queue"
        # Retrying clients (what `repro submit` does) must land them all.
        client = ServiceClient(host, port, backoff_base=0.05, max_retries=30)
        ids = [client.submit(spec)["job_id"] for spec in specs]
        for spec, job_id in zip(specs, ids):
            _done_with_serial_rows(client, job_id, spec, f"in job {job_id[:12]}")
    return f"{rejected}/6 rejected with Retry-After, all landed on retry"


@scenario("service", "service: 32-thread identical-submit dedupe storm")
def dedupe_storm(ctx: ChaosContext) -> str:
    """32 threads race identical submits: exactly one job exists."""
    spec = _spec(ctx.seed + 1000)
    outcomes: list[tuple[int, str]] = []
    errors: list[str] = []
    with _service(ctx) as svc:
        host, port = svc.endpoint
        barrier = threading.Barrier(32)

        def storm() -> None:
            try:
                barrier.wait(timeout=30)
                status, _headers, body = _request(
                    host, port, "POST", "/v1/jobs", spec.to_json()
                )
                outcomes.append((status, body.get("job_id", "")))
            except Exception as exc:  # noqa: BLE001 - collected for verdict
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=storm) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, f"storm raised: {errors[:3]}"
        assert len(outcomes) == 32, "lost submissions in the storm"
        ids = {job_id for _status, job_id in outcomes}
        assert ids == {spec.job_key()}, f"dedupe split the job: {ids}"
        fresh = [s for s, _ in outcomes if s == 202]
        assert len(fresh) == 1, f"{len(fresh)} threads created the job"
        _status, _headers, listing = _request(host, port, "GET", "/v1/jobs")
        assert len(listing["jobs"]) == 1, "storm left more than one job"
        _done_with_serial_rows(
            ServiceClient(host, port), spec.job_key(), spec, "after dedupe storm"
        )
    return "32 racing submits -> 1 job (1x 202, 31x dedupe), rows identical"


@scenario("service", "service: cancel racing queued->running promotion")
def cancel_race(ctx: ChaosContext) -> str:
    """Cancel racing queued->running promotion: no phantom slots, no
    cancelled spec ever executing, revival runs to parity.

    A capacity-1 manager keeps a backlog queued behind the running head,
    so the burst of cancels lands on both sides of the promotion — some
    strike jobs still in the queue (the branch the PR 9 race fix
    guards), some strike the job the runner just promoted.
    """
    seed = ctx.seed + 2000
    rounds = 4 if ctx.quick else 12
    manager = JobManager(ctx.workdir / "state", capacity=1, workers=1)
    with _service(ctx, manager=manager) as svc:
        host, port = svc.endpoint
        client = ServiceClient(host, port)
        pre = post = 0
        for i in range(rounds):
            specs = [
                _spec(seed + 100 + i * 16 + j, size=2) for j in range(4)
            ]
            for spec in specs:
                status, _h, _b = _request(
                    host, port, "POST", "/v1/jobs", spec.to_json()
                )
                assert status in (200, 202), f"submit refused: {status}"
            # Cancel the whole batch immediately: the head is racing (or
            # past) promotion, the tail is still queued.
            for spec in specs:
                status, _h, verdict = _request(
                    host, port, "DELETE", f"/v1/jobs/{spec.job_key()}"
                )
                assert status == 200
                if verdict["status"] == "cancelled":
                    pre += 1
                else:
                    post += 1
            for spec in specs:
                snapshot = client.wait(spec.job_key(), timeout=120.0)
                assert snapshot["status"] in ("cancelled", "done"), (
                    f"round {i}: {snapshot['status']!r}"
                )
                if snapshot["status"] == "cancelled" and not snapshot["cells"]:
                    # Cancelled before any cell settled: it must stay
                    # cancelled — a phantom promotion would flip it back
                    # to running from a stale queue slot.
                    for _ in range(10):
                        snap = manager.get(spec.job_key())
                        assert snap is not None
                        assert snap.status == "cancelled", (
                            f"round {i}: cancelled job went {snap.status!r}"
                        )
                        time.sleep(0.01)
        assert pre, "no cancel ever landed on a queued job; race untested"
        # Invariant: nothing stuck — queue empty once everything settles.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            stats = manager.stats()
            if stats["queued_depth"] == 0 and stats["running_weight"] == 0:
                break
            time.sleep(0.05)
        stats = manager.stats()
        assert stats["queued_depth"] == 0, f"phantom queue slots: {stats}"
        assert stats["running_weight"] == 0, f"leaked running weight: {stats}"
        # Revival: resubmitting a cancelled spec requeues and completes.
        revive = _spec(seed + 100, size=2)
        _request(host, port, "POST", "/v1/jobs", revive.to_json())
        _done_with_serial_rows(client, revive.job_key(), revive, "after revival")
    return (
        f"{rounds * 4} cancels ({pre} pre-promotion, {post} post), "
        "no phantom slots, revival identical"
    )


@scenario("service", "service: SIGTERM drain mid-sweep -> restart resumes")
def drain_restart(ctx: ChaosContext) -> str:
    """SIGTERM mid-sweep: clean drain (exit 0), the restarted daemon
    reruns the job over the result cache, rows identical."""
    spec = _spec(ctx.seed + 3000, wide=True)
    state = ctx.workdir / "state"
    with daemon(state, drain_grace=0.2) as (proc, host, port):
        status, _h, accepted = _request(
            host, port, "POST", "/v1/jobs", spec.to_json()
        )
        assert status == 202, f"submit failed: {accepted}"
        job_id = accepted["job_id"]
        # Let it get into the sweep before the termination arrives.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _s, _h, snap = _request(host, port, "GET", f"/v1/jobs/{job_id}")
            if (
                snap.get("status") == "running"
                and snap.get("progress", {}).get("completed", 0) >= 1
            ):
                break
            time.sleep(0.02)
        else:
            raise AssertionError("job never started producing cells")
        proc.send_signal(signal.SIGTERM)
        exit_code = proc.wait(timeout=60)
        assert exit_code == 0, f"drain exit code {exit_code}"
    # The drained record must be resumable, not terminal.
    record = json.loads(
        (state / "jobs" / f"{job_id}.json").read_text(encoding="utf-8")
    )
    assert record["status"] in ("queued", "running", "done"), record["status"]
    # Restart on the same state dir: the job finishes on its own.
    with daemon(state, drain_grace=5.0) as (_proc, host, port):
        snapshot = _done_with_serial_rows(
            ServiceClient(host, port), job_id, spec, "across drain+restart", 180
        )
    cached = snapshot["progress"]["cached"]
    return f"drained cleanly, restart served {cached} cell(s) from the cache"


@scenario("service", "service: retention GC racing a live row stream")
def gc_vs_stream(ctx: ChaosContext) -> str:
    """A zero-TTL janitor racing a live row stream: the watched record
    survives every pass; the moment the stream closes, it is collected
    tombstone-clean."""
    spec = _spec(ctx.seed + 4000, size=2)
    manager = JobManager(ctx.workdir / "state")
    janitor = Janitor(manager, RetentionPolicy(ttl_s=0.0, interval_s=0.05))
    with _service(ctx, manager=manager) as svc:
        client = ServiceClient(*svc.endpoint)
        job_id = client.submit(spec)["job_id"]
        snapshot = client.wait(job_id)
        assert snapshot["status"] == "done", snapshot.get("error")
        reference = _serial_rows(spec)
        job = manager.get(job_id)
        assert job is not None
        with job.stream_ref():  # a reader holds the stream open...
            for _ in range(10):  # ...through many expiry passes
                removed = janitor.gc_now()
                assert removed["jobs"] == 0, "GC deleted a streamed record"
                assert manager.get(job_id) is not None
            # The stream itself still serves full, identical rows.
            assert client.rows(job_id) == reference, "row drift under GC"
        removed = janitor.gc_now()  # stream closed: now it may go
        assert removed["jobs"] == 1, f"expired job not collected: {removed}"
        assert manager.get(job_id) is None
        assert not manager.record_path(job_id).exists()
        tombs = list((ctx.workdir / "state" / "jobs").glob("*.tomb"))
        assert not tombs, f"tombstones left behind: {tombs}"
        # And the service recomputes the same rows on resubmission.
        job_id2 = client.submit(spec)["job_id"]
        client.wait(job_id2)
        assert client.rows(job_id2) == reference, "row drift after GC"
    return "10 zero-TTL passes skipped the live stream; collected after"


@scenario("service", "service: stalled NDJSON reader bounded away")
def stalled_reader(ctx: ChaosContext) -> str:
    """A reader that stops reading: its connection is bounded away by the
    per-write timeout and the sweep, other readers, and the daemon never
    notice."""
    spec = _spec(ctx.seed + 5000, wide=True)
    manager = JobManager(ctx.workdir / "state")
    with _service(
        ctx, manager=manager, stream_write_timeout=0.5, stream_sndbuf=2048
    ) as svc:
        host, port = svc.endpoint
        client = ServiceClient(host, port)
        job_id = client.submit(spec)["job_id"]
        # The stalled subscriber: sends the request, then reads nothing.
        # A tiny receive buffer (paired with the service's tiny send
        # buffer) makes the kernel pipeline fill after a few rows, so
        # the server's per-write timeout genuinely engages.
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
        stalled.settimeout(30)
        stalled.connect((host, port))
        stalled.sendall(
            f"GET /v1/jobs/{job_id}/rows HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n\r\n".encode("ascii")
        )
        time.sleep(0.2)  # let the handler enter the stream
        # Meanwhile the job and a well-behaved reader proceed untouched.
        _done_with_serial_rows(
            client, job_id, spec, "with a stalled subscriber attached", None
        )
        # The daemon stays healthy and sheds the stalled connection:
        # reading the already-buffered bytes must hit EOF (server-side
        # close), not block forever.
        status, _h, health = _request(host, port, "GET", "/v1/health")
        assert status == 200 and health["ok"] is True
        stalled.settimeout(10.0)
        deadline = time.monotonic() + 30
        closed = False
        while time.monotonic() < deadline:
            try:
                if stalled.recv(65536) == b"":
                    closed = True
                    break
            except socket.timeout:
                break
            except OSError:
                closed = True
                break
        stalled.close()
        assert closed, "server never dropped the stalled subscriber"
        # No handler thread is left holding the stream refcount.
        deadline = time.monotonic() + 10
        job = manager.get(job_id)
        while time.monotonic() < deadline and job.active_streams:
            time.sleep(0.05)
        assert job.active_streams == 0, "stalled stream leaked a refcount"
    return "stalled subscriber dropped by write timeout; sweep unaffected"
