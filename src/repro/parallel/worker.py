"""The ``python -m repro worker`` daemon: one leased cell at a time.

A worker connects to a :class:`repro.parallel.fabric.FabricServer`,
introduces itself, and then loops: announce ``ready``, receive one
cell, resolve any :class:`~repro.parallel.fabric.GraphRef` in it by
fetching the graph's arrays under its ``content_key`` (the rebuilt graph
is cached per process, so one travels at most once per worker), execute
the job function, and push
the result back tagged with the cell's dispatch key. While a cell is
executing, a daemon thread streams ``heartbeat`` frames at the interval
the server advertised in its ``welcome`` — the server treats silence as
death, so a SIGKILLed or partitioned worker forfeits its lease and the
cell is requeued elsewhere.

Workers are deliberately dumb: no retry logic, no quarantine decisions,
no knowledge of the sweep. All fault policy lives server-side in the
shared :class:`~repro.parallel.supervisor.AttemptLedger`; the worker's
only obligations are heartbeats while busy and honest error frames
(carrying the remote traceback and a retryable flag) when a cell
raises. A lost connection is survivable: the worker reconnects with
backoff up to ``reconnect_attempts`` times — the server dedupes
anything it already has.

Chaos hooks (:class:`WorkerChaos`, parsed from the
``REPRO_WORKER_CHAOS`` environment variable) let the chaos harness
inject distributed-only failure modes that cannot be expressed as a
job-function wrapper: severing the socket mid-result-upload and
delivering a result twice. First-attempt claims use O_CREAT|O_EXCL
marker files so exactly one worker process injects each fault no matter
how cells land.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import pickle
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chemistry.tasks import graph_from_arrays
from repro.parallel.fabric import (
    PROTOCOL_VERSION,
    GraphRef,
    recv_frame,
    send_frame,
)
from repro.util import ConfigurationError

#: Env var holding the JSON chaos spec for spawned workers.
CHAOS_ENV = "REPRO_WORKER_CHAOS"


@dataclass
class WorkerChaos:
    """Fault-injection spec for one worker daemon (testing only).

    ``sever``: labels whose result upload is cut short — the worker
    closes its socket mid-frame and reconnects, leaving the server a
    torn upload to recover from. ``dup``: labels whose result frame is
    sent twice, exercising idempotent dedupe. Labels are matched as
    substrings of the job's ``label`` attribute (falling back to
    ``str(job)``); each label fires once across all workers sharing
    ``marker_dir``.
    """

    marker_dir: str = ""
    sever: list[str] = field(default_factory=list)
    dup: list[str] = field(default_factory=list)

    @classmethod
    def from_env(cls) -> "WorkerChaos | None":
        raw = os.environ.get(CHAOS_ENV)
        if not raw:
            return None
        spec = json.loads(raw)
        return cls(
            marker_dir=spec.get("marker_dir", ""),
            sever=list(spec.get("sever", ())),
            dup=list(spec.get("dup", ())),
        )

    def _first(self, tag: str, label: str) -> bool:
        """Claim a one-shot injection atomically across worker processes."""
        if not self.marker_dir:
            return True
        name = "".join(c if c.isalnum() else "_" for c in f"{tag}-{label}")
        path = os.path.join(self.marker_dir, name)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError as exc:
            if exc.errno == errno.EEXIST:
                return False
            raise
        os.close(fd)
        return True

    def _match(self, labels: list[str], job: Any) -> str | None:
        # A SweepCell's display label is a computed property, so it never
        # shows up in the dataclass repr — check it explicitly.
        text = f"{getattr(job, 'label', '')}\n{job}"
        for label in labels:
            if label in text:
                return label
        return None


class _Heartbeat:
    """Streams heartbeats for the currently leased cell."""

    def __init__(self, sock: socket.socket, lock: threading.Lock, interval: float):
        self._sock = sock
        self._lock = lock
        self._interval = interval
        self._index: int | None = None
        self._cond = threading.Condition()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._loop, name="worker-heartbeat", daemon=True
        )
        self._thread.start()

    def lease(self, index: int) -> None:
        with self._cond:
            self._index = index
            self._cond.notify()

    def release(self) -> None:
        with self._cond:
            self._index = None

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify()

    def _loop(self) -> None:
        while True:
            with self._cond:
                while self._index is None and not self._stopped:
                    self._cond.wait()
                if self._stopped:
                    return
                index = self._index
            try:
                send_frame(self._sock, ("heartbeat", index), self._lock)
            except OSError:
                return  # connection gone; main loop will notice
            time.sleep(self._interval)


class _SocketSevered(Exception):
    """Raised by chaos injection after deliberately closing the socket."""


class _ShutdownRequested(Exception):
    """The server sent ``shutdown`` while we were mid-exchange."""


def _fetch_blob(
    sock: socket.socket, lock: threading.Lock, key: str
) -> Any:
    """Request and synchronously receive one content-keyed blob.

    Safe only while this worker is the one the server thinks is busy:
    the protocol is strictly request/response then, so the next frames
    on the wire are the answer to this ``fetch`` (or a shutdown).
    """
    send_frame(sock, ("fetch", key), lock)
    while True:
        frame = recv_frame(sock)
        kind = frame[0]
        if kind == "blob" and frame[1] == key:
            return pickle.loads(frame[2])
        if kind == "no-blob":
            raise ConfigurationError(
                f"server has no blob {key[:12]} (stale dispatch?)"
            )
        if kind == "shutdown":
            raise _ShutdownRequested()
        # Anything else mid-fetch is unexpected; skip it.


def _resolve_graph(
    job: Any,
    sock: socket.socket,
    lock: threading.Lock,
    cache: dict[str, Any],
) -> Any:
    """Swap a :class:`GraphRef` back for the real graph, fetching by key."""
    ref = getattr(job, "graph", None)
    if not isinstance(ref, GraphRef):
        return job
    graph = cache.get(ref.key)
    if graph is None:
        graph = cache[ref.key] = graph_from_arrays(**_fetch_blob(sock, lock, ref.key))
    return dataclasses.replace(job, graph=graph)


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    reconnect_attempts: int = 5,
    reconnect_delay: float = 0.5,
    chaos: WorkerChaos | None = None,
    log: Callable[[str], None] | None = None,
) -> int:
    """Serve cells from the fabric at ``(host, port)`` until shutdown.

    Returns a process exit code: 0 after an orderly ``shutdown`` frame,
    1 when the server stays unreachable past ``reconnect_attempts``.
    """
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    if chaos is None:
        chaos = WorkerChaos.from_env()
    say = log if log is not None else (lambda _msg: None)
    blob_cache: dict[str, Any] = {}
    fn_cache: dict[str, Callable[[Any], Any]] = {}
    attempts_left = int(reconnect_attempts)
    while True:
        try:
            outcome = _serve_session(
                host, port, worker_id, blob_cache, fn_cache, chaos, say
            )
        except (ConnectionError, OSError, EOFError, _SocketSevered) as exc:
            attempts_left -= 1
            if attempts_left < 0:
                say(f"worker {worker_id}: giving up on {host}:{port} ({exc!r})")
                return 1
            say(f"worker {worker_id}: reconnecting after {exc!r}")
            time.sleep(reconnect_delay)
            continue
        if outcome == "shutdown":
            say(f"worker {worker_id}: orderly shutdown")
            return 0
        # Session ended without shutdown (server closed); try again.
        attempts_left -= 1
        if attempts_left < 0:
            return 1
        time.sleep(reconnect_delay)


def _serve_session(
    host: str,
    port: int,
    worker_id: str,
    blob_cache: dict[str, Any],
    fn_cache: dict[str, Callable[[Any], Any]],
    chaos: WorkerChaos | None,
    say: Callable[[str], None],
) -> str:
    """One connect-serve-disconnect cycle; returns why it ended."""
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(None)
    wlock = threading.Lock()
    heartbeat: _Heartbeat | None = None
    try:
        send_frame(sock, ("hello", worker_id, PROTOCOL_VERSION, os.getpid()), wlock)
        frame = recv_frame(sock)
        if isinstance(frame, tuple) and frame and frame[0] == "shutdown":
            return "shutdown"  # fabric is closing; exit before the handshake
        if not (isinstance(frame, tuple) and frame and frame[0] == "welcome"):
            raise ConfigurationError(f"expected welcome, got {frame!r}")
        session = frame[1]
        heartbeat = _Heartbeat(sock, wlock, float(session["heartbeat"]))
        send_frame(sock, ("ready",), wlock)
        say(f"worker {worker_id}: joined fabric at {host}:{port}")
        while True:
            frame = recv_frame(sock)
            kind = frame[0]
            if kind == "shutdown":
                return "shutdown"
            if kind != "cell":
                continue  # future-proof: ignore unknown server frames
            _kind, index, key, fn_key, payload = frame
            heartbeat.lease(index)
            try:
                reply, job = _execute(
                    index,
                    key,
                    fn_key,
                    payload,
                    sock,
                    wlock,
                    blob_cache,
                    fn_cache,
                )
                if chaos is not None:
                    _chaos_send(sock, wlock, reply, chaos, job)
                else:
                    send_frame(sock, reply, wlock)
            except _ShutdownRequested:
                return "shutdown"
            finally:
                heartbeat.release()
            send_frame(sock, ("ready",), wlock)
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        try:
            sock.close()
        except OSError:
            pass


def _execute(
    index: int,
    key: str,
    fn_key: str,
    payload: bytes,
    sock: socket.socket,
    wlock: threading.Lock,
    blob_cache: dict[str, Any],
    fn_cache: dict[str, Callable[[Any], Any]],
) -> tuple[tuple, Any]:
    """Run one cell; returns the (result|error) frame to send + the job."""
    fn = fn_cache.get(fn_key)
    if fn is None:
        fn = _fetch_blob(sock, wlock, fn_key)
        fn_cache[fn_key] = fn
    try:
        job = pickle.loads(payload)
    except Exception as exc:  # corrupt dispatch: report, don't retry
        return (
            "error",
            index,
            key,
            ("DispatchDecodeError", str(exc), traceback.format_exc()),
            False,
        ), None
    # Graph fetch talks to the socket: a failure here is a session
    # failure (reconnect + server requeue), never a cell error.
    job = _resolve_graph(job, sock, wlock, blob_cache)
    try:
        value = fn(job)
        return (
            "result",
            index,
            key,
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL),
        ), job
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 - forwarded to the server
        retryable = not isinstance(exc, ConfigurationError)
        return (
            "error",
            index,
            key,
            (type(exc).__name__, str(exc), traceback.format_exc()),
            retryable,
        ), job


def _chaos_send(
    sock: socket.socket,
    wlock: threading.Lock,
    reply: tuple,
    chaos: WorkerChaos,
    job: Any,
) -> None:
    sever_label = chaos._match(chaos.sever, job)
    if sever_label is not None and chaos._first("sever", sever_label):
        # Sever mid-result-upload: write the length prefix plus a
        # truncated body, then hard-close. The server sees a torn frame
        # and EOF, requeues the cell, and this worker reconnects.
        payload = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        with wlock:
            sock.sendall(struct.Struct("!Q").pack(len(payload)))
            sock.sendall(payload[: max(1, len(payload) // 2)])
            sock.close()
        raise _SocketSevered(f"severed mid-upload of {sever_label!r}")
    send_frame(sock, reply, wlock)
    dup_label = chaos._match(chaos.dup, job)
    if dup_label is not None and chaos._first("dup", dup_label):
        send_frame(sock, reply, wlock)  # duplicate delivery, verbatim
