"""The distributed sweep fabric: leased TCP workers as a transport.

:mod:`repro.parallel.supervisor` owns the supervision loop; this module
stretches it across hosts by giving it a TCP transport.
A :class:`FabricServer` listens on a TCP endpoint; any number of
``python -m repro worker`` daemons (:mod:`repro.parallel.worker`)
connect, pull cells under **time-bounded leases**, stream heartbeats
while computing, and push results tagged with the cell's content key.
:class:`DistributedExecutor` wraps the server behind the
:class:`~repro.parallel.executor.CellExecutor` protocol, so the sweep
orchestrator cannot tell the backends apart.

Design rules:

- **One cell per worker at a time.** The server always knows which
  worker holds which cell; a vanished worker costs exactly its in-flight
  cell, never the batch.
- **Leases, not trust.** A dispatched cell carries a wall-clock lease.
  A cell that overruns it (hung or frozen worker) is revoked and
  requeued; a worker that stops heartbeating (SIGKILL, network
  partition, SIGSTOP) has its connection declared dead and its cell
  requeued. Both paths consume one retry attempt in the *same*
  :func:`~repro.parallel.supervisor.supervise` loop the forked pool
  runs under — requeue, deterministic jittered backoff, quarantine
  after ``max_attempts``.
- **Content-keyed transfer, never a graph per cell.** Task graphs and
  the job function travel once per worker as content-keyed blobs (a
  remote worker shares no memory with this process, unlike a forked
  local one; the payload is the arrays of ``TaskGraph.to_arrays()``
  under the graph's ``content_key``): cells
  are dispatched with a :class:`GraphRef` in place of the graph, and
  workers ``fetch`` the bytes by key on first use. Results come back
  tagged with a dispatch key derived from the cell's content, so a
  **duplicate completion** — a partitioned-then-healed worker pushing a
  result the server already requeued and recomputed — is deduplicated
  idempotently (first valid result wins, the rest are counted and
  dropped).
- **Graceful degradation.** If no worker ever connects, or every remote
  worker is lost mid-sweep, the executor reroutes the unfinished cells
  through the fallback local executor after one structured
  :class:`~repro.parallel.executor.DegradedExecutionWarning` — a dead
  fleet costs its in-flight cells, not the sweep.

Wire protocol (version :data:`PROTOCOL_VERSION`): length-prefixed
pickled tuples; see ``docs/distributed.md`` for the frame and failure
matrix. Cells are assumed idempotent and deterministic (sweep cells are
pure functions of their inputs), which is what makes requeue-on-lease-
expiry and duplicate dedupe *correct*, not merely convenient.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import queue as queue_mod
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.chemistry.tasks import TaskGraph
from repro.parallel.executor import CellExecutor, LocalExecutor, warn_degraded
from repro.parallel.supervisor import (
    HOST_RETRY_POLICY,
    Event,
    SupervisorStats,
    Transport,
    job_label,
    supervise,
)
from repro.util import ConfigurationError

#: Fabric wire-protocol version; a worker with a different version is
#: turned away at the handshake.
PROTOCOL_VERSION = 1

#: Hard cap on a single frame (a task graph's array blob fits well under
#: this; anything larger is a protocol violation, not a workload).
MAX_FRAME_BYTES = 1 << 30

_LEN = struct.Struct("!Q")


class FabricProtocolError(ConfigurationError):
    """A malformed or oversized frame on the fabric socket."""


class NoWorkersError(RuntimeError):
    """The fabric has no live workers left; ``pending`` holds the
    indices of jobs that still need a home."""

    def __init__(self, reason: str, pending: list[int]) -> None:
        super().__init__(reason)
        self.reason = reason
        self.pending = pending


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def send_frame(sock: socket.socket, obj: Any, lock: threading.Lock | None = None) -> None:
    """Write one length-prefixed pickled frame (thread-safe with ``lock``)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _LEN.pack(len(payload)) + payload
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def recv_frame(sock: socket.socket) -> Any:
    """Read one frame; raises ``EOFError`` on a cleanly closed socket."""
    header = _recv_exact(sock, _LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FabricProtocolError(f"frame of {length} bytes exceeds cap")
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise EOFError("fabric peer closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Content-keyed references
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GraphRef:
    """A content-keyed stand-in for a task graph in a dispatched cell.

    ``key`` is the graph's ``content_key``; workers resolve it through
    the fabric's ``fetch`` channel to the graph's dense arrays, caching
    the rebuilt graph per process.
    """

    key: str
    nbytes: int = 0


def blob_key(data: bytes) -> str:
    """The content address of one transferable blob."""
    return hashlib.sha256(data).hexdigest()


def _swap_graph_refs(
    jobs: Sequence[Any], blobs: dict[str, bytes]
) -> list[tuple[Any, bytes, str]]:
    """Prepare jobs for dispatch: pickle each with its task graph
    replaced by a :class:`GraphRef`, registering the graph's arrays in
    ``blobs`` under its ``content_key`` once per distinct graph. Returns
    ``(original_job, payload_bytes, key)`` per job, where ``key`` is the
    dispatch content key.
    """
    out: list[tuple[Any, bytes, str]] = []
    for job in jobs:
        ship = job
        graph = getattr(job, "graph", None)
        if isinstance(graph, TaskGraph) and dataclasses.is_dataclass(job):
            gkey = graph.content_key
            if gkey not in blobs:
                arrays = graph.to_arrays()
                blobs[gkey] = pickle.dumps(arrays, protocol=pickle.HIGHEST_PROTOCOL)
            ship = dataclasses.replace(
                job, graph=GraphRef(key=gkey, nbytes=len(blobs[gkey]))
            )
        payload = pickle.dumps(ship, protocol=pickle.HIGHEST_PROTOCOL)
        out.append((job, payload, blob_key(payload)))
    return out


# ----------------------------------------------------------------------
# The server
# ----------------------------------------------------------------------

class _WorkerConn:
    """One connected worker daemon: socket, identity, and what it owes."""

    __slots__ = ("sock", "wlock", "worker_id", "pid", "state", "cell", "last_seen")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.wlock = threading.Lock()
        self.worker_id = "?"
        self.pid = -1
        # new -> busy <-> idle, any -> dead. A worker is busy from its
        # hello, and from each cell it is sent, until it next says ready.
        self.state = "new"
        # Index of the cell it was sent and has not answered; None once
        # answered or once the lease is revoked (it may still be chewing
        # on the cell: busy, but owing nothing).
        self.cell: int | None = None
        self.last_seen = 0.0

    def send(self, obj: Any) -> None:
        send_frame(self.sock, obj, self.wlock)

    def close(self) -> None:
        self.state = "dead"
        try:
            # close() alone neither hangs up on the peer nor wakes this
            # connection's reader thread while that thread sits in recv.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class FabricServer:
    """TCP sweep supervisor: accepts workers, leases cells, collects results.

    Args:
        host, port: bind address (``port=0`` picks an ephemeral port;
            read :attr:`endpoint` afterwards).
        lease: default per-cell wall-clock lease in seconds. A cell not
            completed within its lease is revoked and requeued.
        heartbeat: heartbeat interval advertised to workers (default
            ``lease / 4``, clamped to [0.05, 2.0]).
        connect_timeout: how long :meth:`run` waits for the *first*
            worker before giving up on the fabric entirely.
        degrade_after: grace period with zero live workers (after at
            least one had connected) before :meth:`run` abandons the
            fabric mid-sweep.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease: float = 30.0,
        heartbeat: float | None = None,
        connect_timeout: float = 10.0,
        degrade_after: float = 5.0,
    ) -> None:
        if lease <= 0:
            raise ConfigurationError(f"lease must be > 0, got {lease}")
        self.lease = float(lease)
        self.heartbeat = (
            float(heartbeat)
            if heartbeat is not None
            else min(2.0, max(0.05, self.lease / 4.0))
        )
        self.connect_timeout = float(connect_timeout)
        self.degrade_after = float(degrade_after)
        self._listener = socket.create_server((host, port), backlog=16)
        self._listener.settimeout(0.25)
        self._conns: list[_WorkerConn] = []
        self._conns_lock = threading.Lock()
        self._events: queue_mod.Queue = queue_mod.Queue()
        self._blobs: dict[str, bytes] = {}
        self._closed = False
        self._ever_connected = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-accept", daemon=True
        )
        self._accept_thread.start()

    # -- lifecycle -----------------------------------------------------
    @property
    def endpoint(self) -> tuple[str, int]:
        """The ``(host, port)`` workers should connect to."""
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    def close(self) -> None:
        """Shut the fabric down: tell workers to exit, close every socket."""
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.send(("shutdown",))
            except OSError:
                pass
            conn.close()

    def __enter__(self) -> "FabricServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- connection plumbing (accept + reader threads) ------------------
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _WorkerConn(sock)
            with self._conns_lock:
                self._conns.append(conn)
            threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name="fabric-reader",
                daemon=True,
            ).start()

    def _reader_loop(self, conn: _WorkerConn) -> None:
        while True:
            try:
                frame = recv_frame(conn.sock)
            except Exception as exc:  # noqa: BLE001 - reported as "gone"
                # EOF, a reset, an over-cap length, or bytes that do not
                # unpickle here (any exception: a peer on another code
                # version is enough). Whatever it was, this connection is
                # over and the coordinator must hear about it.
                self._events.put(("gone", conn, repr(exc)))
                return
            self._events.put(("frame", conn, frame))

    def live_workers(self) -> list[_WorkerConn]:
        """Connections that have completed the handshake and not died."""
        with self._conns_lock:
            return [c for c in self._conns if c.state in ("idle", "busy")]

    def worker_pids(self) -> list[int]:
        """Remote daemon PIDs (chaos/testing hook)."""
        return [c.pid for c in self.live_workers() if c.pid > 0]

    def _drop(self, conn: _WorkerConn) -> None:
        conn.close()
        with self._conns_lock:
            if conn in self._conns:
                self._conns.remove(conn)

    def run(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        *,
        lease: float | None = None,
        retry: Any = None,
        on_error: str = "quarantine",
        labels: Sequence[str] | None = None,
        on_dispatch: Callable[[int, int], None] | None = None,
        stats: SupervisorStats | None = None,
        deadline: float | None = None,
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, result-or-CellFailure)`` in completion order:
        :func:`~repro.parallel.supervisor.supervise` over this server's
        workers, ``lease`` (default: the server's) being the per-cell
        budget.

        Raises :class:`NoWorkersError` (carrying the unfinished indices)
        when the fabric is or becomes workerless — the executor layer
        turns that into local fallback, so callers of the executor never
        see it.
        """
        stats = stats if stats is not None else SupervisorStats()
        pending = set(range(len(jobs)))
        try:
            for index, outcome in supervise(
                _FabricTransport(self, fn, jobs, stats),
                jobs,
                budget=float(lease) if lease is not None else self.lease,
                retry=retry if retry is not None else HOST_RETRY_POLICY,
                on_error=on_error,
                labels=labels,
                on_dispatch=on_dispatch,
                deadline=deadline,
            ):
                pending.discard(index)
                yield index, outcome
        except NoWorkersError as exc:
            exc.pending = sorted(pending)
            stats.degraded += len(pending)
            raise


#: What follows the kind in each frame a worker may send. Anything else
#: on the wire — another kind, arity or type — is a protocol violation.
_WORKER_FRAMES: dict[str, tuple[type, ...]] = {
    "hello": (str, int, int),  # worker id, protocol version, pid
    "ready": (),
    "heartbeat": (int,),  # cell index
    "fetch": (str,),  # blob key
    "result": (int, str, bytes),  # cell index, dispatch key, pickled value
    "error": (int, str, tuple, bool),  # ..., (type, message, traceback), retryable
}


def _well_formed(frame: Any) -> bool:
    if not (isinstance(frame, tuple) and frame and isinstance(frame[0], str)):
        return False
    fields = _WORKER_FRAMES.get(frame[0])
    if fields is None or len(frame) != 1 + len(fields):
        return False
    if not all(isinstance(value, kind) for value, kind in zip(frame[1:], fields)):
        return False
    if frame[0] == "error":
        error = frame[3]
        return len(error) == 3 and all(isinstance(part, str) for part in error)
    return True


class _FabricTransport(Transport):
    """One sweep's view of a :class:`FabricServer`: frames in, events out.

    Handles the handshake, ``ready``, heartbeats and blob fetches itself
    and hands the loop only completions and losses. The loop's per-cell
    budget is the lease; the second clock — heartbeat silence — is this
    transport's, checked on every :meth:`wait`. A peer that sends a frame
    that cannot be decoded or is not one of :data:`_WORKER_FRAMES` loses
    its connection, and its leased cell goes back through the loop like
    any lost worker's.
    """

    def __init__(
        self,
        server: FabricServer,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        stats: SupervisorStats,
    ) -> None:
        self.server = server
        self.stats = stats
        fn_bytes = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        self._fn_key = blob_key(fn_bytes)
        server._blobs = {self._fn_key: fn_bytes}
        prepared = _swap_graph_refs(jobs, server._blobs)
        self._payloads = [payload for _job, payload, _key in prepared]
        self.keys = [key for _job, _payload, key in prepared]
        self._hb_timeout = max(3.0 * server.heartbeat, 0.5)
        self._started = self._last_alive = time.monotonic()

    def idle(self) -> list[_WorkerConn]:
        return [c for c in self.server.live_workers() if c.state == "idle"]

    def send(self, conn: _WorkerConn, task: Any) -> int:
        index = task.index
        try:
            conn.send(
                ("cell", index, self.keys[index], self._fn_key, self._payloads[index])
            )
        except OSError:
            self.stats.crashes += 1
            self.stats.disconnects += 1
            self.server._drop(conn)
            raise
        conn.state, conn.cell = "busy", index
        conn.last_seen = time.monotonic()
        return conn.pid

    def expire(self, conn: _WorkerConn) -> tuple[str, str]:
        # The worker may just be slow, so the connection is kept; it
        # stays busy — out of rotation — until it reports ready, and its
        # late result, if any, is the loop's to dedupe.
        self.stats.lease_expiries += 1
        self.stats.timeouts += 1
        conn.cell = None
        return "LeaseExpired", "lease revoked"

    def wait(self, timeout: float | None) -> list[Event]:
        events: list[Event] = []
        try:
            item = self.server._events.get(
                timeout=0.05 if timeout is None else min(timeout, 0.05)
            )
            while True:
                kind, conn, body = item
                if kind == "gone":
                    events += self._lose(
                        conn, "WorkerCrash", f"connection lost mid-cell ({body})"
                    )
                else:
                    events += self._on_frame(conn, body)
                item = self.server._events.get_nowait()
        except queue_mod.Empty:
            pass
        # Heartbeats flow while a cell executes, so a busy worker gone
        # silent is dead or partitioned (SIGKILL, SIGSTOP, network), with
        # or without a live lease, and must not keep the fabric looking
        # alive. Checked after the queue is drained: frames that arrived
        # between sweeps count as signs of life.
        now = time.monotonic()
        alive = False
        for conn in self.server.live_workers():
            if conn.state == "busy" and now - conn.last_seen > self._hb_timeout:
                if conn.cell is not None:
                    self.stats.lease_expiries += 1
                events += self._lose(
                    conn,
                    "WorkerLost",
                    f"no heartbeat for {self._hb_timeout:g}s "
                    "(worker dead or partitioned)",
                )
            else:
                alive = True
        if alive:
            self._last_alive = now
        elif not events:
            ever = self.server._ever_connected
            grace = self.server.degrade_after if ever else self.server.connect_timeout
            if now - (self._last_alive if ever else self._started) > grace:
                raise NoWorkersError(
                    "no remote workers " + ("left" if ever else "ever connected"), []
                )
        return events

    def close(self) -> None:
        # A worker still chewing on a cell of this sweep owes the next
        # one nothing; it rejoins the rotation when it says ready.
        for conn in self.server.live_workers():
            conn.cell = None

    def _lose(self, conn: _WorkerConn, error_type: str, message: str) -> list[Event]:
        """Drop ``conn``; a ``lost`` event if it still owed us a cell."""
        if conn.state == "dead":
            return []
        owed = conn.cell is not None
        self.server._drop(conn)
        self.stats.disconnects += 1
        if not owed:
            return []
        self.stats.crashes += 1
        return [Event("lost", conn, payload=(error_type, message, ""))]

    def _on_frame(self, conn: _WorkerConn, frame: Any) -> list[Event]:
        if conn.state == "dead":
            return []
        if not _well_formed(frame):
            return self._lose(conn, "WorkerCrash", "malformed frame from worker")
        kind = frame[0]
        conn.last_seen = time.monotonic()
        if kind == "hello":
            _, worker_id, version, pid = frame
            if version != PROTOCOL_VERSION:
                try:
                    conn.send(("shutdown",))
                except OSError:
                    pass
                self.server._drop(conn)
                return []
            conn.worker_id, conn.pid, conn.state = worker_id, pid, "busy"
            self.server._ever_connected = True
            try:
                conn.send(
                    (
                        "welcome",
                        {
                            "version": PROTOCOL_VERSION,
                            "lease": self.server.lease,
                            "heartbeat": self.server.heartbeat,
                        },
                    )
                )
            except OSError:
                self.server._drop(conn)
        elif kind == "ready":
            # Sent after the handshake and after each completion. A peer
            # that says it while it owes a cell does not get a second one.
            if conn.state == "busy" and conn.cell is None:
                conn.state = "idle"
        elif kind == "fetch":
            data = self.server._blobs.get(frame[1])
            try:
                if data is None:
                    conn.send(("no-blob", frame[1]))
                else:
                    conn.send(("blob", frame[1], data))
            except OSError:
                pass  # reader thread will surface the loss
        elif kind in ("result", "error"):
            index, key = frame[1], frame[2]
            if conn.cell == index and self.keys[index] == key:
                conn.cell = None
            if kind == "error":
                return [Event("error", conn, index, key, frame[3], frame[4])]
            try:
                value = pickle.loads(frame[3])
            except Exception as exc:  # noqa: BLE001 - costs the cell an attempt
                error = ("ResultDecodeError", f"undecodable result: {exc}", "")
                return [Event("error", conn, index, key, error)]
            return [Event("result", conn, index, key, value)]
        return []  # heartbeat: last_seen is already refreshed


# ----------------------------------------------------------------------
# The executor wrapper
# ----------------------------------------------------------------------

class DistributedExecutor(CellExecutor):
    """The ``distributed`` backend: a :class:`FabricServer` plus a local fallback.

    Construct (optionally via ``make_executor("distributed", ...)``),
    read :attr:`endpoint`, point ``python -m repro worker --connect
    HOST:PORT`` daemons at it, and hand the executor to
    :class:`~repro.core.sweep.SweepRunner` (``executor=``). The sweep's
    ``timeout`` knob becomes the per-cell lease. If the fabric is or
    becomes workerless, unfinished cells rerun through the fallback
    local executor (fresh retry budget) after a structured warning.
    """

    name = "distributed"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        bind: tuple[str, int] | str | None = None,
        lease: float = 30.0,
        heartbeat: float | None = None,
        connect_timeout: float = 10.0,
        degrade_after: float = 5.0,
    ) -> None:
        if bind is not None:
            host, port = parse_endpoint(bind) if isinstance(bind, str) else bind
        self.server = FabricServer(
            host,
            port,
            lease=lease,
            heartbeat=heartbeat,
            connect_timeout=connect_timeout,
            degrade_after=degrade_after,
        )

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server.endpoint

    def close(self) -> None:
        self.server.close()

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def run(
        self,
        fn,
        jobs,
        *,
        n_workers=1,
        timeout=None,
        retry=None,
        on_error="quarantine",
        labels=None,
        on_dispatch=None,
        stats=None,
        deadline=None,
    ):
        try:
            yield from self.server.run(
                fn,
                jobs,
                lease=timeout,
                retry=retry,
                on_error=on_error,
                labels=labels,
                on_dispatch=on_dispatch,
                stats=stats,
                deadline=deadline,
            )
        except NoWorkersError as exc:
            warn_degraded("distributed", exc.reason, once=False)
            pending = exc.pending
            for position, outcome in LocalExecutor().run(
                fn,
                [jobs[i] for i in pending],
                n_workers=n_workers,
                timeout=timeout,
                retry=retry,
                on_error=on_error,
                labels=[job_label(labels, i) for i in pending],
                on_dispatch=on_dispatch,
                stats=stats,
                deadline=deadline,
            ):
                yield pending[position], outcome


def parse_endpoint(spec: str) -> tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)`` (host defaults to loopback)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ConfigurationError(
            f"endpoint must look like HOST:PORT, got {spec!r}"
        )
    return host or "127.0.0.1", int(port)
