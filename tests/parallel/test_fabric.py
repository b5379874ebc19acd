"""Distributed fabric: framing, registry, leases, dedupe, degradation.

Workers here are :func:`repro.parallel.worker.run_worker` driven in
daemon *threads* against an in-process :class:`FabricServer` — the real
wire protocol over loopback TCP without subprocess spawn cost. Full
subprocess workers are exercised by the distributed chaos suite
(``python -m repro chaos --quick --only distributed``).
"""

import pickle
import socket
import struct
import threading
import time
import warnings
from dataclasses import dataclass

import pytest

from repro.chemistry.tasks import graph_from_arrays, synthetic_task_graph
from repro.core.sweep import SweepCell, execute_cell
from repro.parallel.executor import (
    EXECUTOR_BACKENDS,
    CellExecutor,
    DegradedExecutionWarning,
    LocalExecutor,
    SerialExecutor,
    _coerce_option,
    format_executor_spec,
    make_executor,
    parse_executor_spec,
)
from repro.parallel.fabric import (
    PROTOCOL_VERSION,
    DistributedExecutor,
    FabricProtocolError,
    GraphRef,
    _swap_graph_refs,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.parallel.supervisor import CellFailure, SupervisorStats, WorkerError
from repro.parallel.worker import WorkerChaos, run_worker
from repro.faults import RetryPolicy
from repro.simulate import commodity_cluster
from repro.util import ConfigurationError

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.0)


def shout(job):
    return str(job).upper()


def poison(job):
    if str(job).endswith("-2"):
        raise ValueError(f"poison {job}")
    return str(job).upper()


def bad_config(job):
    if str(job).endswith("-1"):
        raise ConfigurationError("unusable cell")
    return str(job).upper()


def slow_shout(job):
    time.sleep(2.0)
    return str(job).upper()


@dataclass(frozen=True)
class FakeCell:
    """A minimal graph-carrying job (stands in for a SweepCell)."""

    graph: object
    value: int

    @property
    def label(self) -> str:
        return f"cell-{self.value}"


def flops_plus_value(cell):
    return cell.graph.total_flops + cell.value


def start_workers(endpoint, n, *, chaos=None, reconnect_attempts=5):
    """Run ``n`` worker daemons in threads; returns the thread list."""
    host, port = endpoint
    threads = []
    for i in range(n):
        thread = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs=dict(
                worker_id=f"t{i}",
                reconnect_attempts=reconnect_attempts,
                reconnect_delay=0.1,
                chaos=chaos,
            ),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


def collect(iterator, n):
    results = [None] * n
    for index, outcome in iterator:
        results[index] = outcome
    return results


def remote(ex, fn, jobs, stats=None, **kwargs):
    """``ex.run`` collected, with no cell rerouted to the local fallback."""
    stats = stats if stats is not None else SupervisorStats()
    got = collect(ex.run(fn, jobs, retry=FAST_RETRY, stats=stats, **kwargs), len(jobs))
    assert stats.degraded == 0
    return got


class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, ("hello", "w0", 1, 42))
            assert recv_frame(b) == ("hello", "w0", 1, 42)
        finally:
            a.close()
            b.close()

    def test_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 40).to_bytes(8, "big"))
            with pytest.raises(FabricProtocolError):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestParseEndpoint:
    def test_host_and_port(self):
        assert parse_endpoint("10.0.0.7:9100") == ("10.0.0.7", 9100)

    def test_host_defaults_to_loopback(self):
        assert parse_endpoint(":9100") == ("127.0.0.1", 9100)

    def test_garbage_rejected(self):
        for bad in ("nope", "host:", "host:abc"):
            with pytest.raises(ConfigurationError):
                parse_endpoint(bad)


class TestExecutorRegistry:
    def test_builtin_names(self):
        assert set(EXECUTOR_BACKENDS) == {"local", "serial", "distributed"}

    def test_make_by_name(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("local"), LocalExecutor)

    def test_instance_passes_through(self):
        ex = SerialExecutor()
        assert make_executor(ex) is ex

    def test_instance_plus_options_rejected(self):
        with pytest.raises(ConfigurationError, match="instance"):
            make_executor(SerialExecutor(), lease=5.0)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            make_executor("carrier-pigeon")


class TestExecutorSpecStrings:
    """One grammar for --executor, api.sweep(executor=...), and the service."""

    def test_bare_name(self):
        assert parse_executor_spec("local") == ("local", {})

    def test_options_with_typing(self):
        name, options = parse_executor_spec(
            "distributed?bind=0.0.0.0:9100&lease=7.5&degrade_after=2"
        )
        assert name == "distributed"
        assert options == {"bind": "0.0.0.0:9100", "lease": 7.5, "degrade_after": 2}
        assert isinstance(options["degrade_after"], int)

    def test_bool_words(self):
        words = ("true", "yes", "On", "false", "no", "OFF")
        assert [_coerce_option(word) for word in words] == [True] * 3 + [False] * 3

    @pytest.mark.parametrize("spec", ["local?foo=1", "serial?jobs=2", "distributed?fallback=no"])
    def test_options_the_backend_does_not_take_rejected(self, spec):
        """The names come from the backend constructor's signature."""
        with pytest.raises(ConfigurationError, match="takes no option"):
            parse_executor_spec(spec)

    def test_option_value_the_backend_rejects_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="lease=abc"):
            make_executor("distributed?bind=127.0.0.1:0&lease=abc")

    @pytest.mark.parametrize(
        "option",
        ["lease=nan", "connect_timeout=-1", "degrade_after=-5"],
    )
    def test_fabric_timing_options_are_checked(self, option):
        """A NaN lease would advertise a NaN heartbeat, which a worker's
        heartbeat thread dies on; such a value is refused before a port
        is bound."""
        name = option.partition("=")[0]
        with pytest.raises(ConfigurationError, match=f"{name} must be"):
            make_executor(f"distributed?bind=127.0.0.1:0&{option}")

    def test_format_is_canonical_inverse(self):
        spec = "distributed?bind=127.0.0.1:0&lease=7.5"
        name, options = parse_executor_spec(spec)
        assert format_executor_spec(name, options) == spec
        assert format_executor_spec("local", {}) == "local"
        # option order never matters
        assert format_executor_spec(name, dict(reversed(list(options.items())))) == spec

    def test_malformed_specs_rejected(self):
        for bad in ("", "?", "local?", "local?x", "local?x=1&x=2", "nope?x=1"):
            with pytest.raises(ConfigurationError):
                parse_executor_spec(bad)

    def test_make_executor_accepts_spec_strings(self):
        ex = make_executor("distributed?bind=127.0.0.1:0&lease=9.0")
        try:
            assert isinstance(ex, DistributedExecutor)
            assert ex.server.lease == 9.0
        finally:
            ex.close()

    def test_keyword_options_layer_over_spec(self):
        ex = make_executor("distributed?bind=127.0.0.1:0&lease=9.0", lease=4.0)
        try:
            assert ex.server.lease == 4.0
        finally:
            ex.close()


class TestGraphRefs:
    def test_shared_graph_ships_once(self):
        graph = synthetic_task_graph(40, 5, seed=3)
        twin = synthetic_task_graph(40, 5, seed=3)  # equal content, other object
        jobs = [FakeCell(graph=graph, value=i) for i in range(3)]
        jobs.append(FakeCell(graph=twin, value=3))
        blobs = {}
        prepared = _swap_graph_refs(jobs, blobs)
        assert list(blobs) == [graph.content_key]  # one content -> one blob
        keys = {k for _job, _payload, k in prepared}
        assert len(keys) == 4  # but four distinct dispatch keys
        shipped = pickle.loads(prepared[0][1])
        assert shipped.graph == GraphRef(graph.content_key, len(blobs[graph.content_key]))
        rebuilt = graph_from_arrays(**pickle.loads(blobs[graph.content_key]))
        assert rebuilt.tasks == graph.tasks
        assert rebuilt.content_key == graph.content_key

    def test_blob_is_the_arrays_not_the_object(self, medium_graph):
        assert medium_graph.n_tasks == 625
        blobs = {}
        _swap_graph_refs([FakeCell(graph=medium_graph, value=0)], blobs)
        blob = blobs[medium_graph.content_key]
        assert len(blob) < len(pickle.dumps(medium_graph, pickle.HIGHEST_PROTOCOL))
        assert sorted(pickle.loads(blob)) == ["flops", "offsets", "quartets", "tau"]

    def test_graphless_jobs_untouched(self):
        blobs = {}
        prepared = _swap_graph_refs(["a", "b", FakeCell(graph=[1.0], value=0)], blobs)
        assert blobs == {}
        assert pickle.loads(prepared[0][1]) == "a"
        assert pickle.loads(prepared[2][1]).graph == [1.0]


class TestDistributedRoundTrip:
    def test_matches_serial(self):
        jobs = [f"job-{i}" for i in range(8)]
        stats = SupervisorStats()
        with DistributedExecutor(connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 2)
            got = remote(ex, shout, jobs, stats=stats)
        assert got == [shout(j) for j in jobs]
        assert stats.completed == len(jobs)
        assert stats.duplicates == 0

    def test_graph_fetched_by_key(self):
        graph = synthetic_task_graph(200, 6, seed=5)
        jobs = [FakeCell(graph=graph, value=i) for i in range(5)]
        with DistributedExecutor(connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 2)
            got = remote(ex, flops_plus_value, jobs)
        assert got == [flops_plus_value(j) for j in jobs]

    def test_folded_graph_runs_to_the_serial_row(self, small_problem):
        from repro.chemistry.symmetry import build_symmetric_task_graph

        folded = build_symmetric_task_graph(
            small_problem.basis, small_problem.blocks, small_problem.screen
        )
        assert not folded.has_standard_footprints
        cells = [
            SweepCell(model=model, graph=folded, machine=commodity_cluster(4), seed=9)
            for model in ("static_block", "work_stealing")
        ]
        with DistributedExecutor(connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 1)
            got = remote(ex, execute_cell, cells)
        serial = collect(SerialExecutor().run(execute_cell, cells), 2)
        assert [pickle.dumps(r) for r in got] == [pickle.dumps(r) for r in serial]

    def test_poison_job_quarantined(self):
        jobs = [f"job-{i}" for i in range(5)]
        stats = SupervisorStats()
        with DistributedExecutor(connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 2)
            got = remote(
                ex, poison, jobs, stats=stats, on_error="quarantine", labels=jobs
            )
        failure = got[2]
        assert isinstance(failure, CellFailure)
        assert failure.label == "job-2"
        assert failure.attempts == FAST_RETRY.max_attempts
        assert failure.error_type == "ValueError"
        assert [g for i, g in enumerate(got) if i != 2] == [
            "JOB-0", "JOB-1", "JOB-3", "JOB-4",
        ]
        assert stats.quarantined == 1

    def test_non_retryable_raises(self):
        jobs = [f"job-{i}" for i in range(3)]
        with DistributedExecutor(connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 1)
            with pytest.raises(WorkerError) as excinfo:
                remote(ex, bad_config, jobs)
        assert excinfo.value.error_type == "ConfigurationError"

    def test_lease_expiry_requeues(self):
        # One slow cell on a 0.5s lease: the lease expires, the cell is
        # requeued to the other worker, and the late result dedupes.
        jobs = [f"job-{i}" for i in range(3)]
        stats = SupervisorStats()
        with DistributedExecutor(lease=0.5, connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 2)
            got = remote(ex, slow_shout, jobs, stats=stats)
        assert got == [shout(j) for j in jobs]
        assert stats.lease_expiries >= 1
        assert stats.retries >= 1


class TestChaosHooks:
    def test_duplicate_delivery_deduped(self):
        jobs = [f"job-{i}" for i in range(4)]
        stats = SupervisorStats()
        chaos = WorkerChaos(dup=["job-0"])  # no marker_dir: fires on match
        with DistributedExecutor(connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 1, chaos=chaos)
            got = remote(ex, shout, jobs, stats=stats)
        assert got == [shout(j) for j in jobs]
        assert stats.duplicates >= 1
        assert stats.completed == len(jobs)

    def test_severed_upload_requeued(self, tmp_path):
        jobs = [f"job-{i}" for i in range(4)]
        stats = SupervisorStats()
        chaos = WorkerChaos(marker_dir=str(tmp_path), sever=["job-1"])
        with DistributedExecutor(connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 2, chaos=chaos)
            got = remote(ex, shout, jobs, stats=stats)
        assert got == [shout(j) for j in jobs]
        assert stats.disconnects >= 1
        assert stats.retries >= 1


def dawdle(job):
    time.sleep(0.05)
    return str(job).upper()


def _framed(obj):
    payload = pickle.dumps(obj)
    return struct.pack("!Q", len(payload)) + payload


#: What a misbehaving peer might put on the wire: (bytes, then hang up?).
ROGUE_BYTES = {
    "garbage": (struct.pack("!Q", 9) + b"not a pkl", False),
    "over-cap length prefix": (struct.pack("!Q", 1 << 40), False),
    "frame truncated mid-body": (_framed(("hello", "rogue", 1, 1))[:-4], True),
    "pickle naming a missing module": (
        struct.pack("!Q", 27) + b"cno_such_module_xyz\nThing\n.", False,
    ),
    "one-element hello": (_framed(("hello",)), False),
    "two-element result": (_framed(("result", 1)), False),
    "result with a list as index": (_framed(("result", [0], "key", b"")), False),
    "second hello on a welcomed connection": (
        _framed(("hello", "rogue", 1, 1)) * 2, False,
    ),
}


class TestRoguePeer:
    """A peer that breaks the protocol loses its connection, not the sweep."""

    @pytest.mark.parametrize("shape", sorted(ROGUE_BYTES))
    def test_bad_bytes_cost_one_connection(self, shape):
        data, hang_up = ROGUE_BYTES[shape]
        jobs = [f"job-{i}" for i in range(8)]
        stats = SupervisorStats()
        rogue = socket.socket()

        def misbehave(index, _pid):
            if index == 0:  # mid-sweep: seven 50 ms cells are still to run
                rogue.connect(ex.endpoint)
                rogue.sendall(data)
                if hang_up:
                    rogue.close()

        try:
            with DistributedExecutor(connect_timeout=20.0) as ex:
                start_workers(ex.endpoint, 1)
                got = remote(ex, dawdle, jobs, stats=stats, on_dispatch=misbehave)
        finally:
            rogue.close()
        assert got == [dawdle(j) for j in jobs]
        assert stats.disconnects == 1
        assert stats.completed == len(jobs) and stats.retries == 0

    def test_leased_cell_of_a_dropped_peer_is_requeued(self):
        # The rogue handshakes like a worker, takes a cell, and answers
        # with a frame too short to be a result: its lease goes back
        # through the ledger like any lost worker's.
        jobs = [f"job-{i}" for i in range(6)]
        stats = SupervisorStats()

        def rogue_worker(endpoint):
            with socket.create_connection(endpoint) as sock:
                send_frame(sock, ("hello", "rogue", 1, 1))
                assert recv_frame(sock)[0] == "welcome"
                send_frame(sock, ("ready",))
                assert recv_frame(sock)[0] == "cell"
                send_frame(sock, ("result", 1))
                with pytest.raises((EOFError, OSError)):
                    recv_frame(sock)  # the server hangs up on us

        with DistributedExecutor(connect_timeout=20.0) as ex:
            thread = threading.Thread(
                target=rogue_worker, args=(ex.endpoint,), daemon=True
            )
            thread.start()
            start_workers(ex.endpoint, 1)
            got = remote(ex, dawdle, jobs, stats=stats)
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert got == [dawdle(j) for j in jobs]
        assert (stats.disconnects, stats.crashes, stats.retries) == (1, 1, 1)


class TestAttach:
    """A connection's handshake is the server's, not a sweep's."""

    def test_worker_attaches_while_no_sweep_runs(self):
        with DistributedExecutor(connect_timeout=20.0) as ex:
            start_workers(ex.endpoint, 1)
            deadline = time.monotonic() + 5.0
            while not ex.server.worker_pids() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ex.server.worker_pids() != []

    def test_version_mismatch_is_turned_away(self):
        with DistributedExecutor(connect_timeout=20.0) as ex:
            with socket.create_connection(ex.endpoint, timeout=5.0) as sock:
                send_frame(sock, ("hello", "stale", PROTOCOL_VERSION + 1, 1))
                assert recv_frame(sock) == ("shutdown",)
                with pytest.raises((EOFError, OSError)):
                    recv_frame(sock)  # the server hangs up on us
            assert ex.server.live_workers() == []


class TestDegradation:
    def test_no_workers_falls_back_with_warning(self):
        jobs = [f"job-{i}" for i in range(3)]
        stats = SupervisorStats()
        ex = DistributedExecutor(connect_timeout=0.3, degrade_after=0.3)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = collect(
                    ex.run(shout, jobs, retry=FAST_RETRY, stats=stats),
                    len(jobs),
                )
        finally:
            ex.close()
        assert got == [shout(j) for j in jobs]
        assert stats.degraded == len(jobs)
        degradations = [
            w.message
            for w in caught
            if isinstance(w.message, DegradedExecutionWarning)
        ]
        assert len(degradations) == 1
        assert degradations[0].backend == "distributed"
        assert "ever connected" in degradations[0].reason

    def test_executor_protocol_conformance(self):
        ex = DistributedExecutor(connect_timeout=0.1, degrade_after=0.1)
        try:
            assert isinstance(ex, CellExecutor)
            assert ex.name == "distributed"
            host, port = ex.endpoint
            assert port > 0
        finally:
            ex.close()

    def test_context_manager_closes_the_fabric(self):
        with DistributedExecutor(connect_timeout=0.1, degrade_after=0.1) as ex:
            assert ex.endpoint[1] > 0
            assert not ex.server._closed
        assert ex.server._closed
        assert ex.server._listener.fileno() == -1  # the port is released
