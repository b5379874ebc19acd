"""One cost table, two interpreters, identical except in speed.

Every one-sided operation is a (pre, hold, post) delay program from
``Network._fused_program``, interpreted either by the ``Network._walk``
generator (reference engine, fault-armed networks) or by a
:class:`~repro.simulate.network._FusedOp` the compiled engine walks in C.
These tests pin that from four directions:

- a table test that every ``(kind, tier)`` program equals the closed-form
  LogGP expression written out here **bit-for-bit** across random network
  parameters and payload sizes, and that the generator yields exactly
  that program in order;
- a dead target costs ``o + rma_timeout``, records ``FAILED``, raises
  ``RankFailedError`` and counts nothing, traced or not;
- whole-run equality: identical RunResults (makespan bits, arrays,
  counters, trace intervals) with the fused path on vs. forced off;
- the cancellation protocol: closing a mid-hold fused op releases the
  NIC slot exactly like the generator's ``finally``.

Only the compiled core walks a fused op, so the fused side of each runs
on ``CompiledEngine`` and skips where the core cannot be built.

Plus the operational bits that ride on the same hot path: the Timeout
freelist, the hot-path counters, and the strict-compiled-engine switch
(``REPRO_ENGINE_REQUIRE``) with the compiler-stderr diagnostics.
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.simulate.engine import Engine, Resource, Timeout
from repro.simulate.network import Network, NetworkModel, _FusedOp
from repro.simulate.sched import CompiledEngine, compiled_available
from repro.util import ConfigurationError, SimulationError

needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled engine core unavailable"
)


def _engine(fused: bool) -> Engine:
    """The engine whose Network takes the fused path, or the reference."""
    if fused and not compiled_available():
        pytest.skip("compiled engine core unavailable")
    return CompiledEngine() if fused else Engine()


class _Recorder:
    """Minimal trace-recorder stand-in: keeps (src, cat, start, end)."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def record(self, src, category, start, end) -> None:
        self.calls.append((src, category, start, end))


# ----------------------------------------------------------------------
# The cost table: every (kind, tier) program, bit for bit
# ----------------------------------------------------------------------

_times = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)
_rates = st.floats(min_value=1e6, max_value=1e12, allow_nan=False)

_models = st.builds(
    NetworkModel,
    latency=_times,
    bandwidth=_rates,
    software_overhead=_times,
    nic_occupancy=_times,
    atomic_service=_times,
    accumulate_bandwidth=_rates,
    local_bandwidth=_rates,
    intra_latency=_times,
    intra_bandwidth=_rates,
)


def _expected_program(m: NetworkModel, kind: str, tier: int, n: int) -> tuple:
    """The LogGP cost of one op class in closed form, as (pre, hold, post).

    Tier 0 is a self-op (memcpy), 1 a same-node hop (shared memory, no
    NIC), 2 a remote hop (wire both ways, occupancy at the target NIC).
    Sums are written in the operand order the golden digests pin.
    """
    o, wire, intra = m.software_overhead, m.latency, m.intra_latency
    reduce_time = n / m.accumulate_bandwidth
    if kind == "fetch_add":
        # Remote pays the wire each way, same-node the intra hop; a
        # zero-latency remote link falls back to the intra hop (quirk).
        hop = 0.0 if tier == 0 else intra if tier == 1 else (wire or intra)
        return ((o, hop), m.atomic_service, (hop,)) if hop else ((o,), m.atomic_service, ())
    return {
        ("rma", 0): ((o + n / m.local_bandwidth,), None, ()),
        ("rma", 1): ((o + 2 * intra + n / m.intra_bandwidth,), None, ()),
        ("rma", 2): ((o, wire), m.nic_occupancy + n / m.bandwidth, (wire,)),
        ("accumulate", 0): ((o + n / m.local_bandwidth + reduce_time,), None, ()),
        ("accumulate", 1): ((o + 2 * intra + n / m.intra_bandwidth + reduce_time,), None, ()),
        ("accumulate", 2): (
            (o, wire),
            m.nic_occupancy + n / m.bandwidth + reduce_time,
            (wire,),
        ),
    }[kind, tier]


def _drive(gen) -> list[tuple]:
    """Manually advance an op generator, logging yields in order.

    Timeouts log their exact delay; the NIC acquire logs a marker (the
    grant itself carries no cost). ``send(None)`` mirrors what
    ``Process.resume`` delivers for both request kinds.
    """
    seq: list[tuple] = []
    try:
        req = next(gen)
        while True:
            if isinstance(req, Timeout):
                seq.append(("t", req.delay.hex()))
            else:
                # Grant the acquire by hand so the generator's finally
                # has a slot to release.
                req.resource.in_use += 1
                seq.append(("acquire",))
            req = gen.send(None)
    except StopIteration:
        pass
    return seq


def _expand(program) -> list[tuple]:
    """A (pre, hold, post) program in the order an interpreter runs it."""
    pre, hold, post = program
    seq: list[tuple] = [("t", d.hex()) for d in pre]
    if hold is not None:
        seq.append(("acquire",))
        seq.append(("t", hold.hex()))
    seq.extend(("t", d.hex()) for d in post)
    return seq


def _tier_endpoints(tier: int) -> tuple[int, int]:
    # node_of = rank // 2 over 4 ranks: (0,0) self, (0,1) same node,
    # (0,2) remote.
    return (0, 0) if tier == 0 else (0, 1) if tier == 1 else (0, 2)


@settings(max_examples=100, deadline=None)
@given(model=_models, nbytes=st.integers(min_value=0, max_value=10**8))
def test_fused_program_matches_generator_bitwise(model, nbytes):
    """The closed form, the memoised program and what the generator
    yields are one delay sequence, bit for bit, for every (kind, tier)."""
    from repro.simulate.network import SharedCell

    net = Network(Engine(), model, 4, node_of=lambda r: r // 2)
    for kind in ("rma", "accumulate", "fetch_add"):
        n = 0 if kind == "fetch_add" else nbytes
        for tier in (0, 1, 2):
            src, dst = _tier_endpoints(tier)
            expected = _expand(_expected_program(model, kind, tier, n))
            assert _expand(net._fused_program(kind, src, dst, n)) == expected, (kind, tier)
            # ...and the reference interpreter yields exactly that program.
            counter = SharedCell() if kind == "fetch_add" else None
            walk = net._walk(kind, src, dst, n, _Recorder(), kind, counter, 1)
            assert _drive(walk) == expected, (kind, tier)


def test_zero_latency_remote_fetch_add_pays_the_intra_hop():
    """The digest-pinned quirk: with ``latency == 0`` a remote counter
    tests as "no wire" and is charged the intra-node latency instead."""
    model = NetworkModel(latency=0.0)
    net = Network(Engine(), model, 4, node_of=lambda r: r // 2)
    o, hop = model.software_overhead, model.intra_latency
    assert hop > 0.0
    assert net._fused_program("fetch_add", 0, 2, 0) == ((o, hop), model.atomic_service, (hop,))


# ----------------------------------------------------------------------
# Dead targets: the one path only the generator interprets
# ----------------------------------------------------------------------

#: entry point -> (RankFailedError.operation, how to issue it at dead rank 2)
_DEAD_TARGET_OPS = {
    "get": ("rma", lambda net, rec, cell: net.get(0, 2, 1024)),
    "put": ("rma", lambda net, rec, cell: net.put(0, 2, 1024)),
    "accumulate": ("accumulate", lambda net, rec, cell: net.accumulate(0, 2, 1024)),
    "fetch_add": ("fetch_add", lambda net, rec, cell: net.fetch_add(0, 2, cell, 5)),
    "rma_traced": ("rma", lambda net, rec, cell: net.rma_traced(0, 2, 1024, rec, "comm")),
    "accumulate_traced": (
        "accumulate",
        lambda net, rec, cell: net.accumulate_traced(0, 2, 1024, rec, "comm"),
    ),
    "fetch_add_traced": (
        "fetch_add",
        lambda net, rec, cell: net.fetch_add_traced(0, 2, cell, 5, rec, "overhead"),
    ),
}


@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("entry", sorted(_DEAD_TARGET_OPS))
def test_dead_target_fails_uncounted(entry, fused):
    import copy

    from repro.faults import FaultInjector, FaultPlan, RankCrash
    from repro.simulate.network import SharedCell
    from repro.util import RankFailedError

    engine = _engine(fused)
    net = Network(engine, NetworkModel(), 4)
    assert net._fused == fused  # a fault-armed network takes the generator either way
    plan = FaultPlan(crashes=(RankCrash(2, 0.0),), rma_timeout=1.0)
    net.faults = injector = FaultInjector(plan, engine, net)
    injector.arm({})
    rec, cell = _Recorder(), SharedCell(7)
    expected_operation, issue = _DEAD_TARGET_OPS[entry]
    outcome = []

    def prober():
        yield Timeout(0.5)  # let the crash fire
        # get/put count themselves as issued before the op starts,
        # exactly as RankContext counts the traced ones.
        op = issue(net, rec, cell)
        before = copy.deepcopy(net.stats)
        try:
            yield from op
        except RankFailedError as err:
            outcome.append((err.rank, err.operation, engine.now, before))

    engine.process(prober())
    engine.run()
    ((rank, operation, end, before),) = outcome
    assert rank == 2
    assert operation == expected_operation
    assert end == 0.5 + (NetworkModel().software_overhead + 1.0)
    assert net.stats == before
    assert cell.value == 7
    assert net.nics[2].total_acquisitions == 0
    assert injector.stats["rma_failures"] == 1.0
    traced = entry.endswith("_traced")
    assert rec.calls == ([(0, "failed", 0.5, end)] if traced else [])


def test_fused_program_memoized():
    net = Network(Engine(), NetworkModel(), 4)
    # One program per (kind, tier, nbytes): every remote pair shares it.
    assert net._fused_program("rma", 0, 1, 384) is net._fused_program("rma", 3, 2, 384)
    assert net._fused_program("rma", 0, 1, 384) != net._fused_program("accumulate", 0, 1, 384)


# ----------------------------------------------------------------------
# Whole-run equality: fused on vs. forced off
# ----------------------------------------------------------------------


def _run_counter_case(monkeypatch, fused: bool):
    """One contention-heavy counter_dynamic run on the compiled engine,
    with its Network's fused path left on or forced off: the C walker
    against the generators on one engine."""
    original = Network.__init__

    def forced(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._fused = fused

    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    monkeypatch.setattr(Network, "__init__", forced)
    from repro.chemistry.tasks import synthetic_task_graph
    from repro.exec_models import make_model
    from repro.simulate import StaticHeterogeneity, hierarchical_cluster

    graph = synthetic_task_graph(500, 8, seed=23, skew=1.2)
    machine = hierarchical_cluster(
        4, cores_per_node=6, variability=StaticHeterogeneity(range(2), 0.7)
    )
    return make_model("counter_dynamic").run(
        graph, machine, seed=11, trace_intervals=True
    )


@needs_compiled
def test_fused_run_equals_generator_run(monkeypatch):
    import numpy as np

    with monkeypatch.context() as m:
        fused = _run_counter_case(m, fused=True)
    with monkeypatch.context() as m:
        plain = _run_counter_case(m, fused=False)
    assert fused.makespan.hex() == plain.makespan.hex()
    assert np.array_equal(fused.assignment, plain.assignment)
    assert fused.task_starts.tobytes() == plain.task_starts.tobytes()
    assert fused.finish_times.tobytes() == plain.finish_times.tobytes()
    assert fused.counters == plain.counters
    assert fused.network == plain.network
    assert fused.intervals == plain.intervals
    assert fused.sim_events == plain.sim_events
    assert fused.sim_ready_events == plain.sim_ready_events
    # Grant volumes are identical (the NIC protocol is shared); Timeout
    # consumption is the thing the fused path eliminates — each op's
    # delays run as bare callbacks instead of yielded Timeout requests.
    # The >=90% drop on a contention workload is the PR's headline
    # allocation win.
    assert fused.grant_resumes == plain.grant_resumes
    assert plain.timeout_allocs > 0
    assert fused.timeout_allocs <= plain.timeout_allocs * 0.10
    assert fused.fused_ops > 0
    assert plain.fused_ops == 0


# ----------------------------------------------------------------------
# Cancellation: _FusedOp.close() must behave like the generator finally
# ----------------------------------------------------------------------


def _cancel_mid_hold_makespan(fused: bool) -> tuple[float, int]:
    engine = _engine(fused)
    net = Network(engine, NetworkModel(), 3)
    rec = _Recorder()
    done = []

    def holder():
        yield from net.rma_traced(0, 1, 1 << 20, rec, "get")

    def contender():
        yield from net.rma_traced(2, 1, 4096, rec, "get")
        done.append(engine.now)

    victim = engine.process(holder(), name="victim")
    engine.process(contender(), name="contender")
    # 1MB at 5 GB/s holds the NIC for ~210us starting ~1.9us in; cancel
    # squarely inside the hold window.
    engine.run(until=50e-6)
    victim.cancel()
    engine.run()
    assert len(done) == 1
    assert net.nics[1].in_use == 0
    return done[0], net.nics[1].total_acquisitions


def test_fused_cancel_releases_nic_like_generator():
    fused_finish, fused_acq = _cancel_mid_hold_makespan(True)
    plain_finish, plain_acq = _cancel_mid_hold_makespan(False)
    assert fused_finish == plain_finish
    assert fused_acq == plain_acq == 2


def test_fused_op_rejects_nonnone_send_before_start():
    net = Network(Engine(), NetworkModel(), 2)
    net._fused = True  # default is engine-dependent; force the fused path
    op = net.rma_traced(0, 1, 64, _Recorder(), "get")
    assert isinstance(op, _FusedOp)
    assert iter(op) is op
    with pytest.raises(TypeError):
        op.send(42)


def test_fused_op_yielded_on_the_reference_engine_raises():
    """The reference engine never builds a fused op (its Networks take
    the generators); one yielded to it anyway is refused, not walked."""
    engine = Engine()
    net = Network(engine, NetworkModel(), 2)
    assert not net._fused
    net._fused = True

    def rank():
        yield from net.rma_traced(0, 1, 64, _Recorder(), "get")

    engine.process(rank(), name="rank")
    with pytest.raises(SimulationError, match="only by the compiled engine core"):
        engine.run()


# ----------------------------------------------------------------------
# Timeout freelist + hot-path counters
# ----------------------------------------------------------------------


def test_timeout_freelist_recycles_instances():
    from repro.simulate import engine as engine_mod
    from repro.simulate.engine import pooled_timeout

    sentinel = Timeout(0.125)
    engine_mod._timeout_pool.append(sentinel)
    fresh = pooled_timeout(0.5)
    assert fresh is sentinel  # served from the pool...
    assert fresh.delay == 0.5  # ...with the new delay installed
    with pytest.raises(Exception):
        engine_mod._timeout_pool.append(sentinel)
        try:
            pooled_timeout(-1.0)  # validation matches Timeout.__init__
        finally:
            if sentinel in engine_mod._timeout_pool:
                engine_mod._timeout_pool.remove(sentinel)


def test_plain_constructor_never_touches_pool():
    from repro.simulate import engine as engine_mod

    sentinel = Timeout(0.25)
    engine_mod._timeout_pool.append(sentinel)
    try:
        fresh = Timeout(0.25)
        assert fresh is not sentinel  # public constructor stays pool-free
    finally:
        if sentinel in engine_mod._timeout_pool:
            engine_mod._timeout_pool.remove(sentinel)


def test_timeout_subclass_never_recycled():
    """Only exact Timeouts enter the pool: the resume fast path checks
    ``request.__class__ is Timeout`` before recycling, so a subclass a
    test (or future request type) yields is never reused under it."""
    from repro.simulate import engine as engine_mod

    class Marked(Timeout):
        __slots__ = ()

    def proc():
        yield Marked(1e-9)  # sole-reference subclass: recyclable if buggy

    engine = Engine()
    engine.process(proc())
    engine.run()
    assert all(type(t) is Timeout for t in engine_mod._timeout_pool)


def _contention_workload(engine) -> None:
    res = Resource(2)

    def worker(n):
        for _ in range(n):
            yield Timeout(1e-6)
            yield res.acquire()
            yield Timeout(2e-6)
            res.release()

    for i in range(5):
        engine.process(worker(100), name=f"w{i}")
    engine.run()


def test_hotpath_counters_match_across_engines():
    from repro.simulate.sched import CompiledEngine, compiled_available

    engines = [Engine()]
    if compiled_available():
        engines.append(CompiledEngine())
    observed = set()
    for engine in engines:
        _contention_workload(engine)
        observed.add(
            (
                engine.now,
                engine.events_dispatched,
                engine.timeout_allocs,
                engine.grant_resumes,
            )
        )
    assert len(observed) == 1
    (now, dispatched, timeouts, grants) = observed.pop()
    assert timeouts == 1000  # 5 workers x 100 iterations x 2 Timeouts
    assert grants == 500  # every acquire is granted exactly once


# ----------------------------------------------------------------------
# REPRO_ENGINE_REQUIRE + degraded-warning diagnostics
# ----------------------------------------------------------------------


needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None
    and shutil.which("gcc") is None
    and shutil.which("clang") is None,
    reason="no C compiler on PATH",
)


def test_engine_require_raises_with_build_detail(monkeypatch):
    from repro.simulate import sched

    monkeypatch.setattr(sched, "_core", None)  # "the build already failed"
    monkeypatch.setattr(sched, "_last_build_error", "undefined symbol: Py_Boom")
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    monkeypatch.setenv("REPRO_ENGINE_REQUIRE", "1")
    with pytest.raises(ConfigurationError, match="Py_Boom"):
        sched.make_engine()


def test_degraded_warning_includes_stderr_tail(monkeypatch):
    from repro.simulate import sched

    monkeypatch.setattr(sched, "_core", None)
    monkeypatch.setattr(sched, "_last_build_error", "engine.c:42: error: boom")
    monkeypatch.setattr(sched, "_degraded_warned", False)
    monkeypatch.setenv("REPRO_ENGINE", "compiled")
    monkeypatch.delenv("REPRO_ENGINE_REQUIRE", raising=False)
    with pytest.warns(sched.DegradedEngineWarning, match="boom"):
        engine = sched.make_engine()
    assert type(engine) is Engine  # degraded, not broken


@needs_cc
def test_build_extension_captures_compiler_stderr(monkeypatch, tmp_path):
    from repro.simulate import sched

    monkeypatch.setattr(sched, "_last_build_error", None)
    bad = tmp_path / "bad.c"
    bad.write_text("this is not a C translation unit;\n")
    ok = sched._build_extension(str(bad), str(tmp_path / "bad.so"), str(tmp_path))
    assert not ok
    assert sched._last_build_error is not None
    assert "bad.c" in sched._last_build_error


@needs_cc
def test_unloadable_cached_core_is_rebuilt(tmp_path):
    """A cached file this interpreter cannot load (another machine's
    build in a shared ``$HOME``, a truncated write) is replaced, not
    trusted for as long as it exists. In a fresh interpreter, so the
    core this process already loaded is not disturbed."""
    import importlib.machinery
    import os
    import subprocess
    import sys
    import sysconfig

    import repro.simulate
    from repro.simulate import sched

    # PathFinder, not find_spec: loading the cached core registers it in
    # sys.modules under this very name.
    if importlib.machinery.PathFinder.find_spec(
        "repro.simulate._engine_core", list(repro.simulate.__path__)
    ):
        pytest.skip("a pre-built core shadows the runtime-build cache")
    source = os.path.join(os.path.dirname(sched.__file__), "_engine_core.c")
    planted = tmp_path / os.path.basename(sched._cache_path(source, str(tmp_path)))
    # Keyed by the full ABI tag, not just major.minor.
    assert sysconfig.get_config_var("SOABI") in planted.name
    garbage = b"not a shared object\n"
    planted.write_bytes(garbage)
    env = dict(
        os.environ,
        REPRO_ENGINE_CACHE=str(tmp_path),
        REPRO_ENGINE_BUILD="1",
        PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
    )
    check = (
        "import sys; from repro.simulate import sched; "
        "ok = sched.compiled_available(); "
        "print(sched._last_build_error, file=sys.stderr); sys.exit(0 if ok else 1)"
    )
    done = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True, timeout=180
    )
    assert done.returncode == 0, done.stderr
    assert planted.stat().st_size > len(garbage) and planted.read_bytes() != garbage
    assert [p.name for p in tmp_path.iterdir()] == [planted.name]  # no temp left behind
