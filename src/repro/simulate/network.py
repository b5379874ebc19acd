"""LogGP-style network model with NIC serialization.

Cost model for a remote operation from *src* to *dst* carrying ``n`` bytes:

- initiator CPU overhead ``o`` (software_overhead),
- one-way wire latency ``L`` each direction,
- occupancy at the target NIC: per-op gap ``g`` plus payload streaming
  ``n / bandwidth`` (plus reduction time for accumulates, plus
  ``atomic_service`` for fetch-and-add).

The target NIC is a capacity-1 FIFO :class:`~repro.simulate.engine.Resource`
— *this serialization is where contention comes from*: when 512 ranks
hammer one counter, queueing delay at its home NIC grows without any
explicit "contention model", reproducing the centralized-dynamic-scheduling
bottleneck the paper discusses (experiment E6).

Two-sided messages (used by steal requests/responses and termination
tokens) are active messages delivered into per-rank mailboxes.

One cost table, two interpreters: :meth:`Network._fused_program` (by
endpoints; :meth:`Network._tier_program` by locality tier) is the only
place a one-sided operation's cost is written, as a ``(pre, hold, post)``
delay program per ``(kind, tier, nbytes)``. :meth:`Network._walk`
interprets a program as a generator on the reference engine (and whenever
fault injection is armed); the compiled core's ``FusedOp``
(:attr:`Network.op_type`) carries the same program — or a whole task's
chain of them, kernel included, a claim loop of such tasks, or a steal
attempt — as a single request the core walks in C. Both allocate every ``(time, seq)``
at the same dispatch, so runs are bit-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.faults.injector import DELIVER, DROP, DUPLICATE
from repro.simulate.engine import Engine, Resource, SimEvent, pooled_timeout
from repro.simulate.sched import fused_op_type
from repro.util import (
    ConfigurationError,
    RankFailedError,
    check_non_negative,
    check_positive,
)

#: The lock steps of a steal attempt's chain (``Harness.idle_pass``),
#: on the op's ``steal = (lock, victim queue, thief queue)``: take the lock
#: and keep it past the step; move the op's ``result`` tasks from the
#: victim queue's tail to the thief queue's, in their order, and release
#: the lock. With ``steal = (lock, victim queue, staging queue, thief
#: queue)`` the move fills the staging queue and a later ``LAND_TASKS``
#: moves its tasks on to the thief queue's tail.
KEEP_LOCK = 0
MOVE_TASKS = 1
LAND_TASKS = 2

#: Trace category for time lost discovering a dead target. Must match
#: :data:`repro.runtime.trace.FAILED`; a literal here keeps ``simulate``
#: from importing the ``runtime`` layer (which imports this module).
_FAILED = "failed"


@dataclass(frozen=True)
class NetworkModel:
    """Network parameters (seconds and bytes/second).

    Attributes:
        latency: one-way wire latency L.
        bandwidth: payload streaming rate.
        software_overhead: initiator CPU time o per operation.
        nic_occupancy: per-op gap g at the target NIC.
        atomic_service: extra NIC service time for a fetch-and-add
            (read-modify-write at the memory controller).
        accumulate_bandwidth: effective rate for the reduction computation
            of an accumulate (adds ``n / accumulate_bandwidth`` occupancy).
        local_bandwidth: intra-rank memory copy rate for self-ops.
    """

    latency: float = 1.5e-6
    bandwidth: float = 5.0e9
    software_overhead: float = 0.4e-6
    nic_occupancy: float = 0.2e-6
    atomic_service: float = 0.25e-6
    accumulate_bandwidth: float = 8.0e9
    local_bandwidth: float = 2.0e10
    #: Same-node (shared-memory) path, used when the Network is built with
    #: a node topology: one cache-coherent hop instead of the wire.
    intra_latency: float = 0.15e-6
    intra_bandwidth: float = 1.2e10

    def __post_init__(self) -> None:
        for name in (
            "latency",
            "bandwidth",
            "software_overhead",
            "nic_occupancy",
            "atomic_service",
            "accumulate_bandwidth",
            "local_bandwidth",
            "intra_latency",
            "intra_bandwidth",
        ):
            check_non_negative(name, getattr(self, name))
        check_positive("bandwidth", self.bandwidth)
        check_positive("intra_bandwidth", self.intra_bandwidth)

    def transfer(self, nbytes: int) -> float:
        return nbytes / self.bandwidth


@dataclass(slots=True)
class Message:
    """A two-sided active message."""

    src: int
    tag: Any
    payload: Any


class _Mailbox:
    """Per-rank message store with tag-filtered blocking receive."""

    __slots__ = ("messages", "waiters")

    def __init__(self) -> None:
        self.messages: deque[Message] = deque()
        self.waiters: list[tuple[Any, SimEvent]] = []

    def deliver(self, message: Message) -> None:
        for idx, (tag, event) in enumerate(self.waiters):
            if tag is None or tag == message.tag:
                del self.waiters[idx]
                event.fire(message)
                return
        self.messages.append(message)

    def take(self, tag: Any) -> Message | None:
        for idx, message in enumerate(self.messages):
            if tag is None or message.tag == tag:
                del self.messages[idx]
                return message
        return None


@dataclass
class NetworkStats:
    """Aggregate operation counts and bytes moved."""

    gets: int = 0
    puts: int = 0
    accumulates: int = 0
    fetch_adds: int = 0
    messages: int = 0
    bytes_moved: int = 0
    #: Traced operations dispatched through the generator-free fused path
    #: (a subset of gets+puts+accumulates+fetch_adds). Deterministic; not
    #: part of the digested ``RunResult.network`` dict.
    fused_ops: int = 0


class Network:
    """The simulated interconnect: one NIC resource + mailbox per rank.

    All operation methods are *generator functions* (or return a driven
    generator); rank processes drive them with ``yield from``, e.g.::

        value = yield from net.fetch_add(rank, home, counter)
    """

    __slots__ = (
        "engine",
        "model",
        "n_ranks",
        "node_of",
        "nics",
        "_mailboxes",
        "stats",
        "faults",
        "_node_ids",
        "op_type",
        "_fused_cache",
    )

    def __init__(
        self,
        engine: Engine,
        model: NetworkModel,
        n_ranks: int,
        node_of: "Callable[[int], int] | None" = None,
    ) -> None:
        check_positive("n_ranks", n_ranks)
        self.engine = engine
        self.model = model
        self.n_ranks = int(n_ranks)
        self.node_of = node_of
        self.nics = [Resource(1) for _ in range(n_ranks)]
        self._mailboxes = [_Mailbox() for _ in range(n_ranks)]
        self.stats = NetworkStats()
        #: Optional :class:`repro.faults.FaultInjector`; ``None`` (the
        #: default) keeps every fault check on a single attribute test, so
        #: fault-free runs take exactly the pre-fault-subsystem code path.
        self.faults = None
        #: Node id per rank (topology is static), or None on flat machines
        #: — the O(1) tier test behind the fused cost tables.
        self._node_ids = (
            [node_of(r) for r in range(self.n_ranks)] if node_of is not None else None
        )
        #: The type fault-free traced operations are dispatched as
        #: instead of :meth:`_walk` generators: the compiled core's
        #: ``FusedOp`` when the engine walks them (``drives_fused_ops``),
        #: else None. The core is the only walker of a ``FusedOp``, and
        #: the generators are the reference it is held to. Both are
        #: (time, seq)-order identical, so this never changes results.
        self.op_type = fused_op_type() if getattr(engine, "drives_fused_ops", False) else None
        #: ``(kind, tier, nbytes) -> (pre, hold, post)`` delay programs,
        #: memoized per distinct size class (block sizes give a handful).
        self._fused_cache: dict = {}

    def same_node(self, a: int, b: int) -> bool:
        """Whether two ranks share a node (False without a topology)."""
        if a == b:
            return True
        if self.node_of is None:
            return False
        return self.node_of(a) == self.node_of(b)

    def _check_rank(self, rank: int) -> int:
        if not 0 <= rank < self.n_ranks:
            raise ConfigurationError(f"rank {rank} out of range [0, {self.n_ranks})")
        return rank

    def drop_mailbox(self, rank: int) -> None:
        """Discard a crashed rank's queued and in-flight-awaited messages."""
        box = self._mailboxes[self._check_rank(rank)]
        box.messages.clear()
        box.waiters.clear()

    # ------------------------------------------------------------------
    # One-sided operations
    # ------------------------------------------------------------------
    # Each operation is a (pre, hold, post) delay program from the one
    # cost table below. The ``*_traced`` entry points fold
    # :class:`repro.runtime.comm.RankContext`'s interval recording into
    # the operation and hand the program to whichever interpreter fits
    # what they observe: an :attr:`op_type` request when the engine walks
    # programs in C and no fault plan is armed (no generator frame, no
    # ``Timeout`` per event — the dominant per-event cost, see the same
    # section of docs/perf.md), else the :meth:`_walk` generator, which
    # alone knows dead-target discovery. The untraced public operations
    # always take the generator.

    def _fused_program(self, kind: str, src: int, dst: int, nbytes: int) -> tuple:
        """The (pre, hold, post) delay program for one operation.

        The locality tier is 0 = self (memcpy), 1 = same node (shared
        memory), 2 = remote; :meth:`_tier_program` holds the costs.
        """
        if src == dst:
            tier = 0
        else:
            ids = self._node_ids
            tier = 1 if ids is not None and ids[src] == ids[dst] else 2
        return self._tier_program(kind, tier, nbytes)

    def _tier_program(self, kind: str, tier: int, nbytes: int) -> tuple:
        """The one cost table: ``(kind, tier, nbytes) -> (pre, hold, post)``.

        ``pre`` delays run back to back, then the target NIC is held for
        ``hold`` (None when the tier bypasses the NIC, which also ends
        the program), then ``post`` delays. ``kind`` is ``"rma"`` (get or
        put), ``"accumulate"`` or ``"fetch_add"``. Memoized per key; the
        operand order of every sum is pinned by the golden digests.
        """
        key = (kind, tier, nbytes)
        program = self._fused_cache.get(key)
        if program is not None:
            return program
        m = self.model
        o = m.software_overhead
        if kind == "fetch_add":  # nbytes is unused (always 0 in the key)
            # Wire latency only across nodes; the read-modify-write always
            # serializes at the home memory controller (the NIC resource),
            # local or not — that is what makes a counter a counter. A
            # zero-latency *remote* hop tests as ``wire == 0.0`` and so
            # pays the intra-node latency; digests pin that quirk.
            wire = 0.0 if tier != 2 else m.latency
            intra = m.intra_latency if (tier != 0 and wire == 0.0) else 0.0
            hop = (wire + intra,) if wire or intra else ()
            program = ((o,) + hop, m.atomic_service, hop)
        else:
            if tier == 0:
                cost = o + nbytes / m.local_bandwidth
            elif tier == 1:
                cost = o + 2 * m.intra_latency + nbytes / m.intra_bandwidth
            else:
                cost = m.nic_occupancy + nbytes / m.bandwidth
            if kind == "accumulate":
                cost = cost + nbytes / m.accumulate_bandwidth  # the reduction
            if tier == 2:
                program = ((o, m.latency), cost, (m.latency,))
            else:
                program = ((cost,), None, ())
        self._fused_cache[key] = program
        return program

    def _chain(self, steps: tuple) -> tuple:
        """The ``chain`` of a ``FusedOp`` whose steps run here."""
        return (steps, self.nics, self._node_ids)

    def _walk(
        self,
        kind: str,
        src: int,
        dst: int,
        nbytes: int,
        trace=None,
        category: "str | None" = None,
        counter: "SharedCell | None" = None,
        amount: int = 0,
    ):
        """Interpret one operation's delay program as a generator.

        A crashed remote target costs the initiator software overhead
        plus the plan's RMA timeout, recorded as ``FAILED`` when traced,
        then :class:`RankFailedError` — the on-contact detection path,
        which leaves the operation uncounted. Self-ops never fail (a dead
        rank's own process is already cancelled). Returns the counter's
        old value for a fetch-and-add.
        """
        n = self.n_ranks
        if not (0 <= src < n and 0 <= dst < n):
            self._check_rank(src)
            self._check_rank(dst)
        engine = self.engine
        start = engine.now
        faults = self.faults
        if faults is not None and src != dst and faults.is_dead(dst):
            faults.note_rma_failure()
            yield pooled_timeout(self.model.software_overhead + faults.plan.rma_timeout)
            if trace is not None:
                trace.record(src, _FAILED, start, engine.now)
            raise RankFailedError(dst, kind)
        stats = self.stats
        if kind == "fetch_add":
            stats.fetch_adds += 1
        else:
            if kind == "accumulate":
                stats.accumulates += 1
            stats.bytes_moved += nbytes
        pre, hold, post = self._fused_program(kind, src, dst, nbytes)
        for delay in pre:
            yield pooled_timeout(delay)
        old = None
        if hold is not None:
            nic = self.nics[dst]
            yield nic.acquire()
            if counter is not None:
                # The read-modify-write happens at the grant, while the
                # home NIC is held, so concurrent updates serialize
                # exactly as hardware atomics at a memory controller.
                old = counter.value
                counter.value += amount
            try:
                yield pooled_timeout(hold)
            finally:
                nic.release()
            for delay in post:
                yield pooled_timeout(delay)
        if trace is not None:
            trace.record(src, category, start, engine.now)
        return old

    def get(self, src: int, dst: int, nbytes: int):
        """Synchronous one-sided read of ``nbytes`` from ``dst``'s memory."""
        self.stats.gets += 1
        return self._walk("rma", src, dst, nbytes)

    def put(self, src: int, dst: int, nbytes: int):
        """Synchronous one-sided write (completion acknowledged)."""
        self.stats.puts += 1
        return self._walk("rma", src, dst, nbytes)

    def accumulate(self, src: int, dst: int, nbytes: int):
        """One-sided accumulate: remote read-modify-write of a block."""
        return self._walk("accumulate", src, dst, nbytes)

    def fetch_add(self, src: int, dst: int, counter: "SharedCell", amount: int = 1):
        """Atomic fetch-and-add on a cell homed at ``dst``; returns old value."""
        return self._walk("fetch_add", src, dst, 0, counter=counter, amount=amount)

    def rma_traced(self, src: int, dst: int, nbytes: int, trace, category: str):
        """A get/put (the caller counts which) with interval tracing inlined."""
        if self.faults is not None or self.op_type is None:
            return self._walk("rma", src, dst, nbytes, trace, category)
        n = self.n_ranks
        if not (0 <= src < n and 0 <= dst < n):
            self._check_rank(src)
            self._check_rank(dst)
        stats = self.stats
        stats.bytes_moved += nbytes
        stats.fused_ops += 1
        pre, hold, post = self._fused_program("rma", src, dst, nbytes)
        nic = self.nics[dst] if hold is not None else None
        return self.op_type(trace, src, category, pre, nic, hold, post)

    def accumulate_traced(self, src: int, dst: int, nbytes: int, trace, category: str):
        """:meth:`accumulate` with the caller's interval tracing inlined."""
        if self.faults is not None or self.op_type is None:
            return self._walk("accumulate", src, dst, nbytes, trace, category)
        n = self.n_ranks
        if not (0 <= src < n and 0 <= dst < n):
            self._check_rank(src)
            self._check_rank(dst)
        stats = self.stats
        stats.accumulates += 1
        stats.bytes_moved += nbytes
        stats.fused_ops += 1
        pre, hold, post = self._fused_program("accumulate", src, dst, nbytes)
        nic = self.nics[dst] if hold is not None else None
        return self.op_type(trace, src, category, pre, nic, hold, post)

    def fetch_add_traced(
        self,
        src: int,
        dst: int,
        counter: "SharedCell",
        amount: int,
        trace,
        category: str,
    ):
        """:meth:`fetch_add` with the caller's interval tracing inlined."""
        if self.faults is not None or self.op_type is None:
            return self._walk("fetch_add", src, dst, 0, trace, category, counter, amount)
        self._check_rank(src)
        self._check_rank(dst)
        stats = self.stats
        stats.fetch_adds += 1
        stats.fused_ops += 1
        pre, hold, post = self._fused_program("fetch_add", src, dst, 0)
        return self.op_type(
            trace, src, category, pre, self.nics[dst], hold, post, counter, amount
        )

    # ------------------------------------------------------------------
    # Two-sided messages
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, tag: Any, payload: Any = None, nbytes: int = 64):
        """Fire-and-forget active message: initiator pays only ``o``.

        Delivery (latency + NIC occupancy at the target) proceeds as a
        daemon process; ordering between same-pair sends is preserved by
        the deterministic event queue.

        Under an active fault plan a message may be dropped (link loss,
        or the target died) or duplicated; the *sender* never learns —
        fire-and-forget means the initiator cost is identical either way.
        """
        self._check_rank(src)
        self._check_rank(dst)
        m = self.model
        self.stats.messages += 1
        self.stats.bytes_moved += nbytes
        message = Message(src=src, tag=tag, payload=payload)
        intra = self.same_node(src, dst)
        fate = DELIVER if self.faults is None else self.faults.message_fate(src, dst)

        def delivery():
            if intra:
                yield pooled_timeout(2 * m.intra_latency + nbytes / m.intra_bandwidth)
            else:
                yield pooled_timeout(m.latency)
                nic = self.nics[dst]
                yield nic.acquire()
                try:
                    yield pooled_timeout(m.nic_occupancy + nbytes / m.bandwidth)
                finally:
                    nic.release()
            if self.faults is not None and self.faults.is_dead(dst):
                self.faults.stats["messages_dropped"] += 1.0
                return
            self._mailboxes[dst].deliver(message)
            if fate == DUPLICATE:
                self._mailboxes[dst].deliver(Message(src=src, tag=tag, payload=payload))

        if fate != DROP:
            self.engine.process(delivery(), name=f"deliver({src}->{dst})", daemon=True)
        yield pooled_timeout(m.software_overhead)

    def recv(self, rank: int, tag: Any = None, timeout: float | None = None):
        """Blocking receive of the next message matching ``tag`` (None=any).

        With ``timeout`` set, gives up after that many simulated seconds
        and returns ``None`` — the primitive under heartbeat-period
        parking in fault-tolerant models (an indefinite receive can wait
        forever on a message a dead rank will never send).
        """
        self._check_rank(rank)
        box = self._mailboxes[rank]
        ready = box.take(tag)
        if ready is not None:
            yield pooled_timeout(0.0)
            return ready
        event = SimEvent()
        entry = (tag, event)
        box.waiters.append(entry)
        if timeout is not None:
            check_non_negative("timeout", timeout)

            def expire() -> None:
                if not event.fired:
                    try:
                        box.waiters.remove(entry)
                    except ValueError:
                        pass
                    event.fire(None)

            self.engine.schedule(timeout, expire)
        message = yield event.wait()
        return message

    def try_recv(self, rank: int, tag: Any = None) -> Message | None:
        """Non-blocking receive: pop a matching message or return None."""
        self._check_rank(rank)
        return self._mailboxes[rank].take(tag)


@dataclass
class SharedCell:
    """A word of remotely-addressable memory (for fetch-and-add targets)."""

    value: int = 0
