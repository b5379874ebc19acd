"""Per-rank runtime facade: traced compute and communication.

A :class:`RankContext` is what an execution model's rank process actually
talks to. It binds together the rank id, the simulation engine, the network,
the machine's compute-speed model, the trace recorder, and (optionally) the
fault injector, exposing generator methods that both *cost* simulated time
and *account* it to the right trace category.

Fault accounting: an operation that discovers its target rank is dead
(raising :class:`~repro.util.RankFailedError` from the network) records the
wasted wait as ``FAILED`` before re-raising, so recovery cost is visible in
breakdowns rather than smeared into idle time.

Every data-movement wrapper records its interval inline (rather than via a
shared delegating generator) — one generator frame fewer per operation on
paths that run hundreds of thousands of times per study.
"""

from __future__ import annotations

from typing import Any

from repro.simulate.engine import Engine, Timeout, pooled_timeout
from repro.simulate.machine import MachineSpec
from repro.simulate.network import Message, Network, SharedCell
from repro.runtime.trace import COMM, COMPUTE, IDLE, OVERHEAD, TraceRecorder
from repro.util import check_non_negative


class RankContext:
    """One simulated rank's view of the machine."""

    __slots__ = ("rank", "engine", "network", "machine", "trace", "faults")

    def __init__(
        self,
        rank: int,
        engine: Engine,
        network: Network,
        machine: MachineSpec,
        trace: TraceRecorder,
        faults=None,
    ) -> None:
        self.rank = int(rank)
        self.engine = engine
        self.network = network
        self.machine = machine
        self.trace = trace
        #: Optional :class:`repro.faults.FaultInjector` (None = no faults).
        self.faults = faults

    @property
    def now(self) -> float:
        return self.engine.now

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def compute(self, flops: float, tid: int | None = None):
        """Run ``flops`` of kernel work; optionally record a task id.

        Under a fault plan, a stall window covering the start freezes the
        rank until the window ends (recorded as IDLE — the core is up but
        making no progress) before the kernel runs. Stalls gate task
        *starts*; a window opening mid-kernel does not stretch it
        (documented approximation, same spirit as sampling variability at
        task start).
        """
        check_non_negative("flops", flops)
        engine = self.engine
        if self.faults is not None:
            stall_end = self.faults.stall_until(self.rank, engine.now)
            if stall_end > engine.now:
                stall_start = engine.now
                yield pooled_timeout(stall_end - stall_start)
                self.trace.record(self.rank, IDLE, stall_start, engine.now)
        start = engine.now
        duration = self.machine.compute_seconds(self.rank, flops, start)
        yield pooled_timeout(duration)
        self.trace.record_compute(self.rank, tid, start, engine.now)

    def overhead_delay(self, seconds: float):
        """Pure local scheduling overhead (queue manipulation, bookkeeping)."""
        engine = self.engine
        start = engine.now
        yield pooled_timeout(check_non_negative("seconds", seconds))
        self.trace.record(self.rank, OVERHEAD, start, engine.now)

    # ------------------------------------------------------------------
    # Data movement (traced as COMM; dead-target waits traced as FAILED)
    # ------------------------------------------------------------------
    # Each wrapper is a plain function returning the network's *traced*
    # generator (tracing folded into the cost shape): the ``yield from``
    # chain is one frame shorter than a delegating wrapper generator, on
    # paths that run millions of times per study. Failure accounting is
    # unchanged — the traced generators record FAILED before raising.
    def get(self, owner: int, nbytes: int):
        net = self.network
        net.stats.gets += 1
        return net.rma_traced(self.rank, owner, nbytes, self.trace, COMM)

    def accumulate(self, owner: int, nbytes: int):
        return self.network.accumulate_traced(
            self.rank, owner, nbytes, self.trace, COMM
        )

    # ------------------------------------------------------------------
    # Scheduling machinery (traced as OVERHEAD)
    # ------------------------------------------------------------------
    def fetch_add(self, home: int, cell: SharedCell, amount: int = 1):
        return self.network.fetch_add_traced(
            self.rank, home, cell, amount, self.trace, OVERHEAD
        )

    def protocol_get(self, owner: int, nbytes: int):
        """One-sided read used by scheduling protocols (traced OVERHEAD)."""
        net = self.network
        net.stats.gets += 1
        return net.rma_traced(self.rank, owner, nbytes, self.trace, OVERHEAD)

    def protocol_put(self, owner: int, nbytes: int):
        """One-sided write used by scheduling protocols (traced OVERHEAD)."""
        net = self.network
        net.stats.puts += 1
        return net.rma_traced(self.rank, owner, nbytes, self.trace, OVERHEAD)

    def send(self, dst: int, tag: Any, payload: Any = None, nbytes: int = 64):
        """Fire-and-forget message; the sender's overhead is traced
        OVERHEAD. One request when the engine walks it (see
        :meth:`Network.send`), passed through as :meth:`protocol_get`
        passes its operation."""
        return self.network.send(self.rank, dst, tag, payload, nbytes, self.trace, OVERHEAD)

    def recv(self, tag: Any = None, traced: bool = True, timeout: float | None = None):
        """Blocking receive.

        With ``traced=True`` the wait is accounted as protocol OVERHEAD;
        with ``traced=False`` it is recorded as explicit IDLE (a rank
        parked waiting for work/termination) so breakdowns still sum to
        wall-clock. With ``timeout`` set, returns ``None`` after that
        many simulated seconds if nothing matching arrived — the
        heartbeat-period parking primitive of fault-tolerant models.
        """
        start = self.engine.now
        message = yield from self.network.recv(self.rank, tag, timeout=timeout)
        self.trace.record(self.rank, OVERHEAD if traced else IDLE, start, self.engine.now)
        return message

    def try_recv(self, tag: Any = None) -> Message | None:
        """Non-blocking mailbox poll (costs no simulated time)."""
        return self.network.try_recv(self.rank, tag)

    def sleep(self, seconds: float):
        """Deliberate wait (backoff, parking); recorded as explicit IDLE."""
        start = self.engine.now
        yield pooled_timeout(check_non_negative("seconds", seconds))
        self.trace.record(self.rank, IDLE, start, self.engine.now)
