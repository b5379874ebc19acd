"""Failure detection, kept separate from failure occurrence.

A crash is instant; *knowing* about it is not. The detector models the
two ways real runtimes learn of a death:

- **Heartbeat timeout:** a crash becomes visible to everyone once
  ``detection_latency`` simulated seconds have elapsed since it — the
  steady-state cost of a gossip/heartbeat layer, modeled without
  simulating the heartbeat traffic itself (documented approximation).
- **On-contact (fail-fast):** an operation against the dead rank raises
  :class:`~repro.util.RankFailedError` after the RMA timeout; the caller
  reports the rank here, making the death immediately visible to all —
  modeling the detector broadcasting a confirmed failure.

Detection is monotone (suspects are never unsuspected; crashes are
permanent) and deterministic.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector
from repro.util import check_positive


class FailureDetector:
    """Shared failure view for one run's execution model."""

    def __init__(self, injector: FaultInjector, detection_latency: float | None = None) -> None:
        self.injector = injector
        latency = (
            detection_latency
            if detection_latency is not None
            else injector.plan.detection_latency
        )
        check_positive("detection_latency", latency)
        self.detection_latency = float(latency)
        self._reported: set[int] = set()

    def report(self, rank: int) -> None:
        """Record an on-contact detection (a failed direct operation)."""
        if self.injector.is_dead(rank):
            self._reported.add(rank)

    def suspects(self) -> set[int]:
        """All ranks currently known (to the runtime) to have failed."""
        now = self.injector.engine.now
        out = set(self._reported)
        for rank, since in self.injector.dead_since.items():
            if now >= since + self.detection_latency:
                out.add(rank)
        return out

    def is_suspected(self, rank: int) -> bool:
        if rank in self._reported:
            return True
        since = self.injector.dead_since.get(rank)
        return since is not None and self.injector.engine.now >= since + self.detection_latency
