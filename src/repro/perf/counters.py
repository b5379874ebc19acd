"""Deterministic volume counters for simulated runs.

The engine and trace recorder count *how much work the simulator did* —
events dispatched (split by heap vs. zero-delay run-queue; heap
dispatches are ``sim_events - sim_ready_events``), timeout requests,
resource grants, fused network ops, and trace intervals recorded —
independent of how fast the host ran it. Those volumes are pure functions
of the workload/seed, so they serve two jobs:

- **regression anchors**: a refactor that claims bit-for-bit identity
  must reproduce them exactly;
- **throughput denominators**: ``bench/run.py`` divides ``sim_events``
  by measured wall time for ``simulate.events_per_s``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec_models.base import RunResult

__all__ = ["run_counters"]


def run_counters(result: "RunResult") -> dict[str, float]:
    """Flatten every deterministic counter of a run into one dict.

    Engine/trace volumes come first, then model-specific counters
    (``model.*``: steals, chunks, rounds, ...), then network operation
    counts (``network.*``). Keys are sorted within each group so the
    mapping is stable across runs and Python versions.
    """
    out: dict[str, float] = {
        "sim_events": float(result.sim_events),
        "sim_ready_events": float(result.sim_ready_events),
        "timeout_allocs": float(result.timeout_allocs),
        "grant_resumes": float(result.grant_resumes),
        "fused_ops": float(result.fused_ops),
        "trace_records": float(result.trace_records),
        "n_tasks": float(result.n_tasks),
        "n_ranks": float(result.n_ranks),
    }
    for key in sorted(result.counters):
        out[f"model.{key}"] = float(result.counters[key])
    for key in sorted(result.network):
        out[f"network.{key}"] = float(result.network[key])
    return out

