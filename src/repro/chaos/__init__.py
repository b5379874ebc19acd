"""Real-process chaos harness for the host layer: sweep, fabric, service.

Where :mod:`repro.faults` injects failures into the *simulated* machine,
this package injects them into the *host* machine actually running the
sweep: live worker processes are SIGKILLed mid-cell, cells are hung past
their wall-clock timeout, on-disk cache entries and journal lines are
truncated or corrupted, TCP workers freeze, sever and duplicate, a daemon
is drained and restarted under load. The harness then asserts the one
property the whole fault-tolerant layer exists to provide: **the
disturbed run completes with result rows bit-for-bit identical to a
fault-free serial run**.

Every scenario is one row of :data:`SCENARIOS` — ``(key, suite, title,
run)``, suites ``host``, ``distributed`` and ``service`` — and
:func:`run_chaos` is the one runner: ``run_chaos(only=[...])`` takes
suite names and scenario keys, as does ``python -m repro chaos --only
NAME`` (``--quick`` is the CI smoke configuration; no ``--only`` runs
the ``host`` suite). ``docs/sweep.md`` holds the table.
"""

from repro.chaos.harness import (
    SCENARIOS,
    ChaosPlan,
    ChaosReport,
    ScenarioResult,
    chaos_execute_cell,
    results_identical,
    run_chaos,
)

# The rows register themselves on import, in table order.
from repro.chaos import host, distributed, service  # noqa: E402,F401  isort: skip

__all__ = [
    "SCENARIOS",
    "ChaosPlan",
    "ChaosReport",
    "ScenarioResult",
    "chaos_execute_cell",
    "results_identical",
    "run_chaos",
]
