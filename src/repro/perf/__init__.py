"""Deterministic per-run volume counters.

:func:`run_counters` flattens what the engine and the trace recorder
count on every :class:`~repro.exec_models.base.RunResult` (events
dispatched, zero-delay run-queue share, trace intervals, model and
network counters). Host wall-clock is measured from outside the
package, by ``bench/run.py``. See ``docs/perf.md``.
"""

from repro.perf.counters import run_counters

__all__ = ["run_counters"]
