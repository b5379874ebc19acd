"""Study result collection and summarization."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exec_models.base import RunResult
from repro.runtime.trace import COMM, COMPUTE, FAILED, IDLE, OVERHEAD
from repro.util import ConfigurationError


def result_row(
    r: RunResult, *, faulty: bool = False
) -> dict[str, float | str | int]:
    """The canonical flat summary row for one run.

    The single row schema every surface renders — :meth:`StudyReport.rows`
    tables, the service's NDJSON row stream — so a row built per-cell
    while a sweep is still running is byte-identical to the same row in
    the finished table. ``faulty`` adds the fault-accounting columns
    (``failed%`` / ``completion`` / ``degraded``); :meth:`StudyReport.rows`
    sets it when *any* run in the table was fault-affected.
    """
    fracs = r.breakdown_fractions()
    row: dict[str, float | str | int] = {
        "model": r.model,
        "P": r.n_ranks,
        "makespan_ms": r.makespan * 1e3,
        "speedup": r.speedup,
        "efficiency": r.efficiency,
        "utilization": r.mean_utilization,
        "imbalance": r.compute_imbalance,
        "compute%": 100 * fracs[COMPUTE],
        "comm%": 100 * fracs[COMM],
        "overhead%": 100 * fracs[OVERHEAD],
        "idle%": 100 * fracs[IDLE],
    }
    if faulty:
        row["failed%"] = 100 * fracs.get(FAILED, 0.0)
        row["completion"] = r.completion_rate
        row["degraded"] = "yes" if r.degraded else ""
    return row


@dataclass
class StudyReport:
    """All runs of one study, keyed by (model name, rank count).

    ``provenance`` optionally records, per key, how the result was
    obtained: computed fresh, served from the sweep cache, or restored
    from a checkpoint journal (``"fresh"`` / ``"cached"`` /
    ``"resumed"``). It is bookkeeping only: all three are bit-for-bit
    identical, so nothing downstream may branch on it.

    ``failures`` collects quarantined sweep cells
    (:class:`~repro.parallel.CellFailure`): cells that exhausted their
    host-level retry budget under ``on_error="quarantine"``. They have no
    result row; a report with failures is *partial*, not wrong.
    """

    results: dict[tuple[str, int], RunResult] = field(default_factory=dict)
    provenance: dict[tuple[str, int], str] = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def add(self, result: RunResult, provenance: str | None = None) -> None:
        self.results[(result.model, result.n_ranks)] = result
        if provenance is not None:
            self.provenance[(result.model, result.n_ranks)] = provenance

    @property
    def complete(self) -> bool:
        """Whether every attempted cell produced a result (no failures)."""
        return not self.failures

    def get(self, model: str, n_ranks: int) -> RunResult:
        try:
            return self.results[(model, n_ranks)]
        except KeyError:
            raise ConfigurationError(
                f"no result for model={model!r}, n_ranks={n_ranks}"
            ) from None

    @property
    def models(self) -> list[str]:
        seen: dict[str, None] = {}
        for model, _ in self.results:
            seen.setdefault(model)
        return list(seen)

    # ------------------------------------------------------------------
    def rows(self) -> list[dict[str, float | str | int]]:
        """Flat summary rows (one per run) for table rendering.

        Fault-affected runs additionally carry ``failed%`` (fraction of
        rank-seconds lost to failures), ``completion`` (fraction of tasks
        executed), and a ``degraded`` marker; for fault-free runs these
        are 0 / 1 / blank.
        """
        faulty = any(
            r.failed_ranks or r.degraded for r in self.results.values()
        )
        return [
            result_row(r, faulty=faulty)
            for _key, r in sorted(
                self.results.items(), key=lambda kv: (kv[0][1], kv[0][0])
            )
        ]

    def series(self, model: str) -> tuple[np.ndarray, np.ndarray]:
        """(rank counts, makespans) for one model, sorted by P."""
        points = sorted(
            (p, r.makespan) for (m, p), r in self.results.items() if m == model
        )
        if not points:
            raise ConfigurationError(f"no results for model {model!r}")
        ps, ts = zip(*points)
        return np.array(ps), np.array(ts)

    def improvement(self, better: str, worse: str, n_ranks: int) -> float:
        """Makespan ratio worse/better at one scale (>1: `better` wins)."""
        return self.get(worse, n_ranks).makespan / self.get(better, n_ranks).makespan
