"""Parallel sweep orchestration: caching and supervision.

The paper's claims are all *sweep-shaped*: model x rank-count x machine x
granularity grids of independent simulation cells. This module is the
scheduler for that meta-workload — the same leverage the task runtimes
under study get from independent work units, applied to the study driver
itself:

- :class:`SweepCell` — one cell: a model (or SCF-simulation discipline)
  on one task graph, machine, seed, and fault plan. Cells are frozen,
  picklable, and content-addressable.
- :class:`SweepRunner` — expands a :class:`~repro.core.config.StudyConfig`
  (or an explicit list of cells) into jobs, serves already-computed cells
  from a :class:`~repro.core.cache.ResultCache`, and hands the rest to
  a :class:`~repro.parallel.CellExecutor`, whose ``run`` drives the one
  supervision loop: per-cell wall-clock timeouts, crash detection and
  worker respawn, bounded retry with backoff, and poison-cell
  quarantine (:class:`~repro.parallel.CellFailure`).

The result cache is the one checkpoint: every computed cell is stored as
it settles, so rerunning an interrupted sweep over the same cache serves
the settled cells as ``"cached"`` and computes only the rest.

Determinism guarantees (tested): cell seeds are derived exactly as the
serial study driver derives them, simulation never reads the wall clock,
and cached results round-trip bit-for-bit through the cache's entry
format (``to_arrays``/``from_arrays``) — so serial, parallel,
cold, warm, chaos-disturbed, and interrupted-then-rerun sweeps all
produce identical :class:`~repro.core.results.StudyReport` rows.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.cache import CACHE_SALT, ResultCache, cache_key, fingerprint
from repro.core.config import StudyConfig
from repro.core.journal import JournalEntry, SweepJournal, deferred_signals
from repro.core.results import StudyReport
from repro.chemistry.tasks import TaskGraph
from repro.faults import FaultPlan, RetryPolicy
from repro.parallel.executor import CellExecutor, make_executor
from repro.parallel.supervisor import (
    HOST_RETRY_POLICY,
    CellFailure,
    SupervisorStats,
)
from repro.simulate.machine import MachineSpec
from repro.util import ConfigurationError, derive_seed

#: Cell kinds the orchestrator knows how to execute.
CELL_KINDS = ("model", "scf_sim", "persistence")


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    Attributes:
        model: registry model name (``kind="model"``), ScfSimulation mode
            (``kind="scf_sim"``), or ignored (``kind="persistence"``).
        graph: the task graph to schedule.
        machine: the simulated cluster (carries rank count, network,
            variability).
        seed: the cell's own seed (already derived; the runner does not
            re-derive).
        faults: optional fault plan (``kind="model"`` only; another kind
            refuses a non-empty plan).
        trace_intervals: keep raw trace intervals (timeline rendering;
            ``kind="model"`` only).
        kind: one of :data:`CELL_KINDS`.
        options: extra model/simulation options as a sorted tuple of
            ``(name, value)`` pairs — tuple, not dict, so the cell stays
            hashable and its fingerprint is order-independent.
        tag: caller's display/bookkeeping label (defaults to ``model``).
    """

    model: str
    graph: TaskGraph
    machine: MachineSpec
    seed: int = 0
    faults: FaultPlan | None = None
    trace_intervals: bool = False
    kind: str = "model"
    options: tuple[tuple[str, Any], ...] = ()
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ConfigurationError(
                f"cell kind must be one of {CELL_KINDS}, got {self.kind!r}"
            )
        # execute_cell runs only a model cell with these two; on another
        # kind they would enter the cache key and change nothing.
        if self.kind != "model" and (
            self.trace_intervals or (self.faults is not None and not self.faults.empty)
        ):
            raise ConfigurationError(
                f"a {self.kind!r} cell takes no fault plan and no trace_intervals"
            )
        if self.options != tuple(sorted(self.options)):
            object.__setattr__(self, "options", tuple(sorted(self.options)))

    @property
    def label(self) -> str:
        base = self.tag or self.model
        return f"{base}@P={self.machine.n_ranks}"


def execute_cell(cell: SweepCell) -> Any:
    """Run one cell to completion (in-process; also the worker entry)."""
    options = dict(cell.options)
    if cell.kind == "model":
        from repro.exec_models.registry import make_model

        model = make_model(cell.model, **options)
        return model.run(
            cell.graph,
            cell.machine,
            seed=cell.seed,
            trace_intervals=cell.trace_intervals,
            faults=cell.faults,
        )
    if cell.kind == "scf_sim":
        from repro.exec_models.scf_simulation import ScfSimulation

        n_iterations = options.pop("n_iterations", 5)
        sim = ScfSimulation(cell.model, **options)
        return sim.run(cell.graph, cell.machine, n_iterations=n_iterations, seed=cell.seed)
    # kind == "persistence" (validated at construction)
    from repro.exec_models.persistence import run_persistence

    return run_persistence(cell.graph, cell.machine, seed=cell.seed, **options)


@dataclass
class SweepProgress:
    """One progress event handed to the runner's ``progress`` callback."""

    status: str  #: "cached" | "done" | "failed"
    label: str  #: the cell's display label
    completed: int  #: cells finished so far (cached + computed + failed)
    cached: int  #: of those, served from the result cache
    running: int  #: cells still outstanding
    total: int  #: cells in this sweep


def print_progress(event: SweepProgress) -> None:
    """A ready-made ``progress`` callback: one line per finished cell."""
    print(
        f"[{event.completed}/{event.total}] {event.status:>7} {event.label}"
        f"  ({event.cached} cached, {event.running} running)",
        flush=True,
    )


@dataclass
class SweepStats:
    """Cumulative cell accounting across a runner's lifetime."""

    cells: int = 0  #: cells settled (cached + computed + failed)
    cached: int = 0  #: served from the result cache
    computed: int = 0  #: executed this session
    failed: int = 0  #: quarantined after exhausting retries

    @property
    def hit_rate(self) -> float:
        return self.cached / self.cells if self.cells else 0.0


def study_cells(config: StudyConfig, graph: TaskGraph) -> list[SweepCell]:
    """Expand a study grid into cells, in the serial driver's order.

    Seed derivation (``derive_seed(seed, "study", model, P)``) matches
    :func:`repro.core.study.run_study` exactly, so sweep results are
    bit-for-bit the serial driver's results.
    """
    # One machine per rank count, shared by that row of cells.
    machines = {n_ranks: config.machine_for(n_ranks) for n_ranks in config.n_ranks}
    return [
        SweepCell(
            model=model_name,
            graph=graph,
            machine=machines[n_ranks],
            seed=derive_seed(config.seed, "study", model_name, n_ranks),
            faults=config.faults,
            tag=model_name,
        )
        for n_ranks in config.n_ranks
        for model_name in config.models
    ]


class SweepRunner:
    """Executes sweep cells with caching and supervision.

    Args:
        jobs: worker processes for cache-miss cells (1 = in-process
            serial; the simulator is deterministic, so results are
            identical either way).
        cache: a :class:`ResultCache`, a directory path for one, or None
            to disable caching entirely.
        progress: callback receiving :class:`SweepProgress` events (e.g.
            :func:`print_progress`); None = silent.
        salt: cache-key code-version salt (tests override it to model
            invalidation).
        timeout: per-cell wall-clock budget in seconds for worker
            execution (``jobs > 1`` only — a hung cell's worker is
            SIGKILLed and the cell retried); None disables.
        retry: host-level retry policy for failed/crashed/timed-out
            cells (:data:`~repro.parallel.HOST_RETRY_POLICY` default).
        on_error: ``"raise"`` (default) re-raises a cell's final failure
            (as :class:`~repro.parallel.WorkerError` from workers);
            ``"quarantine"`` records a
            :class:`~repro.parallel.CellFailure` in the results instead,
            so one poison cell cannot abort the sweep.
        journal: a directory for a write-only log of settled cells,
            one fsynced line each (one :class:`SweepJournal` per sweep
            grid is derived inside it); None writes none. Nothing reads
            it back: the cache is the checkpoint.
        cell_fn: the worker entry (default :func:`execute_cell`). Must
            compute exactly what ``execute_cell`` computes — this hook
            exists for wrappers that add host-fault injection or
            instrumentation around the same computation (chaos harness).
        executor: how cache-miss cells execute — a
            :class:`~repro.parallel.CellExecutor` instance or an executor
            spec string (``"local"`` forked supervised pool, the default;
            ``"serial"`` in-process; ``"distributed?bind=..."`` leased
            TCP workers — see :func:`repro.parallel.make_executor` /
            :func:`repro.parallel.parse_executor_spec`). Every backend
            shares the same retry/quarantine semantics, so results are
            identical across executors.
        on_result: callback receiving every *settled* cell as it lands,
            in completion order: ``on_result(index, cell, key, outcome,
            how)`` where ``key`` is the cell's content address (None
            when neither cache nor journal is configured), ``outcome``
            is the result or a :class:`~repro.parallel.CellFailure`, and
            ``how`` is ``"cached" | "fresh" | "failed"``.
            Unlike ``progress`` it carries the actual result — this is
            the streaming hook the job service uses to emit rows while a
            sweep is still running. An exception raised by the callback
            aborts the sweep (completed cells stay cached).
        deadline: absolute ``time.monotonic()`` instant past which no
            further cell may run. Enforced by the executor (the local
            backend kills in-flight cells; serial and distributed stop
            between cells); expired cells settle as ``CellFailure`` with
            ``error_type="DeadlineExceeded"`` (quarantine mode) or raise
            a :class:`~repro.parallel.WorkerError`. Settled cells stay
            cached, so a rerun of a deadline-expired sweep computes only
            the rest. None disables.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | Any | None = None,
        progress: Callable[[SweepProgress], None] | None = None,
        salt: str = CACHE_SALT,
        *,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        on_error: str = "raise",
        journal: str | Any | None = None,
        cell_fn: Callable[[SweepCell], Any] | None = None,
        executor: CellExecutor | str = "local",
        on_result: Callable[[int, SweepCell, str | None, Any, str], None]
        | None = None,
        deadline: float | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.progress = progress
        self.salt = salt
        self.timeout = timeout
        self.retry = retry if retry is not None else HOST_RETRY_POLICY
        self.on_error = on_error
        self.journal = journal
        self.cell_fn = cell_fn if cell_fn is not None else execute_cell
        self.executor = make_executor(executor)
        self.on_result = on_result
        self.deadline = deadline
        self.stats = SweepStats()
        #: Host-fault accounting from the supervised pool (crashes,
        #: timeouts, retries, quarantines), cumulative over this runner.
        self.supervisor_stats = SupervisorStats()
        #: Provenance ("cached" | "fresh" | "failed" |
        #: "pending") per cell of the *last* run_cells call, in cell
        #: order. "pending" appears only when the sweep was interrupted.
        self.last_provenance: list[str] = []
        #: Quarantined cells of the last run_cells call.
        self.last_failures: list[CellFailure] = []

    # ------------------------------------------------------------------
    def cell_key(self, cell: SweepCell) -> str:
        """The content address of one cell under this runner's salt."""
        return self._cell_keys([cell])[0]

    def _cell_keys(self, cells: Sequence[SweepCell]) -> list[str]:
        """Content addresses of ``cells``, in order.

        The graph is named by its ``content_key``. A study's cells share
        a handful of machines, fault plans and option tuples, so each of
        those is fingerprinted once per distinct object: ``cells`` keeps
        them all alive, which makes ``id()`` a sound memo key here.
        """
        memo: dict[int, str] = {}

        def fp(obj: Any) -> str:
            got = memo.get(id(obj))
            if got is None:
                got = memo[id(obj)] = fingerprint(obj)
            return got

        return [
            cache_key(
                graph_fp=cell.graph.content_key,
                machine_fp=fp(cell.machine),
                model=cell.model,
                seed=cell.seed,
                faults_fp=fp(cell.faults),
                kind=cell.kind,
                options_fp=fp(cell.options),
                trace_intervals=cell.trace_intervals,
                salt=self.salt,
            )
            for cell in cells
        ]

    # ------------------------------------------------------------------
    def run_cells(self, cells: Sequence[SweepCell]) -> list[Any]:
        """Execute every cell (cache-first), returning results in cell
        order; quarantined cells yield a
        :class:`~repro.parallel.CellFailure` in place of a result.

        Progress, provenance, and :class:`SweepStats` are flushed in a
        ``finally`` block, so an interrupted or failed sweep still
        reports the cells that did complete (``last_provenance`` marks
        unfinished cells ``"pending"``).
        """
        cells = list(cells)
        total = len(cells)
        results: list[Any] = [None] * total
        provenance = ["pending"] * total
        settled = {"cached": 0, "computed": 0, "failed": 0}
        completed = 0

        need_keys = self.cache is not None or self.journal is not None
        keys: list[str | None] = [None] * total
        if need_keys:
            keys[:] = self._cell_keys(cells)
        journal = None
        if self.journal is not None:
            journal = SweepJournal.for_sweep(self.journal, keys)
            journal.rotate()

        def emit(status: str, index: int) -> None:
            if self.progress is not None:
                self.progress(
                    SweepProgress(
                        status=status,
                        label=cells[index].label,
                        completed=completed,
                        cached=settled["cached"],
                        running=total - completed,
                        total=total,
                    )
                )

        misses: list[int] = []
        try:
            for index, cell in enumerate(cells):
                key = keys[index]
                hit = None
                if self.cache is not None and key is not None:
                    hit = self.cache.get(key)
                if hit is None:
                    misses.append(index)
                    continue
                results[index] = hit
                provenance[index] = "cached"
                settled["cached"] += 1
                completed += 1
                if self.on_result is not None:
                    self.on_result(index, cell, key, hit, "cached")
                emit("cached", index)

            if misses:
                jobs = [cells[index] for index in misses]
                labels = [cells[index].label for index in misses]
                # Hold SIGINT/SIGTERM across the cache-write +
                # journal-append pair so the journal never names a result
                # that didn't land (no-op guard without a journal).
                guard = deferred_signals if journal is not None else contextlib.nullcontext
                for position, outcome in self.executor.run(
                    self.cell_fn,
                    jobs,
                    n_workers=self.jobs,
                    timeout=self.timeout,
                    retry=self.retry,
                    on_error=self.on_error,
                    labels=labels,
                    stats=self.supervisor_stats,
                    deadline=self.deadline,
                ):
                    index = misses[position]
                    key = keys[index]
                    with guard():
                        if isinstance(outcome, CellFailure):
                            results[index] = outcome
                            provenance[index] = "failed"
                            settled["failed"] += 1
                            if journal is not None and key is not None:
                                journal.append(
                                    JournalEntry(
                                        key=key,
                                        label=cells[index].label,
                                        status="failed",
                                        attempts=outcome.attempts,
                                        error=f"{outcome.error_type}: "
                                        f"{outcome.message}",
                                    )
                                )
                        else:
                            results[index] = outcome
                            provenance[index] = "fresh"
                            settled["computed"] += 1
                            if self.cache is not None and key is not None:
                                self.cache.put(key, outcome)
                            if journal is not None and key is not None:
                                journal.append(
                                    JournalEntry(
                                        key=key,
                                        label=cells[index].label,
                                        status="done",
                                        result_path=str(self.cache.path_for(key))
                                        if self.cache is not None
                                        else "",
                                    )
                                )
                        completed += 1
                    if self.on_result is not None:
                        self.on_result(
                            index,
                            cells[index],
                            key,
                            results[index],
                            provenance[index],
                        )
                    emit(
                        "failed"
                        if isinstance(results[index], CellFailure)
                        else "done",
                        index,
                    )
        finally:
            # Flush accounting even when a cell raised or the sweep was
            # interrupted: completed work stays reported and cached.
            self.stats.cells += completed
            self.stats.cached += settled["cached"]
            self.stats.computed += settled["computed"]
            self.stats.failed += settled["failed"]
            self.last_provenance = provenance
            self.last_failures = [
                r for r in results if isinstance(r, CellFailure)
            ]
        return results

    def run_study(self, config: StudyConfig, source: Any) -> StudyReport:
        """Run every (model, rank-count) cell of a study through the sweep.

        ``source`` is anything :func:`repro.core.study.resolve_source`
        accepts: a ``Workload``, an ``ScfProblem``, or a ``TaskGraph``.
        Quarantined cells (``on_error="quarantine"``) are collected on
        ``report.failures`` instead of aborting the study.
        """
        from repro.core.study import resolve_source

        graph = resolve_source(source)
        cells = study_cells(config, graph)
        results = self.run_cells(cells)
        report = StudyReport()
        for result, prov in zip(results, self.last_provenance):
            if isinstance(result, CellFailure):
                report.failures.append(result)
                continue
            report.add(result)
            # Provenance is keyed the way StudyReport keys results: by
            # the model's self-reported name, which can differ from the
            # registry name (e.g. "work_stealing(one,random)").
            report.provenance[(result.model, result.n_ranks)] = prov
        return report

    def run_cell(self, cell: SweepCell) -> Any:
        """Convenience: execute a single cell through the cache."""
        return self.run_cells([cell])[0]
