"""The unified public facade: one import, one signature family.

Everything a study, benchmark, example, or CLI command needs lives here
under a single consistent calling convention:

- the *thing being studied* (a ``Workload``, ``ScfProblem``, or
  ``TaskGraph``) is always the positional ``source`` argument;
- every tuning knob is keyword-only;
- model options use one shared vocabulary
  (:func:`~repro.exec_models.registry.normalize_model_options`) across
  :func:`make_model`, :func:`run_model`, and :class:`ScfSimulation`.

The sweep entry points (:func:`sweep`, :class:`SweepRunner`) add
process-parallel execution and content-addressed result caching on top;
``sweep(...)`` with default arguments is behaviourally identical to
``run_study(...)`` — same seeds, same rows, bit for bit.

``repro.api.__all__`` is the documented stable surface (see
``docs/api_tour.md``); anything importable elsewhere is an internal
layer that may move between releases.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import __version__

from repro.chemistry.molecules import Molecule, linear_alkane, water_cluster
from repro.chemistry.scf import ScfProblem, ScfResult
from repro.chemistry.scf import run_scf as _run_scf
from repro.chemistry.tasks import TaskGraph
from repro.core.artifacts import (
    ArtifactStats,
    ArtifactStore,
    artifact_key,
    configure_artifacts,
    configure_job_artifacts,
    default_store,
    use_store,
)
from repro.core.cache import (
    CACHE_SALT,
    CacheStats,
    ResultCache,
    default_cache_dir,
    fingerprint,
)
from repro.core.config import MACHINE_PRESETS, StudyConfig
from repro.core.jobspec import JobSpec, JobSpecError, SourceSpec
from repro.core.journal import JournalEntry, SweepJournal
from repro.core.report import format_failures, format_table
from repro.core.results import StudyReport
from repro.core.study import (
    Workload,
    build_workload,
    resolve_source,
    run_study,
)
from repro.core.sweep import (
    SweepCell,
    SweepProgress,
    SweepRunner,
    SweepStats,
    print_progress,
    study_cells,
)
from repro.exec_models.base import RunResult
from repro.exec_models.registry import (
    MODEL_NAMES,
    make_model,
    normalize_model_options,
)
from repro.exec_models.scf_simulation import ScfSimResult, ScfSimulation
from repro.faults import FaultPlan, RetryPolicy
from repro.parallel.executor import (
    CellExecutor,
    DegradedExecutionWarning,
    format_executor_spec,
    make_executor,
    parse_executor_spec,
)
from repro.parallel.fabric import DistributedExecutor
from repro.parallel.supervisor import HOST_RETRY_POLICY, CellFailure, WorkerError
from repro.simulate.machine import (
    MachineSpec,
    commodity_cluster,
    fast_network_cluster,
    hierarchical_cluster,
)

__all__ = [
    # facade metadata
    "__version__",
    "api_surface",
    # workload construction
    "Molecule",
    "water_cluster",
    "linear_alkane",
    "ScfProblem",
    "TaskGraph",
    "Workload",
    "build_workload",
    "resolve_source",
    # machines
    "MachineSpec",
    "MACHINE_PRESETS",
    "commodity_cluster",
    "fast_network_cluster",
    "hierarchical_cluster",
    # single runs
    "run_scf",
    "ScfResult",
    "run_model",
    "make_model",
    "normalize_model_options",
    "MODEL_NAMES",
    "RunResult",
    "ScfSimulation",
    "ScfSimResult",
    "FaultPlan",
    # studies and sweeps
    "StudyConfig",
    "StudyReport",
    "run_study",
    "sweep",
    "JobSpec",
    "SourceSpec",
    "JobSpecError",
    "run_job",
    "study_cells",
    "SweepRunner",
    "SweepCell",
    "SweepProgress",
    "SweepStats",
    "print_progress",
    # caching
    "ResultCache",
    "CacheStats",
    "default_cache_dir",
    "fingerprint",
    "CACHE_SALT",
    # artifact store (memoized workload/hypergraph/partition builds)
    "ArtifactStore",
    "ArtifactStats",
    "artifact_key",
    "configure_artifacts",
    "default_store",
    "use_store",
    # fault tolerance (host layer)
    "CellFailure",
    "WorkerError",
    "RetryPolicy",
    "HOST_RETRY_POLICY",
    "SweepJournal",
    "JournalEntry",
    # executor backends (local pool / serial / distributed TCP fabric)
    "CellExecutor",
    "DistributedExecutor",
    "DegradedExecutionWarning",
    "make_executor",
    "parse_executor_spec",
    "format_executor_spec",
    # rendering
    "format_table",
    "format_failures",
]


def api_surface() -> tuple[str, ...]:
    """The frozen public surface: ``__all__`` as an immutable tuple.

    Pinned by a test (``tests/core/test_api.py``) so accidental surface
    growth — a new export sneaking into ``__all__`` without a conscious
    decision — fails CI instead of shipping.
    """
    return tuple(__all__)


def run_scf(molecule: Molecule, **options: Any) -> ScfResult:
    """Converge a restricted Hartree-Fock calculation.

    Facade spelling of :func:`repro.chemistry.scf.run_scf` with every
    option keyword-only (``problem=``, ``g_builder=``, ``accelerator=``,
    ``max_iterations=``, ...).
    """
    return _run_scf(molecule, **options)


def run_model(
    model: str,
    source: Any,
    machine: MachineSpec,
    *,
    seed: int = 0,
    faults: FaultPlan | None = None,
    trace_intervals: bool = False,
    **options: Any,
) -> RunResult:
    """Simulate one execution model on one workload and machine.

    ``source`` is a ``Workload``, ``ScfProblem``, or ``TaskGraph``;
    ``options`` are model knobs in the shared vocabulary, e.g.
    ``run_model("work_stealing", graph, machine, steal_policy="one")``.
    """
    return make_model(model, **options).run(
        resolve_source(source),
        machine,
        seed=seed,
        faults=faults,
        trace_intervals=trace_intervals,
    )


def sweep(
    config: StudyConfig,
    source: Any,
    *,
    jobs: int = 1,
    cache: ResultCache | str | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    timeout: float | None = None,
    retry: RetryPolicy | None = None,
    on_error: str = "raise",
    journal: SweepJournal | str | None = None,
    resume: bool = False,
    executor: CellExecutor | str = "local",
    on_result: Callable[..., None] | None = None,
    deadline: float | None = None,
) -> StudyReport:
    """Run a study grid through the parallel, cached sweep orchestrator.

    Identical results to ``run_study(config, source)`` — the sweep only
    changes *how* cells execute (worker processes, cache reuse, crash
    recovery), never what they compute. Pass
    ``cache=default_cache_dir()`` (or any directory) to persist results
    across runs; ``jobs=N`` to fan cache-miss cells across N supervised
    forked workers.

    Host-level fault tolerance (see ``docs/sweep.md``): ``timeout``
    bounds each cell's wall clock (hung workers are killed and the cell
    retried), ``retry`` sets the attempt budget/backoff,
    ``on_error="quarantine"`` records poison cells on
    ``report.failures`` instead of aborting, and ``journal``/``resume``
    checkpoint completed cells so an interrupted sweep continues where
    it stopped.

    ``executor`` selects the execution backend via the canonical spec
    string (:func:`parse_executor_spec`): ``"local"`` (supervised forked
    workers, the default), ``"serial"``, ``"distributed?bind=...&
    lease=..."``, or an already-constructed instance such as a
    :class:`DistributedExecutor` serving ``python -m repro worker``
    daemons over TCP (see ``docs/distributed.md``). All backends share
    the same retry/quarantine semantics and produce identical reports.

    ``on_result`` receives every settled cell *with its result* in
    completion order (see :class:`SweepRunner`); it is how the job
    service streams rows while a sweep is still running.

    ``deadline`` is an absolute ``time.monotonic()`` instant bounding
    the whole sweep: cells not settled by then quarantine as
    ``DeadlineExceeded`` failures (or raise under ``on_error="raise"``).
    Completed cells stay cached/journaled, so an expired sweep resumes
    bit-for-bit.
    """
    runner = SweepRunner(
        jobs=jobs,
        cache=cache,
        progress=progress,
        timeout=timeout,
        retry=retry,
        on_error=on_error,
        journal=journal,
        resume=resume,
        executor=executor,
        on_result=on_result,
        deadline=deadline,
    )
    return runner.run_study(config, source)


def run_job(
    spec: JobSpec,
    *,
    source: Any | None = None,
    executor: CellExecutor | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    on_result: Callable[..., None] | None = None,
    journal: SweepJournal | str | None = None,
    resume: bool = False,
    cache: ResultCache | str | None = None,
    deadline: float | None = None,
) -> StudyReport:
    """Execute one :class:`JobSpec` end to end — the one path under
    every surface (``repro study``, ``repro serve``, and programmatic
    use all terminate here).

    The spec is validated, its declarative source is materialized into a
    built problem (through the artifact store when
    ``spec.artifact_cache``), and the study runs through :func:`sweep`
    with the spec's executor/jobs/timeout/retry settings and
    ``on_error="quarantine"`` (a poison cell yields a failure row, not
    an aborted job).

    ``executor`` overrides the spec's executor string with a live
    instance (the service's backend router does this — e.g. to reuse a
    daemon-lifetime distributed fabric). ``cache``/``journal``/``resume``
    override the spec's cache settings the same way (the service owns
    its state directory; the CLI derives them from ``--cache-dir``).
    ``source`` supplies an already-built problem for the spec's source
    recipe — callers that need the built graph for their own reporting
    (the CLI prints basis/task counts) pass it to avoid a double build.

    ``deadline`` (absolute ``time.monotonic()`` instant) bounds the
    sweep; when omitted, ``spec.deadline_s`` (relative seconds, an
    execution knob outside the job identity) is converted to an
    absolute deadline at entry.
    """
    import pathlib
    import time

    from repro.simulate.sched import set_engine_mode

    spec.validate()
    if deadline is None and spec.deadline_s is not None:
        deadline = time.monotonic() + spec.deadline_s
    # Engine mode is process-wide (forked sweep workers inherit it via
    # the environment) and performance-only: every mode is bit-for-bit
    # equivalent, so it is deliberately not part of the job identity.
    set_engine_mode(spec.engine)
    if cache is None and spec.cache:
        cache = spec.cache_dir or default_cache_dir()
    cache_root = cache.root if isinstance(cache, ResultCache) else cache
    configure_job_artifacts(cache_root, enabled=spec.artifact_cache)
    problem = source if source is not None else spec.source.build()
    config = spec.study_config(problem)
    if journal is None and cache_root is not None:
        journal = str(pathlib.Path(cache_root) / "journal")
    return sweep(
        config,
        problem,
        jobs=spec.jobs,
        cache=cache,
        progress=progress,
        timeout=spec.timeout,
        retry=spec.retry_policy(),
        on_error="quarantine",
        journal=journal,
        resume=resume,
        executor=executor if executor is not None else spec.executor,
        on_result=on_result,
        deadline=deadline,
    )
