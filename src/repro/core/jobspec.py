"""The unified study description: one `JobSpec`, three front doors.

Before this module, "run a study" meant three disjoint vocabularies:
``repro study`` CLI flags, ``repro.api.sweep(...)`` keyword arguments,
and (with the service) an HTTP request body — each with its own parsing,
defaults, and validation holes (``--bind``/``--lease`` were CLI-only
side channels; ``--jobs``/``--executor`` interplay was never checked
anywhere). A :class:`JobSpec` is the single normal form all three
surfaces reduce to:

- :meth:`JobSpec.from_cli_args` — the ``repro study``/``repro serve``
  argparse namespace;
- :meth:`JobSpec.from_json` / :meth:`JobSpec.to_json` — the HTTP job
  API body (and the service's on-disk job records);
- direct construction — programmatic use through ``repro.api``.

Because the spec is *declarative* (a molecule recipe, not a live
``TaskGraph``), it is JSON-serializable and content-addressable:
:meth:`JobSpec.job_key` is a sha256 over exactly the fields that
determine the study's **results** (source, models, ranks, machine, seed,
faults — plus the sweep cache's code-version salt). Execution knobs
(executor, jobs, timeouts, cache paths) are deliberately excluded: two
specs that compute the same rows share a key, which is what makes
submit-side dedupe in the service fall out for free — a million
identical submissions collapse onto one simulation.

Validation (:meth:`JobSpec.validate`) happens in one place with
structured errors (:class:`JobSpecError` carries the offending field),
including the cross-field rules no single layer used to own: a
``serial`` executor with ``jobs > 1`` or a per-cell ``timeout`` is a
contradiction, and ``distributed`` with ``jobs = 1`` would degrade to
*unsupervised* serial execution the moment the worker fleet is lost.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.util import ConfigurationError

#: Spec schema version; bump on incompatible field changes so stale
#: service job records are rejected instead of misread.
JOBSPEC_VERSION = 1

#: Molecule families a declarative source can name.
SOURCE_FAMILIES = ("water", "alkane")


class JobSpecError(ConfigurationError):
    """A structured JobSpec validation failure.

    Attributes:
        field: dotted name of the offending field (``"executor"``,
            ``"source.size"``, or ``"jobs/executor"`` for cross-field
            rules).
        reason: human-readable explanation, always naming the fix.
    """

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(f"invalid job spec: {field}: {reason}")
        self.field = field
        self.reason = reason

    def to_json(self) -> dict[str, str]:
        """The wire shape the service returns for a 400 response."""
        return {"field": self.field, "reason": self.reason}


@dataclass(frozen=True)
class SourceSpec:
    """A declarative workload recipe (what ``_build_molecule`` + problem
    construction do in the CLI), serializable and content-addressable.

    Attributes:
        molecule: workload family — ``"water"`` (random water cluster)
            or ``"alkane"`` (linear alkane chain).
        size: monomers / carbons.
        block_size: basis-block granularity of the task graph.
        tau: Schwarz screening threshold.
        seed: geometry seed (water clusters only).
    """

    molecule: str = "water"
    size: int = 4
    block_size: int = 6
    tau: float = 1.0e-10
    seed: int = 0

    def validate(self) -> None:
        if self.molecule not in SOURCE_FAMILIES:
            raise JobSpecError(
                "source.molecule",
                f"unknown family {self.molecule!r}; "
                f"known: {', '.join(SOURCE_FAMILIES)}",
            )
        if not isinstance(self.size, int) or self.size < 1:
            raise JobSpecError("source.size", f"must be an int >= 1, got {self.size!r}")
        if not isinstance(self.block_size, int) or self.block_size < 1:
            raise JobSpecError(
                "source.block_size", f"must be an int >= 1, got {self.block_size!r}"
            )
        if self.tau < 0:
            raise JobSpecError("source.tau", f"must be >= 0, got {self.tau!r}")

    def build(self) -> Any:
        """Materialize the recipe into a built :class:`ScfProblem`."""
        from repro.chemistry.molecules import linear_alkane, water_cluster
        from repro.chemistry.scf import ScfProblem

        if self.molecule == "water":
            molecule = water_cluster(self.size, seed=self.seed)
        else:
            molecule = linear_alkane(self.size)
        return ScfProblem.build(
            molecule, block_size=self.block_size, tau=self.tau
        )


@dataclass(frozen=True)
class JobSpec:
    """One study, fully described: what to compute and how to run it.

    *Identity* fields (folded into :meth:`job_key`): ``source``,
    ``models``, ``ranks``, ``machine``, ``seed``, ``faults``. *Execution*
    fields (how, not what — excluded from identity): ``executor``,
    ``engine``, ``jobs``, ``timeout``, ``deadline_s``, ``max_attempts``,
    ``cache``, ``cache_dir``, ``artifact_cache``, ``tag``.

    Attributes:
        source: the declarative workload recipe.
        models: execution-model registry names to sweep.
        ranks: rank counts to sweep.
        machine: machine preset name.
        seed: base study seed (per-cell seeds derive from it).
        faults: CLI-grammar fault spec string (``"crash:2@0.3,..."``,
            see :func:`repro.faults.plan_from_spec`); ``""`` = none.
            Times are fractions of the estimated ideal makespan at the
            smallest swept rank count, exactly as ``repro study
            --faults`` scales them.
        executor: executor spec string — ``"name"`` or
            ``"name?opt=val&..."`` (:func:`repro.parallel.executor.
            parse_executor_spec`).
        engine: simulation-engine mode (``repro.simulate.sched``):
            ``auto`` | ``python`` (the reference heap engine) |
            ``compiled`` (the C core). Engines are bit-for-bit
            equivalent, so — like ``executor`` — the choice is excluded
            from :meth:`job_key`.
        jobs: worker processes for cache-miss cells.
        timeout: per-cell wall-clock budget in seconds (None = none).
        deadline_s: whole-job wall-clock budget in seconds (None =
            none). Cells not settled when it expires quarantine as
            ``DeadlineExceeded`` failures and the job reaches a
            ``failed/deadline`` terminal state in the service; settled
            cells stay cached, so a resubmission computes only the rest.
            An execution knob, so excluded from :meth:`job_key`.
        max_attempts: tries per cell before quarantine (None = policy
            default).
        cache: reuse/populate the content-addressed result cache.
        cache_dir: cache directory ("" = caller's default).
        artifact_cache: memoize workload-build intermediates.
        tag: free-form label for humans; never part of identity.
    """

    source: SourceSpec = field(default_factory=SourceSpec)
    models: tuple[str, ...] = ("static_block", "counter_dynamic", "work_stealing")
    ranks: tuple[int, ...] = (16, 64)
    machine: str = "commodity"
    seed: int = 0
    faults: str = ""
    executor: str = "local"
    engine: str = "auto"
    jobs: int = 1
    timeout: float | None = None
    deadline_s: float | None = None
    max_attempts: int | None = None
    cache: bool = True
    cache_dir: str = ""
    artifact_cache: bool = True
    tag: str = ""

    def __post_init__(self) -> None:
        # Normalize sequence fields so equal specs compare (and hash to
        # the same job key) regardless of list-vs-tuple spelling.
        if not isinstance(self.models, tuple):
            object.__setattr__(self, "models", tuple(self.models))
        if not isinstance(self.ranks, tuple):
            object.__setattr__(self, "ranks", tuple(self.ranks))
        if isinstance(self.source, dict):
            object.__setattr__(self, "source", SourceSpec(**self.source))

    # ------------------------------------------------------------------
    # Validation: the single home of every cross-surface rule.
    # ------------------------------------------------------------------
    def validate(self) -> "JobSpec":
        """Check every field and cross-field rule; returns ``self``.

        Raises :class:`JobSpecError` (never a bare assertion or a
        late surprise inside a backend) so all three front doors — CLI,
        ``api``, HTTP — report the same structured failure.
        """
        from repro.exec_models.registry import MODEL_NAMES
        from repro.parallel.executor import parse_executor_spec

        self.source.validate()
        if not self.models:
            raise JobSpecError("models", "must be non-empty")
        for name in self.models:
            if name not in MODEL_NAMES:
                raise JobSpecError(
                    "models",
                    f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}",
                )
        if not self.ranks or any(
            not isinstance(p, int) or p < 1 for p in self.ranks
        ):
            raise JobSpecError(
                "ranks", f"must be non-empty positive ints, got {self.ranks!r}"
            )
        from repro.core.config import MACHINE_PRESETS

        if self.machine not in MACHINE_PRESETS:
            raise JobSpecError(
                "machine",
                f"unknown preset {self.machine!r}; "
                f"known: {', '.join(MACHINE_PRESETS)}",
            )
        from repro.simulate.sched import ENGINE_MODES

        if self.engine not in ENGINE_MODES:
            raise JobSpecError(
                "engine",
                f"unknown engine mode {self.engine!r}; "
                f"known: {', '.join(ENGINE_MODES)}",
            )
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise JobSpecError("jobs", f"must be an int >= 1, got {self.jobs!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise JobSpecError(
                "timeout", f"must be positive seconds, got {self.timeout!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise JobSpecError(
                "deadline_s",
                f"must be positive seconds, got {self.deadline_s!r}",
            )
        if self.max_attempts is not None and (
            not isinstance(self.max_attempts, int) or self.max_attempts < 1
        ):
            raise JobSpecError(
                "max_attempts", f"must be an int >= 1, got {self.max_attempts!r}"
            )
        if self.faults:
            from repro.faults import plan_from_spec

            try:
                plan = plan_from_spec(self.faults, time_scale=1.0)
            except ConfigurationError as err:
                raise JobSpecError("faults", str(err)) from None
            if plan.max_rank() >= min(self.ranks):
                raise JobSpecError(
                    "faults",
                    f"plan references rank {plan.max_rank()} but the "
                    f"smallest swept rank count is {min(self.ranks)}",
                )
        try:
            name, _options = parse_executor_spec(self.executor)
        except ConfigurationError as err:
            raise JobSpecError("executor", str(err)) from None
        # Cross-field rules — previously unchecked anywhere, so e.g.
        # `repro study --jobs 1 --executor distributed` would quietly run
        # its fallback path serially in-process, losing supervision.
        if name == "serial" and self.jobs > 1:
            raise JobSpecError(
                "jobs/executor",
                f"the serial executor runs in-process; jobs={self.jobs} "
                "has no effect — drop jobs or use executor='local'",
            )
        if name == "serial" and self.timeout is not None:
            raise JobSpecError(
                "timeout/executor",
                "per-cell timeouts need process isolation; the serial "
                "executor cannot enforce them — drop timeout or use "
                "executor='local'",
            )
        if name == "distributed" and self.jobs < 2:
            raise JobSpecError(
                "jobs/executor",
                "the distributed executor needs jobs >= 2 to size its "
                "local fallback pool; with jobs=1 a lost worker fleet "
                "would degrade to unsupervised serial execution — set "
                "jobs >= 2 or use executor='local'",
            )
        return self

    # ------------------------------------------------------------------
    # Construction from the three front doors.
    # ------------------------------------------------------------------
    @classmethod
    def from_cli_args(cls, args: Any) -> "JobSpec":
        """Normalize a ``repro study`` argparse namespace into a spec.

        Folds the historical ``--bind``/``--lease`` side channels into
        the canonical executor spec string (they only apply to the
        distributed backend, matching the old CLI behaviour).
        """
        from repro.parallel.executor import (
            format_executor_spec,
            parse_executor_spec,
        )

        try:
            name, options = parse_executor_spec(args.executor)
        except ConfigurationError as err:
            raise JobSpecError("executor", str(err)) from None
        if name == "distributed":
            bind = getattr(args, "bind", None)
            lease = getattr(args, "lease", None)
            if bind is not None:
                options.setdefault("bind", bind)
            if lease is not None:
                options.setdefault("lease", lease)
        return cls(
            source=SourceSpec(
                molecule=args.molecule,
                size=args.size,
                block_size=args.block_size,
                tau=args.tau,
                seed=args.seed,
            ),
            models=tuple(args.models),
            ranks=tuple(args.ranks),
            machine=args.machine,
            seed=args.seed,
            faults=args.faults or "",
            executor=format_executor_spec(name, options),
            engine=getattr(args, "engine", "auto") or "auto",
            jobs=args.jobs,
            timeout=args.timeout,
            deadline_s=getattr(args, "deadline", None),
            max_attempts=args.max_attempts,
            cache=not args.no_cache,
            cache_dir=args.cache_dir or "",
            artifact_cache=args.artifact_cache,
        )

    @classmethod
    def from_json(cls, payload: "str | bytes | dict[str, Any]") -> "JobSpec":
        """Parse the wire/disk form produced by :meth:`to_json`.

        Unknown top-level keys are rejected (a typo'd field silently
        defaulting is exactly the failure mode this class exists to
        kill); a missing/foreign version is rejected the same way.
        """
        if isinstance(payload, (str, bytes)):
            try:
                payload = json.loads(payload)
            except json.JSONDecodeError as err:
                raise JobSpecError("body", f"not valid JSON: {err}") from None
        if not isinstance(payload, dict):
            raise JobSpecError("body", f"expected a JSON object, got {type(payload).__name__}")
        data = dict(payload)
        version = data.pop("v", JOBSPEC_VERSION)
        if version != JOBSPEC_VERSION:
            raise JobSpecError(
                "v", f"unsupported spec version {version!r} (this build "
                f"speaks v{JOBSPEC_VERSION})"
            )
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobSpecError(
                unknown[0], f"unknown field (known: {', '.join(sorted(known))})"
            )
        source = data.pop("source", None)
        if source is not None:
            if not isinstance(source, dict):
                raise JobSpecError("source", "must be a JSON object")
            src_known = {f.name for f in SourceSpec.__dataclass_fields__.values()}  # type: ignore[attr-defined]
            src_unknown = sorted(set(source) - src_known)
            if src_unknown:
                raise JobSpecError(
                    f"source.{src_unknown[0]}",
                    f"unknown field (known: {', '.join(sorted(src_known))})",
                )
            try:
                data["source"] = SourceSpec(**source)
            except TypeError as err:
                raise JobSpecError("source", str(err)) from None
        try:
            return cls(**data)
        except TypeError as err:
            raise JobSpecError("body", str(err)) from None

    def to_json(self) -> dict[str, Any]:
        """A JSON-ready dict; ``from_json(to_json())`` round-trips exactly."""
        data = asdict(self)
        data["models"] = list(self.models)
        data["ranks"] = list(self.ranks)
        return {"v": JOBSPEC_VERSION, **data}

    # ------------------------------------------------------------------
    # Identity.
    # ------------------------------------------------------------------
    def job_key(self) -> str:
        """The content address of *what this spec computes*.

        Only result-determining fields participate (plus the sweep
        cache's code-version salt, so a simulator-semantics bump retires
        stale identities along with stale cells). Execution knobs are
        excluded on purpose: ``executor="serial"`` and
        ``executor="local"`` produce bit-for-bit identical rows, so they
        must dedupe onto the same job.
        """
        from repro.core.cache import CACHE_SALT, fingerprint

        return fingerprint(
            {
                "salt": CACHE_SALT,
                "kind": "jobspec-v1",
                "source": self.source,
                "models": self.models,
                "ranks": self.ranks,
                "machine": self.machine,
                "seed": self.seed,
                "faults": self.faults,
            }
        )

    # ------------------------------------------------------------------
    # Materialization: the spec -> the live objects the sweep needs.
    # ------------------------------------------------------------------
    def fault_time_scale(self, problem: Any) -> float:
        """Seconds per unit of fault-spec time for ``problem``.

        The estimated ideal makespan at the smallest swept rank count
        (total work spread perfectly over P nominal-speed ranks), so
        ``crash:2@0.3`` means "rank 2 dies about 30% into the run".
        """
        from repro.core.config import MACHINE_PRESETS

        machine = MACHINE_PRESETS[self.machine](min(self.ranks))
        return problem.graph.total_flops / (
            machine.flops_per_second * min(self.ranks)
        )

    def fault_plan(self, problem: Any) -> Any:
        """The scaled :class:`~repro.faults.FaultPlan` for ``problem``.

        Crash/stall times in the spec are fractions of the estimated
        ideal makespan at the smallest swept rank count — identical math
        to ``repro study --faults``, now owned by the spec so the CLI
        and the service cannot drift.
        """
        if not self.faults:
            return None
        from repro.faults import plan_from_spec

        return plan_from_spec(
            self.faults, time_scale=self.fault_time_scale(problem)
        )

    def study_config(self, problem: Any) -> Any:
        """The :class:`~repro.core.config.StudyConfig` for ``problem``."""
        from repro.core.config import StudyConfig

        return StudyConfig(
            models=self.models,
            n_ranks=self.ranks,
            machine=self.machine,
            seed=self.seed,
            faults=self.fault_plan(problem),
        )

    def retry_policy(self) -> Any:
        """The host retry policy (None = the sweep's default)."""
        if self.max_attempts is None:
            return None
        from repro.parallel.supervisor import HOST_RETRY_POLICY

        return replace(HOST_RETRY_POLICY, max_attempts=self.max_attempts)

    def with_overrides(self, **changes: Any) -> "JobSpec":
        """A copy with execution fields replaced (dataclass replace)."""
        return replace(self, **changes)
