"""High-level experiment driver.

Ties the full stack together: molecule -> basis/screening/task graph ->
(model x rank-count) sweep on the simulated machine -> uniform report.
Every study runs through :meth:`SweepRunner.run_study
<repro.core.sweep.SweepRunner.run_study>`: the benchmarks call it
directly, ``repro study`` and the service reach it through
:func:`repro.api.run_job` (which builds its problem with
``SourceSpec.build``), and :func:`run_study` here is its one-call
spelling, which the examples use.

:func:`run_study` takes the workload as a single positional ``source``
accepting any of ``Workload | ScfProblem | TaskGraph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.chemistry.basis import BlockStructure
from repro.chemistry.molecules import Molecule
from repro.chemistry.scf import ScfProblem
from repro.chemistry.tasks import TaskGraph
from repro.core.cache import ResultCache, fingerprint
from repro.core.config import StudyConfig
from repro.core.results import StudyReport
from repro.util import ConfigurationError

#: The types :func:`resolve_source` accepts as a study workload.
StudySource = "Workload | ScfProblem | TaskGraph"


@dataclass(frozen=True)
class Workload:
    """A named task graph (with its originating problem when available)."""

    name: str
    graph: TaskGraph
    problem: ScfProblem | None = None


def workload_label(molecule: Molecule) -> str:
    """A default label unique to the molecule's actual content.

    Includes the molecular formula and a content digest of the geometry,
    so two different molecules with equal atom counts (or even equal
    formulas at different geometries) never share a label — labels feed
    cache keys and report rows, where collisions are silent corruption.
    """
    digest = fingerprint(molecule)[:8]
    return f"{molecule.formula}[{molecule.n_atoms} atoms, {digest}]"


def build_workload(
    molecule: Molecule,
    name: str | None = None,
    block_size: int = 8,
    tau: float = 1.0e-10,
    blocks: BlockStructure | None = None,
) -> Workload:
    """Build the full chemistry pipeline for one molecule."""
    problem = ScfProblem.build(molecule, block_size=block_size, tau=tau, blocks=blocks)
    label = name if name is not None else workload_label(molecule)
    return Workload(label, problem.graph, problem)


def resolve_source(source: Any) -> TaskGraph:
    """The task graph behind any accepted study source.

    Accepts a :class:`Workload`, an :class:`~repro.chemistry.scf.ScfProblem`,
    or a bare :class:`~repro.chemistry.tasks.TaskGraph`.
    """
    if isinstance(source, Workload):
        return source.graph
    if isinstance(source, ScfProblem):
        return source.graph
    if isinstance(source, TaskGraph):
        return source
    raise ConfigurationError(
        "study source must be a Workload, ScfProblem, or TaskGraph, "
        f"got {type(source).__qualname__}"
    )


def run_study(
    config: StudyConfig,
    source: Any,
    *,
    jobs: int = 1,
    cache: ResultCache | str | None = None,
    progress: Callable | None = None,
) -> StudyReport:
    """Run every (model, rank-count) cell of the study.

    Args:
        config: the sweep grid (models x rank counts, machine, seed).
        source: the workload — a ``Workload``, ``ScfProblem``, or
            ``TaskGraph``.
        jobs: worker processes for the sweep (1 = serial in-process;
            results are identical either way).
        cache: optional content-addressed result cache (a
            :class:`~repro.core.cache.ResultCache` or a directory path);
            None disables caching.
        progress: optional per-cell progress callback (see
            :class:`~repro.core.sweep.SweepProgress`).
    """
    from repro.core.sweep import SweepRunner

    runner = SweepRunner(jobs=jobs, cache=cache, progress=progress)
    return runner.run_study(config, resolve_source(source))
