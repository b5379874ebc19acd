"""The chaos harness: one scenario table, one runner, shared fixtures.

Every scenario shares one shape: take a fault-free serial *reference*,
disturb a second run with genuine host-level faults, and demand the
disturbed run's results be **bit-for-bit identical** (every field
of every :class:`~repro.exec_models.base.RunResult`, NumPy arrays
included; every row a service serves) to the reference. No tolerance
windows, no "close enough" — the execution layer either preserved the
computation exactly or it failed.

Fault injection is *real*, not mocked: the kill fault SIGKILLs the live
worker process from inside the cell it is executing, the hang fault
sleeps a cell past the supervisor's wall-clock budget (so the supervisor
must kill the worker from outside), and corruption faults rewrite actual
cache/journal bytes on disk. First-attempt-only faults coordinate across
processes through marker files created with ``O_CREAT | O_EXCL`` — a
mechanism that survives the worker being SIGKILLed a microsecond later.

A scenario is a module-level function ``run(ctx) -> str`` registered by
:func:`scenario` into :data:`SCENARIOS` (the rows live in
:mod:`~repro.chaos.host`, :mod:`~repro.chaos.distributed` and
:mod:`~repro.chaos.service`). It receives a :class:`ChaosContext` —
its own work directory plus the grid and the serial reference, each
built on first read — and returns its verdict detail, or raises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from repro.chemistry.tasks import TaskGraph, synthetic_task_graph
from repro.core.config import StudyConfig
from repro.core.sweep import SweepCell, SweepRunner, execute_cell, study_cells
from repro.faults.retry import RetryPolicy
from repro.parallel.supervisor import CellFailure
from repro.util import ConfigurationError, once_property


# ----------------------------------------------------------------------
# Fault injection (runs inside worker processes)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ChaosPlan:
    """Host-level faults to inject into sweep cells, keyed by cell label.

    Attributes:
        marker_dir: directory for cross-process first-attempt markers
            (must exist; shared by parent and workers).
        kill: labels whose worker SIGKILLs *itself* mid-cell on the
            first attempt — a real crash, indistinguishable from an OOM
            kill from the supervisor's point of view.
        hang: labels that sleep ``hang_seconds`` on the first attempt —
            a stuck cell the supervisor must detect by wall-clock
            timeout and kill from outside.
        fail: labels that raise on **every** attempt — poison cells that
            must end up quarantined, never retried forever.
        hang_seconds: how long a hung cell sleeps (set it well past the
            sweep timeout).
    """

    marker_dir: str
    kill: tuple[str, ...] = ()
    hang: tuple[str, ...] = ()
    fail: tuple[str, ...] = ()
    hang_seconds: float = 30.0


def _first_attempt(marker_dir: str, tag: str, label: str) -> bool:
    """Atomically claim the first attempt of (tag, label) across processes.

    ``O_CREAT | O_EXCL`` is atomic on POSIX and the marker outlives a
    SIGKILLed worker, so exactly one attempt — the first — sees True.
    """
    marker = os.path.join(
        marker_dir, f"{tag}-{label.replace('/', '_').replace('@', '_')}"
    )
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def chaos_execute_cell(plan: ChaosPlan, cell: SweepCell) -> Any:
    """Worker entry: inject the plan's fault for this cell, then compute.

    The computation itself is exactly :func:`execute_cell` — faults
    disturb *when/whether* the worker survives, never *what* it
    computes, which is what makes the bit-for-bit assertion meaningful.
    """
    label = cell.label
    if label in plan.kill and _first_attempt(plan.marker_dir, "kill", label):
        os.kill(os.getpid(), signal.SIGKILL)
    if label in plan.hang and _first_attempt(plan.marker_dir, "hang", label):
        time.sleep(plan.hang_seconds)
    if label in plan.fail:
        raise RuntimeError(f"chaos poison cell {label}")
    return execute_cell(cell)


# ----------------------------------------------------------------------
# Bit-for-bit comparison
# ----------------------------------------------------------------------

def diff_results(a: Any, b: Any) -> list[str]:
    """Field names on which two results differ (empty = identical).

    Compares every dataclass field exactly: ndarray dtype + contents,
    dicts of ndarrays element-wise, everything else by ``==``.
    """
    if type(a) is not type(b):
        return [f"type: {type(a).__name__} != {type(b).__name__}"]
    out: list[str] = []
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            if (
                not isinstance(vb, np.ndarray)
                or va.dtype != vb.dtype
                or va.shape != vb.shape
                or not (va == vb).all()
            ):
                out.append(f.name)
        elif isinstance(va, dict) and any(
            isinstance(v, np.ndarray) for v in va.values()
        ):
            if not isinstance(vb, dict) or va.keys() != vb.keys():
                out.append(f.name)
                continue
            for k in va:
                eq = va[k] == vb[k]
                if not (eq.all() if isinstance(eq, np.ndarray) else eq):
                    out.append(f"{f.name}[{k}]")
                    break
        elif va != vb:
            out.append(f.name)
    return out


def results_identical(a: Any, b: Any) -> bool:
    """Whether two cell results are bit-for-bit identical."""
    return not diff_results(a, b)


def _compare_rows(
    reference: Sequence[Any], disturbed: Sequence[Any], skip: set[int] = frozenset()
) -> list[str]:
    """Mismatch descriptions between two result lists (empty = pass)."""
    problems: list[str] = []
    for index, (ref, got) in enumerate(zip(reference, disturbed)):
        if index in skip:
            continue
        if isinstance(got, CellFailure):
            problems.append(f"cell {index}: unexpected quarantine ({got})")
            continue
        diffs = diff_results(ref, got)
        if diffs:
            problems.append(f"cell {index}: fields differ: {', '.join(diffs)}")
    if len(reference) != len(disturbed):
        problems.append(
            f"row count {len(disturbed)} != reference {len(reference)}"
        )
    return problems


def _interrupt_after(n: int) -> Callable[[Any], None]:
    """A progress callback raising KeyboardInterrupt at the ``n``-th event."""
    ticks = {"n": 0}

    def interrupter(_event: Any) -> None:
        ticks["n"] += 1
        if ticks["n"] >= n:
            raise KeyboardInterrupt

    return interrupter


def _verdict(problems: list[str], detail: str) -> str:
    """A scenario's last line: every problem found fails it, together."""
    if problems:
        raise AssertionError("; ".join(problems))
    return detail


# ----------------------------------------------------------------------
# The scenario table
# ----------------------------------------------------------------------

SUITES = ("host", "distributed", "service")


class Scenario(NamedTuple):
    key: str  #: the row function's name; what ``--only`` selects
    suite: str  #: one of :data:`SUITES`
    title: str  #: the line the report prints
    run: Callable[["ChaosContext"], str]


#: Every scenario, in definition order (host, distributed, service).
SCENARIOS: list[Scenario] = []


def scenario(suite: str, title: str) -> Callable[[Callable], Callable]:
    """Register ``run(ctx) -> str`` as the next row of :data:`SCENARIOS`."""
    assert suite in SUITES, suite

    def register(run: Callable[["ChaosContext"], str]) -> Callable:
        SCENARIOS.append(Scenario(run.__name__, suite, title, run))
        return run

    return register


def select(only: Sequence[str] = ()) -> list[Scenario]:
    """The rows ``only`` names — suites or scenario keys — in table order.

    No names selects the ``host`` suite.
    """
    names = set(only) or {"host"}
    unknown = names.difference(SUITES, (row.key for row in SCENARIOS))
    if unknown:
        raise ConfigurationError(
            f"unknown chaos scenario or suite: {', '.join(sorted(unknown))}"
        )
    return [row for row in SCENARIOS if row.key in names or row.suite in names]


@dataclass
class ChaosContext:
    """What one run's scenarios share: knobs, work directory, fixtures.

    The grid and its fault-free serial reference are built on first
    read, so a run that selects only service rows never pays for them.
    """

    quick: bool
    seed: int
    jobs: int
    timeout: float
    log: Callable[[str], None]
    #: This scenario's own directory, set by the runner before each row:
    #: caches, journals, markers and state dirs go here.
    workdir: Path = field(init=False)

    retry: ClassVar[RetryPolicy] = RetryPolicy(
        max_attempts=3, base_delay=0.05, max_delay=0.2, jitter=0.0
    )

    def markers(self) -> str:
        """This scenario's directory for first-attempt marker files."""
        path = self.workdir / "markers"
        path.mkdir(parents=True, exist_ok=True)
        return str(path)

    @once_property
    def graph(self) -> TaskGraph:
        if self.quick:
            return synthetic_task_graph(150, 8, seed=3, skew=1.2)
        return synthetic_task_graph(600, 16, seed=3, skew=1.3)

    @once_property
    def config(self) -> StudyConfig:
        return StudyConfig(
            models=("static_block", "counter_dynamic", "work_stealing"),
            n_ranks=(4, 8) if self.quick else (4, 8, 16),
            seed=self.seed,
        )

    @once_property
    def cells(self) -> list[SweepCell]:
        return study_cells(self.config, self.graph)

    @once_property
    def labels(self) -> list[str]:
        return [cell.label for cell in self.cells]

    @once_property
    def reference(self) -> list[Any]:
        self.log(f"chaos: fault-free serial reference, {len(self.cells)} cells ...")
        return SweepRunner(jobs=1, cache=None).run_cells(self.cells)


def child_env(**extra: str) -> dict[str, str]:
    """Environment in which ``python -m repro`` imports *this* checkout."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"  # a daemon's endpoint line must cross its pipe
    env.update(extra)
    return env


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------

@dataclass
class ScenarioResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ChaosReport:
    """Outcome of one chaos run: a verdict per scenario."""

    scenarios: list[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.scenarios)

    def format(self) -> str:
        lines = [f"chaos report: {len(self.scenarios)} scenario(s)"]
        for s in self.scenarios:
            status = "PASS" if s.passed else "FAIL"
            lines.append(f"  [{status}] {s.name}" + (f" — {s.detail}" if s.detail else ""))
        lines.append("chaos verdict: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def run_chaos(
    only: Sequence[str] = (),
    quick: bool = True,
    jobs: int = 3,
    seed: int = 0,
    workdir: str | os.PathLike | None = None,
    timeout: float = 2.0,
    log: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run the selected scenarios; returns a verdict per scenario.

    Args:
        only: suite names and/or scenario keys (see :data:`SCENARIOS`;
            ``docs/sweep.md`` has the table). Empty = the ``host`` suite.
        quick: CI-sized grid (6 cells) vs the fuller 9-cell grid, and
            fewer rounds where a scenario repeats a race.
        jobs: supervised workers for the host suite's disturbed sweeps.
        seed: study seed (any value works; determinism is per-seed).
        workdir: where caches/journals/markers/state dirs live, one
            sub-directory per scenario; kept. Default: a temporary
            directory removed once the report is built.
        timeout: per-cell wall-clock budget for the host suite's
            disturbed sweeps.
        log: optional progress sink (e.g. ``print``).
    """
    rows = select(only)
    ctx = ChaosContext(quick, seed, jobs, timeout, log or (lambda _msg: None))
    report = ChaosReport()
    with contextlib.ExitStack() as cleanup:
        if workdir is None:
            workdir = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-chaos-")
            )
        for row in rows:
            ctx.log(f"chaos[{row.suite}]: {row.title} ...")
            ctx.workdir = Path(workdir) / row.key
            ctx.workdir.mkdir(parents=True, exist_ok=True)
            try:  # any exception is a verdict, not a crash
                result = ScenarioResult(row.title, True, row.run(ctx))
            except Exception as exc:  # noqa: BLE001
                result = ScenarioResult(row.title, False, f"{type(exc).__name__}: {exc}")
            report.scenarios.append(result)
            ctx.log(
                f"chaos[{row.suite}]:   -> "
                f"{'PASS' if result.passed else 'FAIL'} {result.detail}"
            )
    return report
