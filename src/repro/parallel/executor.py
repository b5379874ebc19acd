"""The executor layer: how a sweep's cache-miss cells get run on a host.

:class:`CellExecutor` is the contract the sweep orchestrator programs
against, and :meth:`CellExecutor.run` is the one way into the
supervision loop (:func:`repro.parallel.supervisor.supervise`): it
checks the batch's arguments, asks the backend for a transport, and runs
the loop over it once. The three built-in backends (``local``,
``serial``, ``distributed``) only build that transport, so retry,
backoff, quarantine, deadlines and duplicate handling are the same code
whichever backend runs a cell. This module also holds the structured
:class:`DegradedExecutionWarning` and the executor spec-string grammar
(:func:`parse_executor_spec`) and registry (:func:`make_executor`).

Simulated runs are deterministic functions of their inputs, so every
backend produces identical results — the choice changes wall-clock time
and failure isolation only.
"""

from __future__ import annotations

import abc
import inspect
import multiprocessing
import signal as _signal
import warnings
from typing import Any, Callable, Iterator, Sequence

from repro.parallel.supervisor import (
    HOST_RETRY_POLICY,
    ForkTransport,
    InProcessTransport,
    SupervisorStats,
    Transport,
    check_on_error,
    supervise,
)
from repro.util import ConfigurationError, check_integer, check_positive


def fork_available() -> bool:
    """Whether the POSIX ``fork`` start method exists on this host."""
    return "fork" in multiprocessing.get_all_start_methods()


class DegradedExecutionWarning(RuntimeWarning):
    """An executor silently *would* have lost capability — so it didn't.

    Emitted exactly once per (backend, reason) whenever an executor
    falls back to a weaker mode: the local pool running serially because
    the platform lacks ``fork``/``SIGKILL``, or the distributed fabric
    rerouting cells to the local pool after losing every remote worker.
    Structured: ``backend`` and ``reason`` are attributes, not just
    message text, so tooling can filter on them.
    """

    def __init__(self, backend: str, reason: str) -> None:
        super().__init__(
            f"{backend} executor degraded: {reason}; falling back to "
            f"{'serial in-process' if backend == 'local' else 'local'} "
            "execution"
        )
        self.backend = backend
        self.reason = reason


#: (backend, reason) pairs already warned about in this process, so a
#: million-cell sweep on a forkless platform warns once, not per batch.
_WARNED_DEGRADATIONS: set[tuple[str, str]] = set()


def warn_degraded(backend: str, reason: str, *, once: bool = True) -> None:
    """Emit the single structured degradation warning for ``reason``."""
    if once:
        if (backend, reason) in _WARNED_DEGRADATIONS:
            return
        _WARNED_DEGRADATIONS.add((backend, reason))
    warnings.warn(DegradedExecutionWarning(backend, reason), stacklevel=3)


def serial_fallback_reason() -> str | None:
    """Why parallel supervised execution is impossible here (None = it isn't).

    The supervised pool needs ``fork`` (workers inherit the built
    problem state) and ``SIGKILL`` (hung workers must be killable
    unconditionally); a platform missing either runs cells serially
    in-process instead — with a warning, never silently.
    """
    if not fork_available():
        return "no 'fork' start method on this platform"
    if not hasattr(_signal, "SIGKILL"):
        return "no SIGKILL on this platform (hung workers cannot be killed)"
    return None


# ----------------------------------------------------------------------
# The CellExecutor protocol and backend registry
# ----------------------------------------------------------------------

class CellExecutor(abc.ABC):
    """How a sweep's cache-miss cells get executed.

    One contract, several transports: the sweep orchestrator
    (:class:`repro.core.sweep.SweepRunner`) hands every backend the same
    request — run these jobs through ``fn``, yield ``(index, outcome)``
    in completion order, where an outcome is the job's result or a
    :class:`~repro.parallel.supervisor.CellFailure` for jobs that
    exhausted their retry budget. A backend implements only
    :meth:`transport`; the fault-tolerance semantics (bounded retry with
    deterministic jittered backoff, poison-job quarantine, non-retryable
    ``ConfigurationError``, the job deadline) are the one loop's
    (:func:`~repro.parallel.supervisor.supervise`), which :meth:`run`
    drives.

    Built-in backends (see :func:`make_executor`):

    - ``"local"`` — supervised forked workers
      (:class:`~repro.parallel.supervisor.ForkTransport`): per-job
      wall-clock timeouts, SIGKILL + respawn of hung workers, crash
      re-dispatch. Degrades to in-process execution where ``fork`` is
      unavailable.
    - ``"serial"`` — always in-process, same loop, no isolation (and
      therefore no timeouts).
    - ``"distributed"`` — leased TCP workers
      (:class:`repro.parallel.fabric.DistributedExecutor`): remote
      ``python -m repro worker`` daemons pull cells under time-bounded
      leases and push content-keyed results; losing every remote worker
      degrades to the local pool mid-sweep.
    """

    #: Registry name of this backend.
    name: str = ""

    @abc.abstractmethod
    def transport(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        n_workers: int,
        timeout: float | None,
        stats: SupervisorStats,
    ) -> tuple[Transport, float | None]:
        """The transport this batch runs over, and its per-job budget in
        seconds (None: no budget). Called once per batch, with checked
        arguments; the loop closes the transport when the batch ends."""

    def run(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        *,
        n_workers: int = 1,
        timeout: float | None = None,
        retry: Any | None = None,
        on_error: str = "quarantine",
        labels: Sequence[str] | None = None,
        on_dispatch: Callable[[int, int], None] | None = None,
        stats: SupervisorStats | None = None,
        deadline: float | None = None,
    ) -> Iterator[tuple[int, Any]]:
        """Yield ``(index, result-or-CellFailure)`` in completion order.

        ``timeout`` is the per-job wall-clock budget (a hung local worker
        is SIGKILLed and respawned, a remote lease revoked); ``retry``
        defaults to :data:`~repro.parallel.supervisor.HOST_RETRY_POLICY`.
        ``deadline`` is an absolute ``time.monotonic()`` instant: past
        it, every unfinished job settles as a terminal
        ``CellFailure(error_type="DeadlineExceeded")`` and whatever is
        still running is taken back. In-process execution cannot
        interrupt a running cell, so there the deadline takes effect
        between cells. Pass a :class:`SupervisorStats` as ``stats`` to
        receive the fault accounting. A bad argument raises
        :class:`ConfigurationError` before any worker is forked or leased.
        """
        check_integer("n_workers", n_workers, 1)
        if timeout is not None:
            check_positive("timeout", timeout)
        check_on_error(on_error)
        stats = stats if stats is not None else SupervisorStats()
        transport, budget = self.transport(fn, jobs, n_workers, timeout, stats)
        yield from supervise(
            transport,
            jobs,
            budget=budget,
            retry=retry if retry is not None else HOST_RETRY_POLICY,
            on_error=on_error,
            labels=labels,
            on_dispatch=on_dispatch,
            deadline=deadline,
        )


class LocalExecutor(CellExecutor):
    """Supervised forked workers, as a backend.

    With one worker or one job the batch runs in this process
    (:class:`~repro.parallel.supervisor.InProcessTransport`: identical
    retry and quarantine, no isolation and therefore no timeouts). So it
    does, after one structured :class:`DegradedExecutionWarning` naming
    the reason (never a silent fallback), when the platform lacks
    ``fork``/``SIGKILL`` or the pool fails to start.
    """

    name = "local"

    def transport(self, fn, jobs, n_workers, timeout, stats):
        n_workers = min(n_workers, len(jobs))
        if n_workers > 1:
            reason = serial_fallback_reason()
            if reason is not None:
                warn_degraded("local", reason)
            else:
                try:
                    return ForkTransport(fn, jobs, n_workers, stats), timeout
                except OSError as exc:
                    warn_degraded(
                        "local", f"worker pool failed to start: {exc}", once=False
                    )
        return InProcessTransport(fn, stats), None


class SerialExecutor(CellExecutor):
    """In-process execution under the same supervision loop.

    What the local backend degrades to; selectable explicitly for
    debugging (no forking, breakpoints work) and for platforms where
    process isolation is undesirable. Timeouts require isolation and are
    ignored.
    """

    name = "serial"

    def transport(self, fn, jobs, n_workers, timeout, stats):
        return InProcessTransport(fn, stats), None


def _make_distributed(**options: Any) -> CellExecutor:
    from repro.parallel.fabric import DistributedExecutor

    return DistributedExecutor(**options)


#: Backend factories by spec name.
EXECUTOR_BACKENDS: dict[str, Callable[..., CellExecutor]] = {
    "local": LocalExecutor,
    "serial": SerialExecutor,
    "distributed": _make_distributed,
}


def _option_names(name: str) -> list[str]:
    """The keyword options the ``name`` backend's constructor takes."""
    factory = EXECUTOR_BACKENDS[name]
    if factory is _make_distributed:  # the fabric imports this module
        from repro.parallel.fabric import DistributedExecutor as factory
    return [
        param.name
        for param in inspect.signature(factory).parameters.values()
        if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
    ]


def _coerce_option(value: str) -> Any:
    """Type an option value from a spec string: int, float, bool, or str.

    Endpoint-shaped values (``host:port``) contain a colon and fall
    through to str; ``yes/no/true/false`` become booleans.
    """
    lowered = value.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def parse_executor_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Parse the canonical executor spec string: ``name`` or
    ``name?opt=val&opt2=val``.

    This is the *one* string form every surface accepts — the
    ``--executor`` CLI flag, ``api.sweep(executor=...)``, a
    :class:`~repro.core.jobspec.JobSpec`, and the service's backend
    router — so a spec like ``"distributed?bind=0.0.0.0:7070&lease=45"``
    means the same thing everywhere. Option values are typed by shape
    (int, then float, then bool words, else string; ``host:port`` stays a
    string). The name must be registered, and each option must be a
    keyword its backend's constructor takes; the values are the
    constructor's to check (:func:`make_executor`).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ConfigurationError(
            f"executor spec must be a non-empty string, got {spec!r}"
        )
    name, qmark, query = spec.partition("?")
    name = name.strip()
    if qmark and not query.strip():
        raise ConfigurationError(
            f"executor spec {spec!r} has a '?' but no options "
            "(drop it, or add opt=val terms)"
        )
    if name not in EXECUTOR_BACKENDS:
        raise ConfigurationError(
            f"unknown executor backend {name!r}; registered: "
            f"{', '.join(sorted(EXECUTOR_BACKENDS))}"
        )
    options: dict[str, Any] = {}
    if query:
        accepted = _option_names(name)
        for term in query.split("&"):
            term = term.strip()
            if not term:
                continue
            key, sep, value = term.partition("=")
            if not sep or not key:
                raise ConfigurationError(
                    f"malformed executor option {term!r} in {spec!r} "
                    "(expected opt=val)"
                )
            if key in options:
                raise ConfigurationError(
                    f"executor option {key!r} given more than once in {spec!r}"
                )
            if key not in accepted:
                raise ConfigurationError(
                    f"executor backend {name!r} takes no option {key!r}"
                    + (f"; it takes {', '.join(accepted)}" if accepted else "")
                )
            options[key] = _coerce_option(value)
    return name, options


def format_executor_spec(name: str, options: dict[str, Any]) -> str:
    """The inverse of :func:`parse_executor_spec` (canonical, sorted)."""
    if not options:
        return name
    query = "&".join(f"{k}={options[k]}" for k in sorted(options))
    return f"{name}?{query}"


def make_executor(
    spec: "str | CellExecutor", **options: Any
) -> CellExecutor:
    """Resolve an executor spec: an instance passes through; a string is
    parsed with :func:`parse_executor_spec` (``"name"`` or
    ``"name?opt=val"``) and constructed from the registry, with keyword
    ``options`` layered over (and overriding) the spec's own options. A
    value the backend's constructor rejects raises
    :class:`ConfigurationError`."""
    if isinstance(spec, CellExecutor):
        if options:
            raise ConfigurationError(
                "options only apply when constructing by name; got an "
                f"instance plus {sorted(options)}"
            )
        return spec
    name, spec_options = parse_executor_spec(spec)
    spec_options.update(options)
    try:
        return EXECUTOR_BACKENDS[name](**spec_options)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"executor {spec!r}: {err}") from err
