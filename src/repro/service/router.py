"""Backend routing: a job's declared requirements -> a live executor.

The sweep layer already abstracts *how cells execute* behind the
:class:`~repro.parallel.CellExecutor` registry; the router owns the
service-side policy questions on top of it:

- which backend a :class:`~repro.core.jobspec.JobSpec` gets (its own
  ``executor`` spec string, or the daemon default when it says
  ``"auto"``);
- when the daemon-lifetime distributed fabric is preferred (remote
  workers are attached) versus the in-process pool (nobody is);
- what ``GET /v1/backends`` reports: every registered backend name,
  which is the default, and — for the fabric — how many workers are
  attached right now.

Jobs on *per-job* executors (local/serial) run concurrently under the
manager's weighted scheduler; jobs routed to the shared daemon-lifetime
fabric are serialized by the manager's shared-executor gate, so the
fabric still dispatches one sweep at a time.
"""

from __future__ import annotations

from typing import Any

from repro.core.jobspec import JobSpec
from repro.parallel.executor import (
    EXECUTOR_BACKENDS,
    CellExecutor,
    make_executor,
    parse_executor_spec,
)

#: Spec value meaning "let the router decide".
AUTO = "auto"


class BackendRouter:
    """Maps job requirements to executor backends.

    Args:
        default: executor spec string used when a job says ``"auto"``
            and no fabric workers are attached.
        fabric: an optional daemon-lifetime
            :class:`~repro.parallel.DistributedExecutor` whose TCP
            endpoint outlives individual jobs — ``python -m repro
            worker`` daemons attach once and serve every routed job.
    """

    def __init__(
        self,
        default: str = "local",
        *,
        fabric: Any | None = None,
    ) -> None:
        parse_executor_spec(default)  # fail fast on a bad daemon default
        self.default = default
        self.fabric = fabric

    # ------------------------------------------------------------------
    def fabric_workers(self) -> int:
        """Live workers attached to the daemon fabric (0 = none/no fabric)."""
        if self.fabric is None:
            return 0
        try:
            return len(self.fabric.server.live_workers())
        except Exception:
            return 0

    def resolve_spec(self, spec: JobSpec) -> str:
        """The executor spec string a job will actually run under."""
        if spec.executor != AUTO:
            return spec.executor
        if self.fabric_workers() > 0:
            return "distributed"
        return self.default

    def executor_for(self, spec: JobSpec) -> tuple[CellExecutor, bool]:
        """Construct (or reuse) the executor for one job.

        Returns ``(executor, owned)`` — ``owned`` is True when the
        router built a fresh instance the caller must close after the
        job, False when it handed out the shared daemon fabric.
        """
        resolved = self.resolve_spec(spec)
        name, options = parse_executor_spec(resolved)
        if name == "distributed" and self.fabric is not None and not options:
            # Reuse the daemon-lifetime fabric: its endpoint is what the
            # operator printed at startup and what workers attached to.
            # A job naming explicit fabric options gets its own server.
            return self.fabric, False
        return make_executor(resolved), True

    # ------------------------------------------------------------------
    def backends(self) -> list[dict[str, Any]]:
        """The ``GET /v1/backends`` inventory."""
        out: list[dict[str, Any]] = []
        for name in sorted(EXECUTOR_BACKENDS):
            entry: dict[str, Any] = {
                "name": name,
                "default": name == parse_executor_spec(self.default)[0],
            }
            if name == "distributed":
                entry["fabric_attached"] = self.fabric is not None
                entry["workers"] = self.fabric_workers()
                if self.fabric is not None:
                    host, port = self.fabric.endpoint
                    entry["endpoint"] = f"{host}:{port}"
            out.append(entry)
        return out

    def normalize(self, spec: JobSpec) -> JobSpec:
        """Resolve service-only vocabulary and validate the result.

        ``"auto"`` is resolved here (not in ``JobSpec.validate``, which
        stays surface-neutral) to the fabric when workers are attached,
        else the daemon default. An auto-routed distributed job with
        ``jobs < 2`` gets its fallback pool widened to 2 rather than
        rejected — the user never asked for ``distributed``, so the
        spec-level interplay error would be unactionable. Raises
        :class:`~repro.core.jobspec.JobSpecError` on anything invalid.
        """
        if spec.executor == AUTO:
            spec = spec.with_overrides(executor=self.resolve_spec(spec))
            if (
                parse_executor_spec(spec.executor)[0] == "distributed"
                and spec.jobs < 2
            ):
                spec = spec.with_overrides(jobs=2)
        spec.validate()
        return spec
