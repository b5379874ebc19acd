"""Running work on real host processes: the executor stack and a Fock demo.

Two things live here, and the simulator is neither of them.

**How a sweep's cells get run.** :mod:`repro.parallel.supervisor` holds
the one supervision loop (``supervise``: one attempt ledger driving
retry, backoff, quarantine, per-cell budgets, the job deadline and
duplicate handling) and two of its three transports, forked workers
on pipes and in-process; :mod:`repro.parallel.fabric` and
:mod:`repro.parallel.worker` supply the third, leased TCP workers.
:mod:`repro.parallel.executor` is the :class:`CellExecutor` contract,
registry and spec grammar the sweep orchestrator programs against:
``CellExecutor.run`` checks a batch and runs the loop once over the
transport its backend (``local`` / ``serial`` / ``distributed``)
builds. A forked worker reads its cells from the memory it inherits;
only the fabric ships task graphs.

**Is any of this real?** :mod:`repro.parallel.pool` executes the same
task kernels, claimed by the same three scheduling disciplines the
simulator models (static / shared counter / work stealing), on actual
Python threads, and checks the resulting Fock matrix against the serial
reference. It powers ``python -m repro scf --workers`` and the laptop
examples.
"""

from repro.parallel.executor import (
    CellExecutor,
    DegradedExecutionWarning,
    LocalExecutor,
    SerialExecutor,
    fork_available,
    format_executor_spec,
    make_executor,
    parse_executor_spec,
)
from repro.parallel.supervisor import (
    HOST_RETRY_POLICY,
    CellFailure,
    SupervisorStats,
    WorkerError,
)
from repro.parallel.fabric import (
    DistributedExecutor,
    FabricServer,
    GraphRef,
    NoWorkersError,
    parse_endpoint,
)
from repro.parallel.worker import WorkerChaos, run_worker
from repro.parallel.pool import (
    SharedMemoryFockBuilder,
    parallel_g_builder,
    ParallelStats,
)

__all__ = [
    "fork_available",
    "WorkerError",
    "SupervisorStats",
    "CellFailure",
    "HOST_RETRY_POLICY",
    "CellExecutor",
    "LocalExecutor",
    "SerialExecutor",
    "DistributedExecutor",
    "DegradedExecutionWarning",
    "make_executor",
    "parse_executor_spec",
    "format_executor_spec",
    "FabricServer",
    "GraphRef",
    "NoWorkersError",
    "parse_endpoint",
    "WorkerChaos",
    "run_worker",
    "SharedMemoryFockBuilder",
    "parallel_g_builder",
    "ParallelStats",
]
