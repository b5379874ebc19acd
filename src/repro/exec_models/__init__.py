"""Execution models: the paper's primary subject of study.

An execution model decides *which rank runs which task, when* — everything
else (the kernel, the data layout, the machine) is held fixed. The families
implemented here mirror the paper's sweep:

- :mod:`repro.exec_models.static_` -- static block / cyclic / cost-aware
  schedules fixed before execution.
- :mod:`repro.exec_models.inspector` -- inspector-executor: run a load
  balancer (semi-matching, hypergraph, greedy, ...) over the task graph's
  cost model, then execute the resulting static schedule.
- :mod:`repro.exec_models.counter_dynamic` -- centralized dynamic
  scheduling via an NXTVAL-style shared counter, with chunked claiming.
- :mod:`repro.exec_models.work_stealing` -- distributed work stealing with
  lock-based remote deques and token-ring termination detection.
- :mod:`repro.exec_models.scf_simulation` -- whole-SCF runs: iterated
  Fock builds with their collectives under one discipline, including
  persistence-based rebalancing from the previous iteration's measured
  task durations.

All models run on the simulated machine through the shared
:class:`~repro.exec_models.base.Harness`, return a uniform
:class:`~repro.exec_models.base.RunResult`, and are validated against the
exactly-once execution invariant.
"""

from repro.exec_models.base import ExecutionModel, Harness, RunResult
from repro.exec_models.static_ import StaticBlock, StaticCyclic, StaticAssignment
from repro.exec_models.counter_dynamic import CounterDynamic
from repro.exec_models.node_counter import CounterPerNode
from repro.exec_models.work_stealing import WorkStealing
from repro.exec_models.inspector import InspectorExecutor
from repro.exec_models.scf_simulation import ScfSimulation, ScfSimResult
from repro.exec_models.registry import make_model, MODEL_NAMES

__all__ = [
    "ExecutionModel",
    "Harness",
    "RunResult",
    "StaticBlock",
    "StaticCyclic",
    "StaticAssignment",
    "CounterDynamic",
    "CounterPerNode",
    "WorkStealing",
    "InspectorExecutor",
    "ScfSimulation",
    "ScfSimResult",
    "make_model",
    "MODEL_NAMES",
]
