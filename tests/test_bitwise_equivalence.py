"""Bit-for-bit equivalence oracle for the simulation core.

The discrete-event engine is allowed to get *faster* but never to get
*different*: every optimization (run-queue fast paths, bound-method
scheduling, list-based trace accumulation) must preserve the exact event
order and the exact floating-point accumulation order. This module pins
a set of representative runs — covering the static/dynamic/stealing
model families, hierarchical topologies, variability, fault injection,
and the interval log — to golden digests captured on the pre-optimization
engine, and asserts byte identity of every derived array.

Regenerating the goldens (only legitimate after a *semantic* change that
is itself validated by the benchmark tables):

    PYTHONPATH=src python -m tests.test_bitwise_equivalence
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np
import pytest

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_runs.json"


def _sha(array) -> str:
    """Short byte-level digest of an ndarray (dtype-normalized)."""
    a = np.ascontiguousarray(array)
    return hashlib.sha256(a.tobytes()).hexdigest()[:20]


def _build_graph(spec: dict):
    from repro.chemistry.tasks import synthetic_task_graph

    return synthetic_task_graph(
        spec["n_tasks"], spec["n_blocks"], seed=spec["seed"], skew=spec["skew"]
    )


def _build_machine(spec: dict):
    from repro.simulate import (
        StaticHeterogeneity,
        commodity_cluster,
        hierarchical_cluster,
    )

    variability = None
    if "slow_ranks" in spec:
        variability = StaticHeterogeneity(range(spec["slow_ranks"]), spec["slow_factor"])
    if "cores_per_node" in spec:
        cores = spec["cores_per_node"]
        return hierarchical_cluster(
            spec["n_ranks"] // cores, cores_per_node=cores, variability=variability
        )
    return commodity_cluster(spec["n_ranks"], variability=variability)


def _build_faults(spec: dict | None):
    if spec is None:
        return None
    from repro.faults import FaultPlan, MessageFaults, RankCrash, StallWindow

    message_faults = spec.get("message_faults")
    return FaultPlan(
        crashes=tuple(RankCrash(r, t) for r, t in spec["crashes"]),
        stalls=tuple(StallWindow(r, start, end) for r, start, end in spec.get("stalls", ())),
        message_faults=MessageFaults(**message_faults) if message_faults else None,
        seed=spec.get("seed", 0),
    )


#: Each case: one simulated run whose full derived state is digested.
#: Sizes are chosen so the whole module stays in tier-1 time budget.
CASES = {
    "work_stealing_p32": {
        "model": "work_stealing",
        "graph": {"n_tasks": 1200, "n_blocks": 16, "seed": 7, "skew": 1.0},
        "machine": {"n_ranks": 32},
        "seed": 3,
    },
    "static_block_p32": {
        "model": "static_block",
        "graph": {"n_tasks": 1200, "n_blocks": 16, "seed": 7, "skew": 1.0},
        "machine": {"n_ranks": 32},
        "seed": 0,
    },
    "counter_dynamic_p64": {
        "model": "counter_dynamic",
        "graph": {"n_tasks": 1500, "n_blocks": 16, "seed": 5, "skew": 0.8},
        "machine": {"n_ranks": 64},
        "seed": 1,
    },
    "counter_chunk16_variability_p16": {
        "model": "counter_dynamic_chunk16",
        "graph": {"n_tasks": 900, "n_blocks": 12, "seed": 2, "skew": 1.4},
        "machine": {"n_ranks": 16, "slow_ranks": 2, "slow_factor": 0.5},
        "seed": 4,
    },
    "static_cyclic_variability_p16": {
        "model": "static_cyclic",
        "graph": {"n_tasks": 900, "n_blocks": 12, "seed": 2, "skew": 1.4},
        "machine": {"n_ranks": 16, "slow_ranks": 2, "slow_factor": 0.5},
        "seed": 0,
    },
    "work_stealing_hier_p32": {
        "model": "work_stealing_hier",
        "graph": {"n_tasks": 1000, "n_blocks": 16, "seed": 11, "skew": 1.0},
        "machine": {"n_ranks": 32},
        "seed": 6,
    },
    "ft_work_stealing_crash_p16": {
        "model": "ft_work_stealing",
        "graph": {"n_tasks": 700, "n_blocks": 12, "seed": 9, "skew": 1.0},
        "machine": {"n_ranks": 16},
        "seed": 2,
        "faults": {"crashes": [[3, 0.004]]},
    },
    # Every fault at once: a crash, a stall, and dropped and duplicated
    # messages under a seeded plan, so parked ranks wake on the
    # heartbeat, the token is regenerated and duplicate tokens circulate.
    "ft_work_stealing_combined_p16": {
        "model": "ft_work_stealing",
        "graph": {"n_tasks": 700, "n_blocks": 12, "seed": 9, "skew": 1.0},
        "machine": {"n_ranks": 16},
        "seed": 2,
        "faults": {
            "crashes": [[5, 0.003]],
            "stalls": [[9, 0.002, 0.004]],
            "message_faults": {"drop": 0.02, "duplicate": 0.01},
            "seed": 3,
        },
    },
    "work_stealing_half_cost_p32": {
        "model": "work_stealing_half_cost",
        "graph": {"n_tasks": 1200, "n_blocks": 16, "seed": 7, "skew": 1.0},
        "machine": {"n_ranks": 32},
        "seed": 3,
    },
    # The ring victim walk with one-task steals, and a rank that parks
    # after its first failed attempt (the early-park return), on plain
    # work stealing.
    "work_stealing_one_ring_p64": {
        "model": "work_stealing",
        "options": {"steal": "one", "victim": "ring"},
        "graph": {"n_tasks": 1500, "n_blocks": 16, "seed": 25, "skew": 1.1},
        "machine": {"n_ranks": 64},
        "seed": 7,
    },
    "work_stealing_park1_p128": {
        "model": "work_stealing",
        "options": {"park_after": 1},
        "graph": {"n_tasks": 1600, "n_blocks": 16, "seed": 27, "skew": 1.3},
        "machine": {"n_ranks": 128},
        "seed": 9,
    },
    # A two-tier machine: token hops and terminates between ranks of
    # one node take the same-node path and no NIC, and ranks park and
    # wake on them.
    "work_stealing_twotier_p64": {
        "model": "work_stealing",
        "graph": {"n_tasks": 1200, "n_blocks": 16, "seed": 29, "skew": 1.1},
        "machine": {"n_ranks": 64, "cores_per_node": 8},
        "seed": 11,
    },
    # About three tasks per rank: the run is mostly its termination tail.
    "work_stealing_tail_p128": {
        "model": "work_stealing",
        "graph": {"n_tasks": 384, "n_blocks": 12, "seed": 31, "skew": 1.2},
        "machine": {"n_ranks": 128},
        "seed": 13,
    },
    "work_stealing_intervals_p16": {
        "model": "work_stealing",
        "graph": {"n_tasks": 600, "n_blocks": 12, "seed": 13, "skew": 0.9},
        "machine": {"n_ranks": 16},
        "seed": 5,
        "trace_intervals": True,
    },
    # RMA/contention-heavy cases for the fused traced-op path: many ranks
    # hammering few home NICs (remote-tier gets/accumulates + fetch_add
    # queueing at the counter's home), pinned so the generator-free delay
    # sequences reproduce the exact grant and tie-break order.
    "counter_contention_p48": {
        "model": "counter_dynamic",
        "graph": {"n_tasks": 1800, "n_blocks": 8, "seed": 17, "skew": 1.2},
        "machine": {"n_ranks": 48},
        "seed": 8,
    },
    # Hierarchical topology: exercises the same-node (intra) tier of the
    # fused cost tables alongside the remote tier, plus variability.
    "counter_hier_variability_p32": {
        "model": "counter_dynamic",
        "graph": {"n_tasks": 1400, "n_blocks": 10, "seed": 19, "skew": 1.1},
        "machine": {"n_ranks": 32, "cores_per_node": 8, "slow_ranks": 3, "slow_factor": 0.6},
        "seed": 9,
    },
    # Whole-SCF runs (ScfSimulation): several Fock builds in one engine
    # with the allreduce, broadcast and barrier between them. Persistence
    # plans iteration i + 1 from iteration i's measured durations (its
    # first iteration is static_block); counter claims chunks; stealing
    # runs one token ring per iteration on a two-tier machine.
    "scf_persistence_variability_p16": {
        "scf_mode": "persistence",
        "graph": {"n_tasks": 700, "n_blocks": 12, "seed": 21, "skew": 1.2},
        "machine": {"n_ranks": 16, "slow_ranks": 3, "slow_factor": 0.5},
        "seed": 2,
        "n_iterations": 3,
    },
    "scf_counter_chunk4_p16": {
        "scf_mode": "counter",
        "options": {"chunk": 4},
        "graph": {"n_tasks": 700, "n_blocks": 12, "seed": 21, "skew": 1.2},
        "machine": {"n_ranks": 16},
        "seed": 1,
        "n_iterations": 3,
    },
    "scf_work_stealing_hier_p32": {
        "scf_mode": "work_stealing",
        "graph": {"n_tasks": 900, "n_blocks": 12, "seed": 23, "skew": 1.0},
        "machine": {"n_ranks": 32, "cores_per_node": 8},
        "seed": 4,
        "n_iterations": 3,
    },
    "scf_work_stealing_one_p16": {
        "scf_mode": "work_stealing",
        "options": {"steal": "one"},
        "graph": {"n_tasks": 700, "n_blocks": 12, "seed": 21, "skew": 1.2},
        "machine": {"n_ranks": 16},
        "seed": 5,
        "n_iterations": 3,
    },
}


def run_case(case: dict) -> dict:
    """Execute one pinned run and return its digest record."""
    from repro.exec_models import make_model

    if "scf_mode" in case:
        return run_scf_case(case)
    graph = _build_graph(case["graph"])
    machine = _build_machine(case["machine"])
    result = make_model(case["model"], **case.get("options", {})).run(
        graph,
        machine,
        seed=case["seed"],
        trace_intervals=case.get("trace_intervals", False),
        faults=_build_faults(case.get("faults")),
    )
    record = {
        "makespan": result.makespan.hex(),
        "assignment": _sha(result.assignment),
        "task_starts": _sha(result.task_starts),
        "task_durations": _sha(result.task_durations),
        "finish_times": _sha(result.finish_times),
        "breakdown": {cat: _sha(vals) for cat, vals in sorted(result.breakdown.items())},
        "counters": {k: repr(v) for k, v in sorted(result.counters.items())},
        "network": {k: repr(v) for k, v in sorted(result.network.items())},
        "failed_ranks": list(result.failed_ranks),
        "completion_rate": result.completion_rate.hex(),
    }
    if result.intervals is not None:
        payload = json.dumps(
            [[r, c, s.hex(), e.hex()] for r, c, s, e in result.intervals]
        ).encode()
        record["intervals"] = hashlib.sha256(payload).hexdigest()[:20]
        record["n_intervals"] = len(result.intervals)
    return record


def run_scf_case(case: dict) -> dict:
    """Execute one pinned whole-SCF run and return its digest record."""
    from repro.exec_models import ScfSimulation

    result = ScfSimulation(case["scf_mode"], **case.get("options", {})).run(
        _build_graph(case["graph"]),
        _build_machine(case["machine"]),
        n_iterations=case["n_iterations"],
        seed=case["seed"],
    )
    return {
        "total_time": result.total_time.hex(),
        "iteration_times": _sha(result.iteration_times),
        "assignments": _sha(np.array(result.assignments)),
        "compute_seconds": _sha(result.compute_seconds),
        "counters": {k: repr(v) for k, v in sorted(result.counters.items())},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        "golden digests missing; regenerate with "
        "`PYTHONPATH=src python -m tests.test_bitwise_equivalence` "
        "on a trusted engine revision"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_digest(name: str, golden: dict) -> None:
    assert name in golden, f"no golden record for case {name!r}"
    assert run_case(CASES[name]) == golden[name]


def test_every_golden_case_still_defined(golden: dict) -> None:
    assert sorted(golden) == sorted(CASES)


def _regenerate() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    records = {name: run_case(case) for name, case in sorted(CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} golden records to {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
