"""Microbenchmark runner emitting machine-readable baselines.

Four benchmarks cover the simulator's hot layers:

- ``engine_events``     — raw event dispatch: many processes ping-ponging
  heap timeouts and zero-delay run-queue wake-ups, no model logic.
- ``steal_roundtrip``   — the steal protocol end to end: work stealing on
  a skewed synthetic graph, where most events are lock/queue RMA.
- ``trace_record``      — interval accounting throughput in
  :class:`~repro.runtime.trace.TraceRecorder`.
- ``e2e_e1_cell``       — one end-to-end E1 cell (real chemistry
  workload, work stealing) from task graph to :class:`RunResult`.

``run_suite`` times each benchmark median-of-k and attaches the run's
deterministic counters (:func:`repro.perf.counters.run_counters`), so a
report both *measures* (host-dependent timings) and *anchors*
(host-independent event volumes). Reports serialize to
``BENCH_core.json`` / ``BENCH_e2e.json``; see ``docs/perf.md``.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable

from repro.perf.counters import run_counters
from repro.perf.timers import TimingStats, time_repeated
from repro.util import ConfigurationError

__all__ = [
    "SCHEMA",
    "SUITES",
    "run_suite",
    "write_report",
    "validate_report",
    "check_regression",
]

#: Report format identifier (bump on breaking field changes).
SCHEMA = "repro-bench/1"


def _git_sha() -> str:
    """Current commit SHA (with ``-dirty`` suffix), or ``unknown``."""
    try:
        root = Path(__file__).resolve().parents[3]
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        if not sha:
            return "unknown"
        dirty = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10,
        ).stdout.strip()
        return f"{sha}-dirty" if dirty else sha
    except Exception:
        return "unknown"


# ----------------------------------------------------------------------
# Benchmark bodies. Each returns (fn, counters_from_result) where fn is
# the timed closure; counters are taken from the *last* repeat.
# ----------------------------------------------------------------------

def _engine_events_bench(engine_factory):
    from repro.simulate.engine import Timeout, pooled_timeout

    n_procs, n_steps = 64, 400

    def body():
        engine = engine_factory()

        def proc(pid: int):
            # Alternate heap timeouts and zero-delay wake-ups — the mix
            # real models produce (grants/fires are mostly zero-delay).
            for step in range(n_steps):
                yield pooled_timeout(1.0e-6 * ((pid + step) % 7))
                yield pooled_timeout(0.0)

        for pid in range(n_procs):
            engine.process(proc(pid))
        engine.run()
        return engine

    def counters(engine) -> dict:
        return {
            "sim_events": float(engine.events_dispatched),
            "sim_ready_events": float(engine.ready_dispatched),
        }

    return body, counters


def _bench_engine_events() -> tuple[Callable[[], object], Callable[[object], dict]]:
    from repro.simulate.engine import Engine

    return _engine_events_bench(Engine)


def _bench_engine_events_compiled():
    """Same event mix through the compiled loop; None when unavailable."""
    from repro.simulate.sched import CompiledEngine, compiled_available

    if not compiled_available():
        return None
    return _engine_events_bench(CompiledEngine)


def _bench_steal_roundtrip() -> tuple[Callable[[], object], Callable[[object], dict]]:
    from repro.chemistry.tasks import synthetic_task_graph
    from repro.core import MACHINE_PRESETS
    from repro.exec_models import make_model

    graph = synthetic_task_graph(2000, 24, seed=31, skew=1.2)
    machine = MACHINE_PRESETS["commodity"](32)
    model = make_model("work_stealing")

    def body():
        return model.run(graph, machine, seed=7)

    return body, run_counters


def _bench_trace_record() -> tuple[Callable[[], object], Callable[[object], dict]]:
    from repro.runtime.trace import COMM, COMPUTE, TraceRecorder

    n_ranks, n_records = 64, 200_000

    def body():
        trace = TraceRecorder(n_ranks)
        record = trace.record
        t = 0.0
        for i in range(n_records):
            record(i % n_ranks, COMPUTE if i % 3 else COMM, t, t + 1.0e-4)
            t += 1.0e-4
        trace.breakdown(t + 1.0)
        return trace

    def counters(trace) -> dict:
        return {"trace_records": float(trace.records)}

    return body, counters


def _bench_e2e_e1_cell() -> tuple[Callable[[], object], Callable[[object], dict]]:
    from repro.chemistry import ScfProblem
    from repro.chemistry.molecules import water_cluster
    from repro.core import MACHINE_PRESETS
    from repro.exec_models import make_model

    problem = ScfProblem.build(water_cluster(4), block_size=6, tau=1.0e-10)
    machine = MACHINE_PRESETS["commodity"](16)
    model = make_model("work_stealing")

    def body():
        return model.run(problem.graph, machine, seed=1)

    return body, run_counters


#: suite name -> ordered {benchmark name -> factory}.
SUITES: dict[str, dict[str, Callable]] = {
    "core": {
        "engine_events": _bench_engine_events,
        "engine_events_compiled": _bench_engine_events_compiled,
        "steal_roundtrip": _bench_steal_roundtrip,
        "trace_record": _bench_trace_record,
    },
    "e2e": {
        "e2e_e1_cell": _bench_e2e_e1_cell,
    },
}


def run_suite(
    suite: str, repeats: int = 5, progress: Callable[[str], None] | None = None
) -> dict:
    """Run one suite; return a schema-conforming report dict."""
    benches = SUITES.get(suite)
    if benches is None:
        raise ConfigurationError(
            f"unknown bench suite {suite!r}; known: {', '.join(SUITES)}"
        )
    results: dict[str, dict] = {}
    for name, factory in benches.items():
        made = factory()
        if made is None:  # e.g. compiled engine without a C toolchain
            if progress is not None:
                progress(f"  {name}: skipped (unavailable on this host)")
            continue
        body, extract = made
        body()  # warm-up: imports, allocator, caches
        stats, last = time_repeated(body, repeats=repeats)
        counters = extract(last)
        entry = stats.as_dict()
        entry["counters"] = counters
        events = counters.get("sim_events")
        if events:
            entry["events_per_second"] = events / stats.median_s
        records = counters.get("trace_records")
        if records and "events_per_second" not in entry:
            entry["records_per_second"] = records / stats.median_s
        results[name] = entry
        if progress is not None:
            eps = entry.get("events_per_second") or entry.get("records_per_second")
            rate = f", {eps:,.0f}/s" if eps else ""
            progress(f"  {name}: median {stats.median_s * 1e3:.2f} ms{rate}")
    from repro.simulate.sched import engine_mode

    return {
        "schema": SCHEMA,
        "suite": suite,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        # Engine mode the *model-level* benchmarks ran under (the
        # engine_events_* variants pin their engine class explicitly);
        # optional in validation so pre-scheduler baselines stay loadable.
        "engine_mode": engine_mode(),
        "generated_unix": time.time(),
        "repeats": repeats,
        "benchmarks": results,
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Validate and write a report as pretty-printed JSON."""
    validate_report(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def validate_report(report: dict) -> None:
    """Raise :class:`ConfigurationError` unless ``report`` fits the schema."""

    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ConfigurationError(f"invalid bench report: {msg}")

    need(isinstance(report, dict), "not a mapping")
    need(report.get("schema") == SCHEMA, f"schema != {SCHEMA!r}")
    for key in ("suite", "git_sha", "python", "platform"):
        need(isinstance(report.get(key), str) and report[key], f"missing {key}")
    need(isinstance(report.get("benchmarks"), dict) and report["benchmarks"],
         "missing benchmarks")
    for name, entry in report["benchmarks"].items():
        for key in ("median_s", "min_s", "max_s"):
            need(isinstance(entry.get(key), (int, float)) and entry[key] > 0,
                 f"{name}.{key} not a positive number")
        need(isinstance(entry.get("counters"), dict), f"{name}.counters missing")
        for ckey, cval in entry["counters"].items():
            need(isinstance(cval, (int, float)), f"{name}.counters[{ckey!r}]")


def check_regression(
    current: dict, baseline: dict, max_regression: float = 0.30
) -> list[str]:
    """Compare event/record throughput against a baseline report.

    Returns a list of human-readable failure strings — one per benchmark
    whose throughput dropped by more than ``max_regression`` (fractional;
    0.30 = 30%) relative to the baseline. Benchmarks absent from either
    side are skipped; an empty list means no regression.
    """
    validate_report(current)
    validate_report(baseline)
    failures: list[str] = []
    for name, base in baseline["benchmarks"].items():
        cur = current["benchmarks"].get(name)
        if cur is None:
            continue
        for metric in ("events_per_second", "records_per_second"):
            base_rate, cur_rate = base.get(metric), cur.get(metric)
            if not base_rate or not cur_rate:
                continue
            drop = 1.0 - cur_rate / base_rate
            if drop > max_regression:
                failures.append(
                    f"{name}: {metric} {cur_rate:,.0f}/s is {drop:.0%} below "
                    f"baseline {base_rate:,.0f}/s (limit {max_regression:.0%})"
                )
    return failures
