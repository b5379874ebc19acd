#!/usr/bin/env python3
"""The benchmark command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints, as the last line of standard output,
one JSON object ``{correct, attempted, failed, metrics}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. Without ``--workload`` it runs every workload both
ways and prints a table; ``--smoke`` does that at one repetition with
shrunken sizes and checks every declared name and unit; ``--rebaseline``
rewrites ``reference.json``. See ``README.md``.

This process only orchestrates: every measurement happens in fresh child
processes (this same file with ``--role child``) whose environment is
scrubbed of ``REPRO_*`` and whose files all live under ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
REFERENCE = BENCH_DIR / "reference.json"

#: The seed whose outputs ``reference.json`` pins; other seeds get the
#: self-consistency checks only.
REFERENCE_SEED = 0

#: The calibrations around a typical (median) operation may disagree by
#: this share before the attempt is marked unsteady and repeated once.
#: Calibration before and after the whole attempt is reported too, but
#: on this host it moves by more than that in most eight-second windows,
#: and each operation is already normalised by its own neighbours.
DRIFT_LIMIT = 0.25

CHILD_TIMEOUT_S = 150


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ======================================================================
# Child: one workload in this process
# ======================================================================
def probe_engine() -> None:
    """Load (or build) the compiled engine; raises when it is missing.

    ``REPRO_ENGINE_REQUIRE=1`` turns the program's silent fallback to the
    Python loop into an error, so a run can never time the wrong engine.
    """
    from repro import api
    from repro.chemistry.tasks import synthetic_task_graph

    api.run_model("work_stealing", synthetic_task_graph(64, 4), api.commodity_cluster(4))


def measure(workload: Any, seconds: float, smoke: bool, tally: Any) -> dict[str, Any]:
    """Timed passes for ``seconds``; one repeat if the host drifted."""
    from harness import OpTimer, calibrate_median

    attempts = []
    first = last = None
    for _ in range(2):
        timer = OpTimer()
        before = calibrate_median()
        passes = 0
        started = time.perf_counter()
        while True:
            outputs = workload.run_pass(timer, tally)
            passes += 1
            if outputs is None:
                break
            first = outputs if first is None else first
            last = outputs
            elapsed = time.perf_counter() - started
            # Stop when less than half an average pass is left.
            if smoke or (passes >= 2 and elapsed + 0.5 * elapsed / passes >= seconds):
                break
        timer.finish()
        after = calibrate_median()
        summary = timer.summary()
        attempts.append(
            {
                **summary,
                "passes": passes,
                "calib_before_s": before,
                "calib_after_s": after,
                "host_drift": abs(after - before) / min(after, before),
                "unsteady": summary["op_drift"] > DRIFT_LIMIT,
            }
        )
        if outputs is None or smoke or not attempts[-1]["unsteady"]:
            break
    chosen = min(attempts, key=lambda a: a["op_drift"])
    return {"attempts": attempts, "chosen": chosen, "first": first, "last": last,
            "failed": outputs is None}


def traced(workload: Any, seconds: float, smoke: bool, tally: Any,
           spans_path: pathlib.Path) -> dict[str, Any]:
    """Plain passes alternated with passes decomposed into spans, then the
    one-off layer probes; returns the per-layer metrics."""
    from harness import OpTimer, Tracer, calibrate_median

    before = calibrate_median()
    timer = OpTimer()
    spans: list[dict[str, Any]] = []
    traced_s = []
    plain = outputs = None
    started = time.perf_counter()
    for rep in range(1 if smoke else 3):
        plain = workload.run_pass(timer, tally)
        tracer = Tracer(workload.name, rep, clock=workload.clock)
        outputs, metrics = workload.trace_pass(tracer, tally)
        spans += tracer.spans
        traced_s.append(workload.traced_rep_s(tracer))
        if plain is None or outputs is None or time.perf_counter() - started > seconds / 2:
            break
    metrics = {**metrics, **workload.probes(tally)}
    after = calibrate_median()

    untraced_s = timer.summary()["wall_raw_s"]
    shares = tracer.layer_shares()
    for layer, share in shares.items():
        if layer != "workload":
            metrics[f"trace.share.{layer}"] = (share, "ratio")
    metrics.update(
        {
            "trace.unattributed_frac": (shares.get("workload", 0.0), "ratio"),
            "trace.overhead_frac": (
                statistics.median(traced_s) / untraced_s - 1.0 if untraced_s else 0.0,
                "ratio",
            ),
            "trace.spans": (float(len(tracer.spans)), "count"),
            "host.nproc": (float(os.cpu_count() or 1), "count"),
            "host.engine_compiled": (1.0, "count"),
            "host.calib_before_ms": (1e3 * before, "ms"),
            "host.calib_after_ms": (1e3 * after, "ms"),
            "host.wall_raw_s": (untraced_s, "s"),
        }
    )
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps({"workload": workload.name, "seed": workload.seed, "spans": spans}),
        encoding="utf-8",
    )
    return {"metrics": metrics, "first": plain, "last": outputs,
            "failed": plain is None or outputs is None}


def child_main(args: argparse.Namespace) -> int:
    import harness
    from workloads import WORKLOADS

    tmp = pathlib.Path(args.tmp)
    smoke = args.mode == "smoke"
    workload = WORKLOADS[args.workload](args.seed, tmp, smoke)
    tally = harness.Tally()
    result: dict[str, Any] = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    engine_cache = pathlib.Path(os.environ["REPRO_ENGINE_CACHE"])
    result["engine_built"] = not any(engine_cache.glob("*.so"))
    try:
        probe_engine()
        workload.setup()
        result["setup_s"] = time.time() - args.spawned_at
        runs = []
        if args.mode in ("measure", "smoke"):
            run = measure(workload, args.seconds, smoke, tally)
            result["attempts"] = run["attempts"]
            result["chosen"] = run["chosen"]
            runs.append(run)
        if args.mode in ("trace", "smoke"):
            run = traced(workload, args.seconds, smoke, tally, pathlib.Path(args.spans))
            result["layer_metrics"] = run["metrics"]
            runs.append(run)
        for run in runs:
            if run["failed"]:
                continue
            pins = workload.verify(run["first"], run["last"], tally)
            result["pins"] = pins
            if args.seed == REFERENCE_SEED and not smoke and not args.rebaseline:
                pinned = json.loads(REFERENCE.read_text(encoding="utf-8"))
                harness.compare_pins(pins, pinned[args.workload], args.workload, tally)
    finally:
        workload.close()
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    result["peak_rss_mb"] = max(usage) / 1024.0
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["messages"] = tally.messages
    pathlib.Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


# ======================================================================
# Parent: spawn children, assemble the result
# ======================================================================
def child_env(tmp: pathlib.Path) -> dict[str, str]:
    """The children's environment: no inherited ``REPRO_*`` knob, the
    compiled engine required, every cache and temp file under ``tmp``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(tmp),
        REPRO_ENGINE="compiled",
        REPRO_ENGINE_REQUIRE="1",
        REPRO_ENGINE_CACHE=str(BUILD_DIR / "engine"),
    )
    return env


def spawn_child(
    workload: str, seed: int, seconds: float, mode: str, tmp: pathlib.Path,
    index: int, rebaseline: bool = False,
) -> dict[str, Any]:
    """Run one child to completion and return what it reported."""
    result_path = tmp / f"result-{index}.json"
    child_tmp = tmp / f"child-{index}"
    child_tmp.mkdir()
    spans = BUILD_DIR / "trace" / f"{workload}-seed{seed}.spans.json"
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--role", "child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--tmp", str(child_tmp), "--result", str(result_path),
        "--spans", str(spans), "--spawned-at", repr(time.time()),
    ]
    if rebaseline:
        command.append("--rebaseline")
    proc = subprocess.Popen(
        command, env=child_env(child_tmp), cwd=str(ROOT), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child stops what it starts; this catches what a crashed or
        # hung child left behind (it leads its own process group).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not result_path.exists():
        raise RuntimeError(f"{workload} child ({mode}) exited with {code} and no result")
    return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(
    spec: dict[str, Any], workload: str, seed: int, seconds: float, trace: int,
    *, smoke: bool = False, rebaseline: bool = False,
) -> dict[str, Any]:
    """One benchmark run: the contract's result plus the detail behind it."""
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=BUILD_DIR / "tmp"))
    try:
        if smoke:
            children = [spawn_child(workload, seed, seconds, "smoke", tmp, 0)]
        elif trace:
            children = [spawn_child(workload, seed, seconds, "trace", tmp, 0, rebaseline)]
        else:
            # Set-up is measured three times: two children that only set
            # up, then the one that also measures. A child that had to
            # compile the engine first does not count.
            children = []
            for index in range(3):
                child = spawn_child(workload, seed, seconds, "setup-only", tmp, index)
                if not child["engine_built"]:
                    children.append(child)
                if len(children) == 2:
                    break
            children.append(spawn_child(workload, seed, seconds, "measure", tmp, 3, rebaseline))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    main = children[-1]

    metrics: dict[str, dict[str, Any]] = {}
    if smoke or not trace:
        values = {
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "wall_norm_s": main["chosen"]["wall_norm_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        for metric in spec["end_to_end"]:
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    if smoke or trace:
        reported = main["layer_metrics"]
        for metric in spec["per_layer"]:
            # 0 = this layer is not on this workload's path.
            value, unit = reported.get(metric["name"], (0.0, metric["unit"]))
            metrics[metric["name"]] = {"value": value, "unit": unit}
    result = {
        "correct": main["failed"] == 0,
        "attempted": max(1, main["attempted"]),
        "failed": main["failed"],
        "metrics": metrics,
    }
    return {"workload": workload, "seed": seed, "trace": trace, "result": result,
            "children": children}


def describe(run: dict[str, Any]) -> None:
    """What a run was made from, on standard error."""
    main = run["children"][-1]
    for attempt in main.get("attempts", []):
        print(
            f"[{run['workload']}] attempt: {attempt['passes']} passes, "
            f"wall_norm_s {attempt['wall_norm_s']:.4f}, wall_raw_s {attempt['wall_raw_s']:.4f}, "
            f"calibration {1e3 * attempt['calib_before_s']:.2f} -> "
            f"{1e3 * attempt['calib_after_s']:.2f} ms, "
            f"per-operation drift {attempt['op_drift']:.3f}"
            + (" UNSTEADY" if attempt["unsteady"] else ""),
            file=sys.stderr,
        )
    for message in main["messages"]:
        print(f"[{run['workload']}] FAILED: {message}", file=sys.stderr)


def print_table(spec: dict[str, Any], runs: list[dict[str, Any]]) -> None:
    """Every metric by name with its unit, one column per workload."""
    names = [w["name"] for w in spec["workloads"]]
    print(f"{'metric':38s} {'unit':6s} " + " ".join(f"{n[:13]:>13s}" for n in names))
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        for metric in spec[kind]:
            cells = []
            for name in names:
                values = [
                    r["result"]["metrics"][metric["name"]]["value"]
                    for r in runs
                    if r["workload"] == name and metric["name"] in r["result"]["metrics"]
                    and (r["trace"] == trace or r.get("smoke"))
                ]
                cells.append(f"{statistics.median(values):13.5g}" if values else f"{'-':>13s}")
            print(f"{metric['name']:38s} {metric['unit']:6s} " + " ".join(cells))
    for name in names:
        mine = [r["result"] for r in runs if r["workload"] == name]
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"fail_frac {name:20s} {failed}/{attempted} = {failed / max(1, attempted):.4f}")


def check_smoke(spec: dict[str, Any], runs: list[dict[str, Any]]) -> list[str]:
    """Every declared workload ran, every declared metric was reported by
    a workload under its declared unit, and nothing undeclared was."""
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seen: set[str] = set()
    ran = [r["workload"] for r in runs]
    for name in (w["name"] for w in spec["workloads"]):
        if ran.count(name) != 1:
            problems.append(f"workload {name} ran {ran.count(name)} times")
    for run in runs:
        reported = dict(run["children"][-1]["layer_metrics"])
        reported.update({m["name"]: (0.0, m["unit"]) for m in spec["end_to_end"]})
        for name, (_value, unit) in reported.items():
            if name not in declared:
                problems.append(f"{run['workload']} reports undeclared metric {name}")
            elif unit != declared[name]:
                problems.append(f"{name}: unit {unit!r}, declared {declared[name]!r}")
            seen.add(name)
    problems += [f"no workload reports {name}" for name in declared if name not in seen]
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workload mode: runs per workload, seeds SEED..SEED+RUNS-1")
    parser.add_argument("--out", help="write every run, with its detail, to this JSON file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--rebaseline", action="store_true")
    parser.add_argument("--role", default="parent", help=argparse.SUPPRESS)
    parser.add_argument("--mode", help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "child":
        return child_main(args)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(names)}",
              file=sys.stderr)
        return 2

    if args.workload is not None and not (args.smoke or args.rebaseline):
        run = run_workload(spec, args.workload, args.seed, seconds, args.trace)
        describe(run)
        if args.out:
            pathlib.Path(args.out).write_text(json.dumps({"runs": [run]}), encoding="utf-8")
        print(json.dumps(run["result"]))
        return 0 if run["result"]["correct"] else 1

    runs = []
    selected = [args.workload] if args.workload else names
    if args.rebaseline:
        pinned = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        for name in selected:
            run = run_workload(spec, name, REFERENCE_SEED, seconds, 0, rebaseline=True)
            describe(run)
            runs.append(run)
            pinned[name] = run["children"][-1]["pins"]
        REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"rewrote {REFERENCE}")
    elif args.smoke:
        for name in selected:
            run = run_workload(spec, name, args.seed, seconds, 1, smoke=True)
            run["smoke"] = True
            describe(run)
            runs.append(run)
    else:
        for seed in range(args.seed, args.seed + args.runs):
            for name in selected:
                for trace in (0, 1):
                    run = run_workload(spec, name, seed, seconds, trace)
                    describe(run)
                    runs.append(run)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({"runs": runs}), encoding="utf-8")
    print_table(spec, runs)
    problems = check_smoke(spec, runs) if args.smoke and not args.workload else []
    for problem in problems:
        print(f"SMOKE: {problem}")
    correct = all(run["result"]["correct"] for run in runs) and not problems
    print("correct" if correct else "INCORRECT")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
