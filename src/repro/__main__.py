"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info``     — library/version/model/preset inventory.
- ``study``    — run an execution-model sweep on a generated molecule.
- ``scf``      — converge an SCF and report the energy.
- ``validate`` — simulate one model and numerically validate its schedule.
- ``workload`` — build a task graph and print its cost-distribution report.
- ``chaos``    — inject real host faults into a sweep and verify recovery.
- ``worker``   — join a distributed sweep fabric as a leased TCP worker.
- ``serve``    — run the persistent study daemon (HTTP job API).
- ``submit``   — submit a study to a running daemon, watch it, fetch rows.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro import __version__


def _add_molecule_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--molecule", choices=("water", "alkane"), default="water",
        help="workload family (default: water)",
    )
    parser.add_argument("--size", type=int, default=4, help="monomers / carbons")
    parser.add_argument("--block-size", type=int, default=6)
    parser.add_argument("--tau", type=float, default=1.0e-10)
    parser.add_argument("--seed", type=int, default=0)


def _add_spec_args(parser: argparse.ArgumentParser, *, executor: str) -> None:
    """The study flags ``repro study`` and ``repro submit`` share; only
    the executor default differs."""
    from repro.core import MACHINE_PRESETS
    from repro.exec_models import MODEL_NAMES

    _add_molecule_args(parser)
    parser.add_argument("--ranks", type=int, nargs="+", default=[16, 64])
    parser.add_argument(
        "--models", nargs="+", choices=MODEL_NAMES, metavar="MODEL",
        default=["static_block", "counter_dynamic", "work_stealing"],
    )
    parser.add_argument("--machine", choices=tuple(MACHINE_PRESETS), default="commodity")
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault scenario, e.g. 'crash:2@0.3,stall:1@0.2-0.4,drop:0.01' "
        "(crash/stall times are fractions of the estimated ideal makespan)",
    )
    parser.add_argument(
        "--executor", default=executor, metavar="SPEC",
        help="execution backend for cache-miss cells, as a spec string: "
        "'local' supervised forked workers, 'serial' in-process, "
        "'distributed' leased TCP workers (attach them with "
        "'python -m repro worker'); options inline as "
        "'name?opt=val&opt2=val', e.g. "
        "'distributed?bind=0.0.0.0:9100&lease=10' (default: %(default)s)",
    )
    parser.add_argument(
        "--engine", default="auto", metavar="MODE",
        help="simulation-engine mode: 'auto' (compiled loop when a C "
        "toolchain is available, else pure Python), 'python' (the "
        "reference heap engine), or 'compiled'; all modes are "
        "bit-for-bit equivalent (default: %(default)s)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run sweep cells across N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-cell wall-clock budget with --jobs > 1; a hung worker "
        "is killed and the cell retried (default: unlimited)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="whole-study wall-clock budget; cells not settled by then "
        "quarantine as DeadlineExceeded (settled cells stay cached, so "
        "a rerun continues; default: unlimited)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="tries per cell before it is quarantined (default: "
        "%(default)s -> policy default of 3)",
    )


def _build_molecule(args: argparse.Namespace):
    from repro import linear_alkane, water_cluster

    if args.molecule == "water":
        return water_cluster(args.size, seed=args.seed)
    return linear_alkane(args.size)


def cmd_info(args: argparse.Namespace) -> int:
    from repro.core import MACHINE_PRESETS
    from repro.exec_models import MODEL_NAMES

    print(f"repro {__version__} — execution-model case study (IPDPSW'15 reproduction)")
    print(f"\nexecution models ({len(MODEL_NAMES)}):")
    for name in MODEL_NAMES:
        print(f"  {name}")
    print(f"\nmachine presets: {', '.join(MACHINE_PRESETS)}")
    print("\nexperiments: pytest benchmarks/ --benchmark-only   (tables in benchmarks/results/)")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    from repro import api
    from repro.core.artifacts import configure_job_artifacts

    # Every surface (this CLI, the HTTP service, api.run_job callers)
    # reduces to one validated JobSpec, so e.g. the --jobs/--executor
    # interplay rules are checked here instead of failing obscurely
    # inside a backend.
    try:
        spec = api.JobSpec.from_cli_args(args).validate()
    except api.JobSpecError as exc:
        print(f"error: {exc.field}: {exc.reason}", file=sys.stderr)
        return 2
    cache = (spec.cache_dir or api.default_cache_dir()) if spec.cache else None
    # The store run_job would install, installed before the problem
    # builds (screening and task-graph intermediates route through it);
    # run_job then keeps it.
    configure_job_artifacts(cache, enabled=spec.artifact_cache)
    problem = spec.source.build()
    print(
        f"{args.molecule}({args.size}): {problem.basis.n_basis} basis functions, "
        f"{problem.graph.n_tasks} tasks"
    )
    if spec.faults:
        scale = spec.fault_time_scale(problem)
        print(f"fault plan: {spec.faults} (time scale {scale * 1e3:.3f} ms)")
    progress = api.print_progress if args.progress else None
    executor = None
    if api.parse_executor_spec(spec.executor)[0] == "distributed":
        # Construct the fabric here so its endpoint can be printed
        # before the sweep blocks waiting for workers.
        executor = api.make_executor(spec.executor)
        host, port = executor.endpoint
        print(
            f"distributed fabric listening on {host}:{port} — attach workers "
            f"with: python -m repro worker --connect {host}:{port}"
        )
    try:
        report = api.run_job(
            spec,
            source=problem,
            executor=executor,
            progress=progress,
        )
    finally:
        if executor is not None:
            executor.close()
    print(api.format_table(report.rows(), title="study results"))
    if cache is not None:
        reused = sum(1 for p in report.provenance.values() if p == "cached")
        print(f"cache: {reused}/{len(report.provenance)} cells reused from {cache}")
    if report.failures:
        print()
        print(api.format_failures(report.failures))
        print(
            f"{len(report.failures)} cell(s) quarantined; results above are partial",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_scf(args: argparse.Namespace) -> int:
    from repro import run_scf
    from repro.chemistry import ScfProblem
    from repro.parallel import SharedMemoryFockBuilder

    problem = ScfProblem.build(
        _build_molecule(args), block_size=args.block_size, tau=args.tau
    )
    g_builder = None
    if args.workers > 1:
        builder = SharedMemoryFockBuilder(
            problem, n_workers=args.workers, mode=args.backend
        )
        g_builder = builder.build
    result = run_scf(problem.molecule, problem=problem, g_builder=g_builder)
    status = "converged" if result.converged else "NOT converged"
    print(
        f"E = {result.energy:.10f} Ha  ({status} in {result.n_iterations} iterations, "
        f"E_nuc = {result.nuclear_repulsion:.6f})"
    )
    return 0 if result.converged else 1


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.chemistry import ScfProblem
    from repro.core import MACHINE_PRESETS, validate_run
    from repro.exec_models import make_model

    problem = ScfProblem.build(
        _build_molecule(args), block_size=args.block_size, tau=args.tau
    )
    machine = MACHINE_PRESETS[args.machine](args.ranks[0])
    result = make_model(args.model).run(problem.graph, machine, seed=args.seed)
    report = validate_run(problem, result)
    print(
        f"{result.model} on P={result.n_ranks}: makespan {result.makespan * 1e3:.3f} ms, "
        f"utilization {result.mean_utilization:.3f}"
    )
    print(
        f"numerical validation: max |error| = {report.max_abs_error:.3e} "
        f"(scale {report.reference_scale:.3e}) -> {'PASS' if report.passed else 'FAIL'}"
    )
    return 0 if report.passed else 1


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.analysis import ascii_histogram, cost_statistics
    from repro.chemistry import ScfProblem

    problem = ScfProblem.build(
        _build_molecule(args), block_size=args.block_size, tau=args.tau
    )
    graph = problem.graph
    stats = cost_statistics(graph.costs)
    print(
        f"{args.molecule}({args.size}), block_size={args.block_size}, tau={args.tau:g}: "
        f"{graph.n_tasks} tasks"
    )
    for key in ("mean", "median", "max", "cv", "gini", "top10_share"):
        print(f"  {key:12s} {stats[key]:.4g}")
    print("\ncost distribution (flops, log bins):")
    print(ascii_histogram(graph.costs, bins=10, width=44))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_chaos

    report = run_chaos(
        only=args.only,
        quick=args.quick,
        jobs=args.jobs,
        seed=args.seed,
        workdir=args.workdir,
        timeout=args.timeout,
        log=print,
    )
    print()
    print(report.format())
    return 0 if report.passed else 1


class _ChaosNames:
    """``repro chaos --only`` choices, read from the scenario table when
    argparse first looks: building the parser, which every ``repro serve``,
    ``study`` and ``worker`` start does, must not import :mod:`repro.chaos`."""

    def __iter__(self):
        from repro.chaos.harness import SCENARIOS, SUITES

        return iter([*SUITES, *(row.key for row in SCENARIOS)])


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro import api
    from repro.service import (
        BackendRouter,
        JobManager,
        RetentionPolicy,
        StudyService,
    )

    fabric = None
    if args.fabric:
        fabric = api.DistributedExecutor(bind=args.fabric)
        host, port = fabric.endpoint
        print(
            f"distributed fabric listening on {host}:{port} — attach workers "
            f"with: python -m repro worker --connect {host}:{port}"
        )
    try:
        router = BackendRouter(args.executor, fabric=fabric)
        manager = JobManager(
            args.state_dir,
            router=router,
            max_queued=args.max_queued,
            capacity=args.capacity,
            workers=args.workers,
            log=print,
        )
        retention = (
            RetentionPolicy(ttl_s=args.ttl, interval_s=args.gc_interval)
            if args.ttl is not None
            else None
        )
        service = StudyService(
            args.state_dir,
            bind=args.bind,
            manager=manager,
            verbose=args.verbose,
            retention=retention,
        )
    except api.JobSpecError as exc:
        print(f"error: {exc.field}: {exc.reason}", file=sys.stderr)
        if fabric is not None:
            fabric.close()
        return 2
    host, port = service.endpoint
    print(f"repro service listening on http://{host}:{port} (state: {args.state_dir})")
    print(
        f"submit a study:  curl -s -X POST http://{host}:{port}/v1/jobs "
        "-d '{\"models\": [\"work_stealing\"], \"ranks\": [16]}'"
    )

    # SIGTERM = graceful drain: keep answering HTTP (new submits 503
    # with Retry-After) while running jobs finish or checkpoint within
    # the grace budget, then exit cleanly — the restart reruns queued
    # and checkpointed jobs over the result cache. The drain runs on a
    # helper thread so the accept loop keeps serving the 503s.
    def _drain_then_exit() -> None:
        print(f"SIGTERM: draining (grace {args.drain_grace:.1f}s)")
        service.drain(args.drain_grace)
        service.httpd.shutdown()

    def _on_sigterm(signum, frame):  # noqa: ARG001 - signal signature
        threading.Thread(
            target=_drain_then_exit, name="repro-drain", daemon=True
        ).start()

    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        service.serve_forever()
    finally:
        signal.signal(signal.SIGTERM, previous)
        if fabric is not None:
            fabric.close()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.core.jobspec import JobSpec, JobSpecError
    from repro.parallel.fabric import parse_endpoint
    from repro.service.client import ServiceClient, ServiceError

    host, port = parse_endpoint(args.connect)
    try:
        if args.spec:
            text = args.spec
            if text.startswith("@"):
                text = pathlib.Path(text[1:]).read_text(encoding="utf-8")
            spec = JobSpec.from_json(text)
        else:
            spec = JobSpec.from_cli_args(args)
        # "auto" is service-side vocabulary (the daemon's router resolves
        # it); validate the rest of the spec against a neutral backend so
        # field errors still fail fast client-side.
        check = spec
        if spec.executor == "auto":
            check = spec.with_overrides(executor="local")
        check.validate()
    except (JobSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(
        host,
        port,
        max_retries=args.retries,
        log=print if args.verbose else None,
    )
    try:
        accepted = client.submit(spec)
        job_id = accepted["job_id"]
        note = " (deduped)" if accepted.get("deduped") else ""
        print(
            f"job {job_id[:12]} {accepted['status']}{note} "
            f"[{client.retries} retr(ies)]",
            file=sys.stderr,
        )
        if not args.watch:
            print(job_id)
            return 0
        snapshot = client.wait(job_id, timeout=args.wait_timeout)
        for row in client.stream_rows(job_id):
            print(json.dumps(row, sort_keys=True))
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted (the job keeps running)", file=sys.stderr)
        return 130
    status = snapshot.get("status")
    if status != "done":
        print(
            f"job {job_id[:12]} {status}: {snapshot.get('error', '')}",
            file=sys.stderr,
        )
        return 1
    progress = snapshot.get("progress", {})
    print(
        f"job {job_id[:12]} done: {progress.get('completed', 0)} cell(s), "
        f"{progress.get('cached', 0)} cached",
        file=sys.stderr,
    )
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.fabric import parse_endpoint
    from repro.parallel.worker import run_worker

    host, port = parse_endpoint(args.connect)
    log = print if args.verbose else None
    return run_worker(
        host,
        port,
        worker_id=args.id,
        reconnect_attempts=args.reconnect_attempts,
        reconnect_delay=args.reconnect_delay,
        log=log,
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.core import MACHINE_PRESETS
    from repro.exec_models import MODEL_NAMES

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library inventory").set_defaults(func=cmd_info)

    p_study = sub.add_parser("study", help="execution-model sweep")
    _add_spec_args(p_study, executor="local")
    p_study.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell instead of reusing the result cache",
    )
    p_study.add_argument(
        "--artifact-cache", action=argparse.BooleanOptionalAction, default=True,
        help="memoize screening/task-graph/balancer intermediates "
        "(on disk under <cache>/artifacts when caching; "
        "--no-artifact-cache rebuilds everything)",
    )
    p_study.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR "
        "or benchmarks/results/cache)",
    )
    p_study.add_argument(
        "--progress", action="store_true",
        help="print one line per cell as it completes (cached/done counts)",
    )
    p_study.set_defaults(func=cmd_study)

    p_scf = sub.add_parser("scf", help="converge an SCF")
    _add_molecule_args(p_scf)
    p_scf.add_argument("--workers", type=int, default=1, help="thread workers (>1 = parallel)")
    p_scf.add_argument("--backend", choices=("static", "counter", "stealing"), default="stealing")
    p_scf.set_defaults(func=cmd_scf)

    p_val = sub.add_parser("validate", help="simulate a model and validate numerically")
    _add_molecule_args(p_val)
    p_val.add_argument("--model", choices=MODEL_NAMES, default="work_stealing")
    p_val.add_argument("--ranks", type=int, nargs=1, default=[16])
    p_val.add_argument("--machine", choices=tuple(MACHINE_PRESETS), default="commodity")
    p_val.set_defaults(func=cmd_validate)

    p_wl = sub.add_parser("workload", help="task-graph cost report")
    _add_molecule_args(p_wl)
    p_wl.set_defaults(func=cmd_workload)

    p_chaos = sub.add_parser(
        "chaos",
        help="inject real host faults (SIGKILL, hangs, disk corruption) "
        "into a sweep and verify bit-for-bit recovery",
    )
    p_chaos.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration: small grid, short timeout",
    )
    p_chaos.add_argument("--jobs", type=int, default=3, help="supervised workers")
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--timeout", type=float, default=2.0, metavar="SEC",
        help="per-cell wall-clock budget for the disturbed sweeps",
    )
    p_chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="keep chaos artifacts (caches, markers, state dirs) here "
        "instead of a throwaway temp dir",
    )
    p_chaos.add_argument(
        "--only", action="append", default=[], metavar="NAME",
        choices=_ChaosNames(),
        help="run only this suite (host, distributed, service) or this "
        "scenario (its key: docs/sweep.md, 'The chaos harness'); "
        "repeatable. Default: the host suite",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent study daemon (HTTP job API, see docs/service.md)",
    )
    p_serve.add_argument(
        "--bind", default="127.0.0.1:8750", metavar="HOST:PORT",
        help="HTTP listen address (default: %(default)s; port 0 picks an "
        "ephemeral port, printed at startup). The wire carries no "
        "authentication — bind loopback or a trusted network only.",
    )
    p_serve.add_argument(
        "--state-dir", default="benchmarks/results/service", metavar="DIR",
        help="durable service state: job records under DIR/jobs, the "
        "result cache under DIR/cache (default: %(default)s). "
        "Restarting the daemon on the same state dir reruns unfinished "
        "jobs over the cache.",
    )
    p_serve.add_argument(
        "--executor", default="local", metavar="SPEC",
        help="default backend for jobs that say 'auto' (default: "
        "%(default)s; same spec strings as 'repro study --executor')",
    )
    p_serve.add_argument(
        "--fabric", default=None, metavar="HOST:PORT",
        help="also bind a daemon-lifetime distributed fabric at this "
        "address; 'python -m repro worker' daemons attach once and serve "
        "every job routed to the 'distributed' backend",
    )
    p_serve.add_argument(
        "--max-queued", type=int, default=64, metavar="N",
        help="bound on jobs waiting to run; past it, submits get 503 + "
        "Retry-After (default: %(default)s)",
    )
    p_serve.add_argument(
        "--capacity", type=int, default=None, metavar="N",
        help="weighted admission budget for concurrent jobs (each job "
        "weighs max(1, jobs)); default: one slot per host CPU, min 2",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="job-runner threads (default: derived from capacity, "
        "capped at 4)",
    )
    p_serve.add_argument(
        "--ttl", type=float, default=None, metavar="SEC",
        help="retention TTL: terminal job records (and their "
        "unreferenced cache entries) are garbage-collected this many "
        "seconds after finishing (default: keep forever)",
    )
    p_serve.add_argument(
        "--gc-interval", type=float, default=30.0, metavar="SEC",
        help="retention janitor wake period with --ttl (default: %(default)s)",
    )
    p_serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SEC",
        help="on SIGTERM, seconds running jobs get to finish before "
        "being checkpointed back to queued for the restart "
        "(default: %(default)s)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a study to a running daemon (repro serve), watch it, "
        "and fetch its rows — retries overload 503s with backoff",
    )
    p_submit.add_argument(
        "--connect", default="127.0.0.1:8750", metavar="HOST:PORT",
        help="daemon endpoint (default: %(default)s)",
    )
    p_submit.add_argument(
        "--spec", default=None, metavar="JSON|@FILE",
        help="full JobSpec as inline JSON or @path-to-file; overrides "
        "the study flags below",
    )
    _add_spec_args(p_submit, executor="auto")
    p_submit.add_argument(
        "--no-watch", dest="watch", action="store_false",
        help="print the job id and return instead of waiting for rows",
    )
    p_submit.add_argument(
        "--wait-timeout", type=float, default=None, metavar="SEC",
        help="give up watching after this long (default: forever)",
    )
    p_submit.add_argument(
        "--retries", type=int, default=8, metavar="N",
        help="submit attempts through 503s/connection errors "
        "(default: %(default)s)",
    )
    p_submit.add_argument(
        "--verbose", action="store_true", help="log every retry"
    )
    p_submit.set_defaults(func=cmd_submit)

    p_worker = sub.add_parser(
        "worker",
        help="join a distributed sweep fabric (leased TCP worker daemon)",
    )
    p_worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="fabric endpoint printed by 'repro study --executor distributed'",
    )
    p_worker.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker identity for logs (default: <hostname>-<pid>)",
    )
    p_worker.add_argument(
        "--reconnect-attempts", type=int, default=5, metavar="N",
        help="reconnects to tolerate before giving up (default: %(default)s)",
    )
    p_worker.add_argument(
        "--reconnect-delay", type=float, default=0.5, metavar="SEC",
        help="pause between reconnect attempts (default: %(default)s)",
    )
    p_worker.add_argument(
        "--verbose", action="store_true", help="log connection lifecycle"
    )
    p_worker.set_defaults(func=cmd_worker)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
