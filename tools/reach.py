#!/usr/bin/env python3
"""Which functions of ``src/repro`` each tier of execution reaches.

The recipe behind ``docs/reach.md``::

    python3 tools/reach.py trace /tmp/reach            # every tier, ~20 min
    python3 tools/reach.py trace /tmp/reach --tier paper --engine python
    python3 tools/reach.py report /tmp/reach           # exit 1: unclassified rows

``trace`` clones HEAD into ``/tmp/reach/checkout`` when that directory is
missing and writes a ``sitecustomize.py`` into the clone's ``src/``, so
every interpreter started with ``PYTHONPATH=<clone>/src`` (pytest, the
examples, ``bench/run.py``'s children, forked pool workers, spawned
``repro worker`` / ``repro serve`` processes) installs a profile hook.
The hook appends each ``src/repro`` code object to a per-process file the
first time it is called, so a worker that is SIGKILLed keeps what it
reached. Nothing in the clone's program files changes.

``report`` lists every function (``def``, not lambdas or comprehensions)
that the paper and product tiers both miss, and checks each against the
verdict table of ``docs/reach.md``.
"""

from __future__ import annotations

import argparse
import ast
import os
import pathlib
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIERS = ("paper", "product", "tier1")
ENGINES = ("python", "compiled")

HOOK = '''\
import cProfile, os, sys, threading, time

_SRC = {src!r}
_OUT = {out!r}
_seen = set()
_fd = []


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_SRC):
        if not _fd:
            path = os.path.join(_OUT, f"{{os.getpid()}}-{{time.time_ns()}}.tsv")
            _fd.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644))
        line = f"{{code.co_filename[len(_SRC):]}}\\t{{code.co_firstlineno}}\\t{{code.co_qualname}}\\n"
        os.write(_fd[0], line.encode())


def _forget_parent_file():
    if _fd:
        os.close(_fd.pop())


class _Profile(cProfile.Profile):
    # A thread has one profile function: cProfile takes it over while
    # enabled and leaves none behind, so hand it back.
    def disable(self):
        super().disable()
        sys.setprofile(_hook)


cProfile.Profile = _Profile
os.register_at_fork(after_in_child=_forget_parent_file)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for(path: pathlib.Path, pattern: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and re.search(pattern, path.read_text()):
            return
        time.sleep(0.2)
    raise RuntimeError(f"{pattern!r} never appeared in {path}")


class Runner:
    """Runs one tier's commands in the clone with the hook on ``PYTHONPATH``."""

    def __init__(self, checkout: pathlib.Path, engine: str, log: pathlib.Path) -> None:
        self.checkout = checkout
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(checkout / "src")
        self.env["REPRO_ENGINE"] = engine
        if engine == "compiled":
            self.env["REPRO_ENGINE_REQUIRE"] = "1"
        self.log = log
        self.failures: list[str] = []

    def run(self, *cmd: str, timeout: float = 1800) -> None:
        started = time.monotonic()
        with open(self.log, "a") as out:
            out.write(f"\n$ {' '.join(cmd)}\n")
            out.flush()
            code = subprocess.call(
                cmd, cwd=self.checkout, env=self.env, stdout=out,
                stderr=subprocess.STDOUT, timeout=timeout,
            )
        status = "ok" if code == 0 else f"exit {code}"
        print(f"  [{time.monotonic() - started:6.1f}s {status}] {' '.join(cmd[1:])}")
        if code != 0:
            self.failures.append(" ".join(cmd))

    def start(self, *cmd: str, out: pathlib.Path) -> subprocess.Popen:
        with open(out, "w") as log:
            return subprocess.Popen(
                cmd, cwd=self.checkout, env=self.env, stdout=log,
                stderr=subprocess.STDOUT,
            )

    def repro(self, *args: str) -> None:
        self.run(*_python("-m", "repro", *args))


def tier_paper(run: Runner) -> None:
    """(i) the claims, every example, the bench smoke and E1-E16."""
    run.run(*_python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "tests/test_reproduction_claims.py"))
    for script in sorted((run.checkout / "examples").glob("*.py")):
        run.run(*_python(str(script.relative_to(run.checkout))))
    run.run(*_python("bench/run.py", "--smoke"))
    # pytest-benchmark's timer calls sys.setprofile(None) around every
    # timed call, so time nothing; a warm sweep cache would skip cells.
    shutil.rmtree(run.checkout / "benchmarks/results/cache", ignore_errors=True)
    run.run(*_python("-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "--benchmark-disable", "benchmarks"))


def tier_product(run: Runner) -> None:
    """(ii) the CLI commands with their flags, and the 16 chaos rows."""
    small = ("--size", "2", "--ranks", "8", "16")
    run.repro("info")
    # Default cache (no --cache-dir), then the same study warm: the rerun
    # that continues an interrupted study.
    run.repro("study", *small)
    run.repro("study", *small, "--progress")
    run.repro("study", *small, "--jobs", "2", "--timeout", "60", "--max-attempts", "2",
              "--deadline", "300", "--no-cache", "--no-artifact-cache")
    run.repro("study", *small, "--executor", "serial", "--machine", "fast_network",
              "--molecule", "alkane", "--engine", "python")
    run.repro("study", *small, "--machine", "smp16", "--faults",
              "crash:2@0.3,stall:1@0.2-0.4,detect:2e-4",
              "--models", "ft_static_block", "ft_work_stealing")
    # A distributed study with one attached worker.
    port = _free_port()
    out = pathlib.Path(run.log).with_suffix(".fabric.txt")
    study = run.start(*_python("-m", "repro", "study", *small, "--no-cache",
                               "--jobs", "2", "--executor", "distributed", "--bind", f"127.0.0.1:{port}",
                               "--lease", "30"), out=out)
    _wait_for(out, "listening on")
    run.repro("worker", "--connect", f"127.0.0.1:{port}", "--reconnect-attempts", "1",
              "--reconnect-delay", "0.2", "--verbose")
    study.wait(timeout=120)
    run.repro("scf", "--size", "2")
    run.repro("scf", "--molecule", "alkane", "--size", "3")
    for backend in ("static", "counter", "stealing"):
        run.repro("scf", "--size", "2", "--workers", "2", "--backend", backend)
    run.repro("validate", "--size", "2")
    run.repro("validate", "--size", "2", "--model", "counter_dynamic", "--machine", "smp16")
    run.repro("workload", "--size", "2")
    run.repro("workload", "--molecule", "alkane", "--size", "4")
    # A daemon with a fabric, submits through it, a SIGTERM drain and a restart.
    with tempfile.TemporaryDirectory() as state:
        http, fabric = _free_port(), _free_port()
        serve_out = pathlib.Path(run.log).with_suffix(".serve.txt")
        serve_args = ("-m", "repro", "serve", "--bind", f"127.0.0.1:{http}",
                      "--state-dir", state, "--fabric", f"127.0.0.1:{fabric}",
                      "--ttl", "3600", "--gc-interval", "0.5", "--verbose")
        daemon = run.start(*_python(*serve_args), out=serve_out)
        _wait_for(serve_out, "repro service listening")
        worker = run.start(*_python("-m", "repro", "worker", "--connect",
                                    f"127.0.0.1:{fabric}", "--reconnect-attempts", "1"),
                           out=serve_out.with_suffix(".worker.txt"))
        connect = ("--connect", f"127.0.0.1:{http}")
        run.repro("submit", *connect, *small, "--verbose")
        run.repro("submit", *connect, *small, "--no-watch")
        run.repro("submit", *connect, *small, "--executor", "distributed", "--jobs", "2",
                  "--wait-timeout", "120")
        spec = pathlib.Path(state) / "spec.json"
        spec.write_text('{"source": {"molecule": "water", "size": 2}, '
                        '"models": ["work_stealing"], "ranks": [8]}')
        run.repro("submit", *connect, "--spec", f"@{spec}", "--retries", "2")
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)
        daemon = run.start(*_python(*serve_args), out=serve_out)
        _wait_for(serve_out, "repro service listening")
        run.repro("submit", *connect, *small, "--models", "work_stealing")
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)
        worker.wait(timeout=60)
    run.repro("chaos", "--quick", "--only", "host", "--only", "distributed",
              "--only", "service")


def tier_tier1(run: Runner) -> None:
    """(iii) all of tier-1."""
    run.run(*_python("-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"))


RUN_TIER = {"paper": tier_paper, "product": tier_product, "tier1": tier_tier1}


def cmd_trace(args: argparse.Namespace) -> int:
    work = pathlib.Path(args.workdir).resolve()
    checkout = work / "checkout"
    if not checkout.exists():
        subprocess.check_call(["git", "clone", "-q", str(ROOT), str(checkout)])
    src = (checkout / "src").resolve()
    failed = []
    for tier in args.tier or TIERS:
        engines = ("auto",) if tier == "tier1" else (args.engine or ENGINES)
        for engine in engines:
            out = work / "records" / f"{tier}-{engine}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            (src / "sitecustomize.py").write_text(
                HOOK.format(src=str(src / "repro") + os.sep, out=str(out))
            )
            print(f"tier {tier}, REPRO_ENGINE={engine}")
            runner = Runner(checkout, engine, work / f"{tier}-{engine}.log")
            try:
                RUN_TIER[tier](runner)
            finally:
                (src / "sitecustomize.py").unlink()
            failed += runner.failures
    for cmd in failed:
        print(f"FAILED: {cmd}")
    return 1 if failed else 0


def functions(src: pathlib.Path) -> dict[tuple[str, int], str]:
    """Every ``def`` under ``src``: (module path, first line) -> qualname.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(module, first)] = prefix + child.name
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        walk(ast.parse(path.read_text(), str(path)), module, "")
    return found


def reached(records: pathlib.Path) -> set[tuple[str, int]]:
    hits = set()
    for path in records.glob("*.tsv"):
        for line in path.read_text().splitlines():
            module, first, _ = line.split("\t")
            hits.add((module, int(first)))
    return hits


VERDICT_ROW = re.compile(r"^\| `([\w/]+\.py)` \| `([\w.<>]+)` \| [^|]* \| \*\*(delete|keep)\*\*")


def verdicts(doc: pathlib.Path) -> dict[tuple[str, str], str]:
    rows = {}
    for line in doc.read_text().splitlines():
        match = VERDICT_ROW.match(line)
        if match:
            rows[(match[1], match[2])] = match[3]
    return rows


def cmd_report(args: argparse.Namespace) -> int:
    work = pathlib.Path(args.workdir).resolve()
    defs = functions(work / "checkout" / "src" / "repro")
    tiers = {}
    for tier in TIERS:
        tiers[tier] = set()
        for records in sorted((work / "records").glob(f"{tier}-*")):
            tiers[tier] |= reached(records) & defs.keys()
    print(f"functions in src/repro: {len(defs)}")
    for tier in TIERS:
        print(f"  reached by {tier}: {len(tiers[tier])}")
    main_path = tiers["paper"] | tiers["product"]
    unreached = sorted(set(defs) - main_path)
    rows = verdicts(ROOT / "docs" / "reach.md")
    print(f"  reached by paper or product: {len(main_path)}")
    print(f"  reached only by tier1: {sum(1 for k in unreached if k in tiers['tier1'])}")
    print(f"  reached by nothing: {sum(1 for k in unreached if k not in tiers['tier1'])}")
    unclassified = 0
    for key in unreached:
        module, first = key
        where = "tier1" if key in tiers["tier1"] else "none"
        verdict = rows.get((module, defs[key]))
        if verdict != "keep" or args.all:
            print(f"{verdict or 'UNCLASSIFIED':12s} {where:5s} {module}:{first} {defs[key]}")
        unclassified += verdict is None
    print(f"unclassified: {unclassified}")
    return 1 if unclassified else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    trace = sub.add_parser("trace", help="run tiers under the hook")
    trace.add_argument("workdir")
    trace.add_argument("--tier", action="append", choices=TIERS)
    trace.add_argument("--engine", action="append", choices=ENGINES)
    trace.set_defaults(func=cmd_trace)
    report = sub.add_parser("report", help="list what paper and product miss")
    report.add_argument("workdir")
    report.add_argument("--all", action="store_true", help="print keep rows too")
    report.set_defaults(func=cmd_report)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
