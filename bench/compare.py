#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 bench/compare.py A.json B.json [--layers]

``A.json`` and ``B.json`` are files written by ``bench/run.py --out``:
two sets of runs of one commit (do they agree?) or of a parent (A) and a
change (B). One row per end-to-end metric and workload: both medians
with their quartiles, how much worse B's median is as a share of A's
(the base is always A), the bound from ``BENCHMARK.json`` and a verdict:

``within``      B is no worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  either side's spread (distance between its quartiles as
                a share of its median) exceeds the bound, and the runs of
                the two sides overlap, so the medians cannot settle it

``setup_s`` is judged on its medians alone, as the driver judges it.
``--layers`` adds the per-layer metrics of the traced runs, which have no
bound and get no verdict. Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path: str, trace: int) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every run with this ``trace``."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(pathlib.Path(path).read_text(encoding="utf-8"))["runs"]:
        if run["trace"] != trace:
            continue
        for name, metric in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, spread)."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def verdict(metric: dict[str, Any], a: list[float], b: list[float]) -> tuple[float, str]:
    """(how much worse B's median is, as a share of A's; the verdict)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    a_q1, a_med, a_q3, a_spread = summary(a)
    b_q1, b_med, b_q3, b_spread = summary(b)
    worse_by = sign * (b_med - a_med) / a_med if a_med else 0.0
    settled = metric["name"] == "setup_s" or max(a_spread, b_spread) <= metric["bound"]
    if worse_by > metric["bound"]:
        all_worse = min(sign * v for v in b) > max(sign * v for v in a)
        return worse_by, "worse" if settled or all_worse else "unresolved"
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    return worse_by, "within" if settled or all_better else "unresolved"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    header = (
        f"{'metric':30s} {'workload':18s} {'n':>5s} {'A q1':>10s} {'A median':>10s} {'A q3':>10s} "
        f"{'B q1':>10s} {'B median':>10s} {'B q3':>10s} {'B worse by':>10s} {'bound':>6s}  verdict"
    )
    print(header)
    exit_code = 0
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        if kind == "per_layer" and not args.layers:
            break
        a_runs, b_runs = load(args.a, trace), load(args.b, trace)
        for metric in spec[kind]:
            for workload in workloads:
                key = (workload, metric["name"])
                if key not in a_runs or key not in b_runs:
                    continue
                a, b = a_runs[key], b_runs[key]
                a_q1, a_med, a_q3, _ = summary(a)
                b_q1, b_med, b_q3, _ = summary(b)
                if "bound" in metric:
                    worse_by, word = verdict(metric, a, b)
                    bound = f"{metric['bound']:6.2f}"
                else:
                    sign = 1.0 if metric["better"] == "lower" else -1.0
                    worse_by = sign * (b_med - a_med) / a_med if a_med else 0.0
                    word, bound = "-", f"{'-':>6s}"
                if word == "worse":
                    exit_code = 1
                print(
                    f"{metric['name']:30s} {workload:18s} {f'{len(a)}/{len(b)}':>5s} "
                    f"{a_q1:10.5g} {a_med:10.5g} {a_q3:10.5g} "
                    f"{b_q1:10.5g} {b_med:10.5g} {b_q3:10.5g} {worse_by:+10.3f} {bound}  {word}"
                )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
