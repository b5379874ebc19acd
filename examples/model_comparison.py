#!/usr/bin/env python
"""Full execution-model comparison with configurable workload and scale.

The paper's Figure-1-style sweep as a command-line tool: pick a molecule
family, rank counts, and models; get the makespan/utilization table and
the improvement ratios.

Run:
  python examples/model_comparison.py
  python examples/model_comparison.py --molecule alkane --size 10 --ranks 32 128 512
  python examples/model_comparison.py --models static_block work_stealing inspector_semi_matching
"""

import argparse

from repro.api import (
    MODEL_NAMES,
    ScfProblem,
    StudyConfig,
    default_cache_dir,
    format_table,
    linear_alkane,
    print_progress,
    sweep,
    water_cluster,
)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--molecule", choices=("water", "alkane"), default="water",
        help="workload family: compact 3-D water cluster or quasi-1-D alkane",
    )
    parser.add_argument("--size", type=int, default=6, help="monomers / carbons")
    parser.add_argument("--block-size", type=int, default=6, help="task block size")
    parser.add_argument("--tau", type=float, default=1.0e-10, help="screening tolerance")
    parser.add_argument(
        "--ranks", type=int, nargs="+", default=[16, 64, 256], help="rank counts"
    )
    parser.add_argument(
        "--models", nargs="+",
        default=["static_block", "static_cyclic", "counter_dynamic", "work_stealing"],
        choices=MODEL_NAMES, metavar="MODEL",
        help=f"execution models; choices: {', '.join(MODEL_NAMES)}",
    )
    parser.add_argument("--machine", choices=("commodity", "fast_network"), default="commodity")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep (default: serial)",
    )
    parser.add_argument(
        "--cache", action="store_true",
        help="reuse/store cell results in the shared result cache",
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    molecule = (
        water_cluster(args.size, seed=args.seed)
        if args.molecule == "water"
        else linear_alkane(args.size)
    )
    problem = ScfProblem.build(molecule, block_size=args.block_size, tau=args.tau)
    summary = problem.graph.cost_summary()
    print(
        f"{args.molecule}({args.size}): {problem.basis.n_basis} basis functions, "
        f"{problem.graph.n_tasks} tasks, cv={summary['cv']:.2f}, "
        f"total {summary['total'] / 1e9:.2f} Gflop\n"
    )

    config = StudyConfig(
        models=tuple(args.models),
        n_ranks=tuple(args.ranks),
        machine=args.machine,
        seed=args.seed,
    )
    report = sweep(
        config,
        problem,
        jobs=args.jobs,
        cache=default_cache_dir() if args.cache else None,
        progress=print_progress if args.jobs > 1 or args.cache else None,
    )
    print(format_table(report.rows(), title="Execution-model comparison"))

    if "static_block" in args.models:
        # Registry names can differ from result names (configured variants
        # self-describe); compare by the result names the report holds.
        print("\nImprovement over static_block:")
        for p in args.ranks:
            static = report.get("static_block", p).makespan
            for name in report.models:
                if name == "static_block":
                    continue
                ratio = static / report.get(name, p).makespan
                print(f"  P={p:4d}  {name:28s} {ratio:5.2f}x")


if __name__ == "__main__":
    main()
