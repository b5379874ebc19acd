"""repro: execution-model case study on a computational chemistry kernel.

A from-scratch reproduction of *"On the Impact of Execution Models: A Case
Study in Computational Chemistry"* (IPDPSW 2015): a Hartree-Fock Fock-build
task kernel, a discrete-event HPC cluster simulator with a Global-Arrays
style one-sided runtime, four families of execution models (static,
inspector-executor, centralized dynamic counter, distributed work stealing,
persistence-based), and semi-matching / hypergraph-partitioning / greedy
load balancers — plus the benchmark harness that regenerates the paper's
evaluation.

Typical entry points (the :mod:`repro.api` facade is the stable surface):

>>> from repro import api
>>> problem = api.ScfProblem.build(api.water_cluster(4), block_size=8)
>>> config = api.StudyConfig(models=("static_block", "work_stealing"),
...                          n_ranks=(64,))
>>> report = api.run_study(config, problem)
>>> cached = api.sweep(config, problem, jobs=4,
...                    cache=api.default_cache_dir())  # parallel + cached
"""

from repro.chemistry import (
    Molecule,
    water_cluster,
    linear_alkane,
    ScfProblem,
    run_scf,
)

__version__ = "1.0.0"

__all__ = [
    "Molecule",
    "water_cluster",
    "linear_alkane",
    "ScfProblem",
    "run_scf",
    "__version__",
]
