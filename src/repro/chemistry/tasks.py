"""Block-quartet task decomposition of the Fock build.

Following the classic distributed SCF kernel ("twoel"), the two-electron
Fock contribution is computed by a full four-index loop over *blocks* of
basis functions: task ``(A, B, C, D)`` evaluates the ERI block
``(ij|kl), i in A, j in B, k in C, l in D`` and digests it as

    F[A, B] += 2 * sum_kl D[k, l] (ij|kl)        (Coulomb)
    F[A, C] -=     sum_jl D[j, l] (ij|kl)        (exchange)

so each task *reads* density blocks ``D[C, D]`` and ``D[B, D]`` and
*accumulates into* Fock blocks ``F[A, B]`` and ``F[A, C]``. Those footprints
feed the hypergraph model and the locality side of semi-matching; the
analytic flop count feeds every cost-aware scheduler and the simulator's
compute-time model.

Tasks whose Schwarz bound ``Qmax[A,B] * Qmax[C,D]`` falls below the
tolerance ``tau`` are dropped entirely; inside surviving tasks, shell pairs
are screened *globally* (pair alive iff ``Q_ij * Q_max >= tau``) so that the
actual kernel work and the analytic model count exactly the same primitive
interactions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.chemistry.basis import BasisSet, BlockStructure
from repro.chemistry.screening import SchwarzScreen
from repro.util import (
    ConfigurationError,
    check_non_negative,
    check_positive,
    once_property,
    spawn_rng,
)

#: Modeled floating-point cost of one primitive-product interaction in the
#: vectorized ERI kernel (distance, Boys function, prefactor, accumulate).
FLOPS_PER_INTERACTION = 40.0

#: Modeled per-element cost of the two digestion contractions.
FLOPS_PER_DIGEST = 4.0

BlockRef = tuple[int, int]


def _store():
    # Call-time import: repro.core's package init reaches back into this
    # layer, so a module-level import would be circular.
    from repro.core.artifacts import default_store

    return default_store()


@dataclass(frozen=True)
class TaskSpec:
    """One block-quartet Fock task.

    Attributes:
        tid: dense task id in ``[0, n_tasks)``.
        quartet: block indices ``(A, B, C, D)``.
        flops: modeled floating-point operations for the task.
        reads: density blocks read, as ``(row_block, col_block)`` pairs.
        writes: Fock blocks accumulated into, same encoding.
    """

    tid: int
    quartet: tuple[int, int, int, int]
    flops: float
    reads: tuple[BlockRef, ...]
    writes: tuple[BlockRef, ...]


class TaskGraph:
    """An immutable task set plus the block structure it is defined over.

    This is the interface between the chemistry substrate and everything
    above it, and the dense arrays are its state: ``quartet_array``
    (``(n_tasks, 4)`` int64 block quartets) and ``costs`` (``(n_tasks,)``
    modeled flops), both read-only, ``blocks``, ``tau``, and the footprint
    CSR exactly when ``has_standard_footprints`` is False. Balancers, step
    tables, keys and every stored or shipped form read those and nothing
    else. Computed on first read and kept: ``tasks`` (the per-task
    :class:`TaskSpec` view execution models index), ``footprint_arrays``
    and ``content_key``.

    ``TaskGraph(tasks, blocks, tau)`` takes hand-built or symmetry-folded
    specs, derives the arrays from them once and keeps the tuple as
    ``tasks``; :func:`graph_from_arrays` takes the dense form and builds
    no :class:`TaskSpec` until somebody reads ``tasks``.
    """

    def __init__(self, tasks: tuple[TaskSpec, ...], blocks: BlockStructure, tau: float) -> None:
        tasks = tuple(tasks)
        for idx, task in enumerate(tasks):
            if task.tid != idx:
                raise ConfigurationError(
                    f"task ids must be dense and ordered; task {idx} has tid {task.tid}"
                )
        refs = [ref for t in tasks for ref in (*t.reads, *t.writes)]
        rows, cols = np.array(refs, dtype=np.int64).reshape(-1, 2).T
        self._init_arrays(
            np.array([t.quartet for t in tasks], dtype=np.int64),
            np.array([t.flops for t in tasks], dtype=np.float64),
            blocks,
            tau,
            rows,
            cols,
            np.array([(len(t.reads), len(t.writes)) for t in tasks], dtype=np.int64),
        )
        self.__dict__["tasks"] = tasks

    def _init_arrays(self, quartets, flops, blocks, tau, fp_rows, fp_cols, fp_counts) -> None:
        """Validate the dense form once, vectorised, and make it the state.

        These arrays also arrive from disk, a pickle and the network,
        and ``tasks`` is built long after: a bad shape is refused here.
        """
        quartets = np.ascontiguousarray(quartets, dtype=np.int64)
        flops = np.ascontiguousarray(flops, dtype=np.float64).reshape(-1)
        n = len(flops)
        if quartets.size != 4 * n:
            raise ConfigurationError(
                f"{quartets.size} quartet indices cannot name {n} tasks (4 per task cost)"
            )
        quartets = quartets.reshape(n, 4)
        csr = (fp_rows, fp_cols, fp_counts)
        footprints = None
        if any(part is not None for part in csr):
            if any(part is None for part in csr):
                raise ConfigurationError(
                    "footprint CSR needs fp_rows, fp_cols and fp_counts together"
                )
            rows, cols, counts = (np.ascontiguousarray(p, dtype=np.int64) for p in csr)
            if (
                not rows.shape == cols.shape == (counts.sum(),)
                or counts.size != 2 * n
                or counts.min(initial=0) < 0
            ):
                raise ConfigurationError(
                    f"footprint CSR names {counts.sum()} refs over {counts.size // 2} "
                    f"tasks; the graph has {rows.shape} rows, {cols.shape} columns "
                    f"and {n} tasks"
                )
            footprints = (rows, cols, counts.reshape(n, 2))
            if all(map(np.array_equal, footprints, _standard_footprints(quartets))):
                footprints = None  # the standard derivation: nothing to carry
        if n and not 0 <= quartets.min() <= quartets.max() < blocks.n_blocks:
            raise ConfigurationError(
                f"quartets name blocks {quartets.min()}..{quartets.max()}; "
                f"the tiling has {blocks.n_blocks}"
            )
        for arr in (quartets, flops, *(footprints or ())):
            arr.flags.writeable = False
        self.__dict__.update(
            quartet_array=quartets,
            costs=flops,
            blocks=blocks,
            tau=tau,
            has_standard_footprints=footprints is None,
        )
        if footprints is not None:
            self.__dict__["_footprints"] = footprints

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"TaskGraph is immutable; cannot assign {name!r}")

    def __reduce__(self):
        # A pickled graph is its dense form: no TaskSpec, no step table.
        return graph_from_arrays, tuple(self.to_arrays().values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TaskGraph) and self.content_key == other.content_key

    def __hash__(self) -> int:
        return hash(self.content_key)

    @property
    def n_tasks(self) -> int:
        return len(self.costs)

    @once_property
    def tasks(self) -> tuple[TaskSpec, ...]:
        """The per-task view, task ``t`` at index ``t`` (built on first read)."""
        spans = None
        if not self.has_standard_footprints:
            # Task t reads spans[2t] and writes spans[2t + 1], slices of the
            # flat ref list cut at the running sum of the per-task counts.
            rows, cols, counts = self._footprints
            refs = list(zip(rows.tolist(), cols.tolist()))
            cut = [0, *np.cumsum(counts).tolist()]
            spans = [tuple(refs[lo:hi]) for lo, hi in zip(cut, cut[1:])]
        tasks: list[TaskSpec] = []
        flops = self.costs.tolist()
        # Tasks with equal reads (or writes) hold one tuple between them: there
        # are only n_blocks^3 distinct ones, and the containers a task keeps
        # alive are what the cyclic collector re-walks while this loop runs.
        shared: dict[tuple[BlockRef, ...], tuple[BlockRef, ...]] = {}
        for tid, (a, b, c, d) in enumerate(self.quartet_array.tolist()):
            if spans is None:
                reads, writes = _task_footprint(a, b, c, d)
            else:
                reads, writes = spans[2 * tid], spans[2 * tid + 1]
            tasks.append(
                TaskSpec(
                    tid,
                    (a, b, c, d),
                    flops[tid],
                    shared.setdefault(reads, reads),
                    shared.setdefault(writes, writes),
                )
            )
        return tuple(tasks)

    def to_arrays(self) -> dict[str, np.ndarray | float]:
        """The dense form of this graph: its one payload and one identity.

        ``quartets``, ``flops``, ``offsets`` and the scalar ``tau``, plus
        the footprint CSR — ``fp_rows``, ``fp_cols`` (one entry per ref,
        each task's reads then its writes) and ``fp_counts`` (``(n_tasks,
        2)`` reads and writes per task) — only when the footprints are not
        the standard derivation from the quartets. These are the arguments
        of :func:`graph_from_arrays` in order, what :attr:`content_key`
        hashes, and the only form in which a graph is stored, pickled or
        crosses a process boundary (artifact store, pickle, sweep
        fabric).
        """
        arrays: dict[str, np.ndarray | float] = {
            "quartets": self.quartet_array,
            "flops": self.costs,
            "offsets": self.blocks.offsets,
            "tau": float(self.tau),
        }
        if not self.has_standard_footprints:
            arrays.update(zip(("fp_rows", "fp_cols", "fp_counts"), self._footprints))
        return arrays

    @once_property
    def content_key(self) -> str:
        """sha256 content address of this graph: the one graph identity.

        Hashes :meth:`to_arrays` in order — quartets, costs, block
        offsets, tau, and the footprint CSR exactly when the footprints
        are not derivable from the quartets (symmetry-folded and
        hand-built graphs). Sweep cell keys, artifacts and fabric blobs
        all name a graph by this key.
        """
        h = hashlib.sha256()
        for value in self.to_arrays().values():
            if isinstance(value, float):
                h.update(value.hex().encode())
            else:
                h.update(np.ascontiguousarray(value).tobytes())
        return h.hexdigest()

    @once_property
    def _footprints(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Footprint CSR ``(rows, cols, counts)``: stored by the constructor
        when it is not the standard derivation, derived here when it is."""
        return _standard_footprints(self.quartet_array)

    @once_property
    def footprint_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened footprints: ``(rows, cols, tids)``, one entry per ref.

        Every task's refs appear in ``(*reads, *writes)`` order with the
        owning task id alongside — the dense form the vectorized
        communication-volume and eligibility builders index with. The
        actual footprints (the stored CSR of a symmetry-folded or
        hand-built graph), never a walk over ``tasks``.
        """
        rows, cols, counts = self._footprints
        return rows, cols, np.repeat(np.arange(self.n_tasks), counts.sum(axis=1))

    @property
    def footprint_counts(self) -> np.ndarray:
        """``(n_tasks, 2)`` reads and writes per task: with
        :attr:`footprint_arrays`, the footprints in CSR form."""
        return self._footprints[2]

    @property
    def total_flops(self) -> float:
        return float(self.costs.sum())

    def block_bytes(self, ref: BlockRef) -> int:
        """Size in bytes of one matrix block (float64 elements)."""
        a, b = ref
        return self.blocks.block_size(a) * self.blocks.block_size(b) * 8

    def data_blocks(self) -> set[BlockRef]:
        """All distinct matrix blocks appearing in any footprint."""
        rows, cols, _tids = self.footprint_arrays
        return set(zip(rows.tolist(), cols.tolist()))

    def cost_summary(self) -> dict[str, float]:
        """Descriptive statistics of the task-cost distribution."""
        costs = self.costs
        if costs.size == 0:
            return {"n_tasks": 0, "total": 0.0, "mean": 0.0, "max": 0.0, "cv": 0.0}
        return {
            "n_tasks": float(costs.size),
            "total": float(costs.sum()),
            "mean": float(costs.mean()),
            "max": float(costs.max()),
            "cv": float(costs.std() / costs.mean()) if costs.mean() > 0 else 0.0,
        }


def _task_footprint(a: int, b: int, c: int, d: int) -> tuple[tuple[BlockRef, ...], tuple[BlockRef, ...]]:
    """``(reads, writes)`` of quartet ``(A, B, C, D)``, duplicates dropped.

    Reads are ``D[C, D]`` and ``D[B, D]``, writes ``F[A, B]`` and
    ``F[A, C]``: each pair names one block twice exactly when ``B == C``.
    """
    if b == c:
        return ((c, d),), ((a, b),)
    return ((c, d), (b, d)), ((a, b), (a, c))


def _standard_footprints(quartets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_task_footprint` of every row at once, as ``(rows, cols, counts)``.

    Each task's candidate refs ``D[C, D]``, ``D[B, D]``, ``F[A, B]``,
    ``F[A, C]`` in that order, the second of each pair masked out where
    ``B == C``.
    """
    a, b, c, d = quartets.T
    keep = np.ones(quartets.shape, dtype=bool)
    keep[:, 1] = keep[:, 3] = b != c
    per_kind = keep[:, :2].sum(axis=1)
    return (
        np.stack([c, b, a, a], axis=1)[keep],
        np.stack([d, d, b, c], axis=1)[keep],
        np.stack([per_kind, per_kind], axis=1),
    )


def build_task_graph(
    basis: BasisSet,
    blocks: BlockStructure,
    screen: SchwarzScreen,
    tau: float = 1.0e-10,
) -> TaskGraph:
    """Enumerate surviving block quartets and their modeled costs.

    Args:
        basis: the basis set (provides primitive counts for the cost model).
        blocks: tiling of the basis index range.
        screen: precomputed Schwarz bounds.
        tau: quartet drop tolerance; ``Qmax[A,B] * Qmax[C,D] < tau`` tasks
            are discarded. 0 keeps every quartet.

    Returns:
        The task graph, with tasks ordered lexicographically by quartet.
    """
    check_non_negative("tau", tau)
    if blocks.n_basis != basis.n_basis:
        raise ConfigurationError(
            f"block structure covers {blocks.n_basis} functions, basis has {basis.n_basis}"
        )
    store = _store()
    if store is not None:
        # The graph is a pure function of (screen, tiling, tau); it is
        # stored as its dense form, tau (no array) in the meta record.
        return store.fetch(
            store.key(
                "task_graph", screen.content_key, blocks.offsets, float(tau)
            ),
            lambda: _build_task_graph(basis, blocks, screen, tau),
            encode=_encode_graph,
            decode=_decode_graph,
        )
    return _build_task_graph(basis, blocks, screen, tau)


def _encode_graph(graph: TaskGraph) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    arrays = graph.to_arrays()
    return arrays, {"tau": arrays.pop("tau").hex()}


def _decode_graph(arrays: dict[str, np.ndarray], meta: dict[str, str]) -> TaskGraph:
    return graph_from_arrays(**arrays, tau=float.fromhex(meta["tau"]))


def _build_task_graph(
    basis: BasisSet,
    blocks: BlockStructure,
    screen: SchwarzScreen,
    tau: float,
) -> TaskGraph:
    nb = blocks.n_blocks
    qb = screen.block_qmax(blocks)
    weights = screen.pair_weights(blocks, tau)
    sizes = blocks.sizes()

    # Vectorized survival test over all (A,B) x (C,D) block-pair products,
    # then a fully vectorized cost model. The arithmetic below mirrors the
    # scalar expression term-for-term (same left-associated IEEE order),
    # so every flops value is bit-identical to the per-task original.
    qb_flat = qb.reshape(-1)
    bra_idx, ket_idx = np.nonzero(np.outer(qb_flat, qb_flat) >= tau)
    w_flat = weights.reshape(-1)
    w_bra = w_flat[bra_idx]
    w_ket = w_flat[ket_idx]
    alive = (w_bra != 0) & (w_ket != 0)
    bra_idx, ket_idx = bra_idx[alive], ket_idx[alive]
    w_bra, w_ket = w_bra[alive], w_ket[alive]
    a, b = np.divmod(bra_idx, nb)
    c, d = np.divmod(ket_idx, nb)
    digest = 2.0 * sizes[a] * sizes[b] * sizes[c] * sizes[d]
    flops = FLOPS_PER_INTERACTION * w_bra * w_ket + FLOPS_PER_DIGEST * digest
    quartets = np.stack([a, b, c, d], axis=1).astype(np.int64)
    return graph_from_arrays(quartets, flops.astype(np.float64), blocks, tau)


def graph_from_arrays(
    quartets: np.ndarray,
    flops: np.ndarray,
    offsets: np.ndarray | BlockStructure,
    tau: float,
    fp_rows: np.ndarray | None = None,
    fp_cols: np.ndarray | None = None,
    fp_counts: np.ndarray | None = None,
) -> TaskGraph:
    """A :class:`TaskGraph` over its dense array form; builds no task.

    The inverse of :meth:`TaskGraph.to_arrays` (``offsets`` may also be
    the :class:`BlockStructure` itself): footprints are the CSR when one
    is given and the standard derivation from the quartets otherwise. A
    quartet count that is not the cost count, a block index outside the
    tiling or a partial or inconsistent CSR raises
    :class:`ConfigurationError`. Used by the builder above, the
    artifact-store codec, the sweep fabric's workers and ``pickle``.
    """
    blocks = offsets if isinstance(offsets, BlockStructure) else BlockStructure(offsets)
    graph = object.__new__(TaskGraph)
    graph._init_arrays(quartets, flops, blocks, tau, fp_rows, fp_cols, fp_counts)
    return graph


def synthetic_task_graph(
    n_tasks: int,
    n_blocks: int,
    seed: int = 0,
    skew: float = 1.5,
    block_size: int = 8,
    mean_cost: float = 1.0e6,
) -> TaskGraph:
    """A chemistry-free task graph with heavy-tailed costs.

    Used by balancer benchmarks and property tests that need controlled
    instances: costs are lognormal with shape ``skew`` (the standard
    deviation of log-cost) and mean ``mean_cost`` flops (the default makes
    a task ~0.2 ms on the commodity-cluster preset, comparable to real
    Fock tasks), quartets are uniform over ``n_blocks`` blocks, and
    footprints follow the same two-read/two-write pattern as real Fock
    tasks.
    """
    if n_tasks <= 0 or n_blocks <= 0:
        raise ConfigurationError("n_tasks and n_blocks must be positive")
    check_non_negative("skew", skew)
    check_positive("mean_cost", mean_cost)
    rng = spawn_rng(seed, "synthetic_task_graph", n_tasks, n_blocks)
    quartets = rng.integers(0, n_blocks, size=(n_tasks, 4))
    loc = np.log(mean_cost) - 0.5 * skew**2  # lognormal mean == mean_cost
    costs = np.exp(rng.normal(loc=loc, scale=skew, size=n_tasks))
    blocks = BlockStructure.uniform(n_blocks * block_size, block_size)
    return graph_from_arrays(quartets.astype(np.int64), costs, blocks, 0.0)
