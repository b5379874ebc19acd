"""Hypergraph model of the Fock task graph.

Vertices are tasks (weighted by modeled cost); nets are matrix data blocks
(weighted by bytes), each connecting every task that reads or accumulates
that block. A k-way partition with small *connectivity-1* cut

    cut(P) = sum_nets w_e * (lambda_e - 1)

co-locates tasks that share data, minimizing replicated block traffic —
the classic (and computationally expensive) formulation the paper compares
semi-matching against.

Internally the pin structure is CSR-style: one concatenated ``pins``
array plus ``xpins`` segment offsets, and its transpose ``vnets`` /
``xnets`` (the nets of each vertex), built lazily by one stable argsort.
Construction, validation, incidence and the cut metrics all run as NumPy
segment operations; ``nets`` and ``vertex_nets()`` (the list views the
partitioner's Python loops iterate; its compiled kernels read the CSRs)
are materialized lazily from the two CSRs.
"""

from __future__ import annotations

import numpy as np

from repro.chemistry.tasks import TaskGraph
from repro.util import ConfigurationError


def _store():
    # Call-time import: repro.core's package init reaches back into this
    # layer, so a module-level import would be circular.
    from repro.core.artifacts import default_store

    return default_store()


class Hypergraph:
    """An immutable weighted hypergraph.

    Attributes:
        vertex_weights: ``(n_vertices,)`` float weights.
        nets: list of 1-D int arrays of distinct vertex ids (pins);
            zero-copy views into ``pins``.
        net_weights: ``(n_nets,)`` float weights.
        pins: ``(n_pins,)`` concatenated pin array (CSR values).
        xpins: ``(n_nets + 1,)`` segment offsets into ``pins``.
        vnets: ``(n_pins,)`` net ids grouped by vertex, ascending within
            each vertex (the transposed CSR's values; lazy).
        xnets: ``(n_vertices + 1,)`` segment offsets into ``vnets``.
    """

    def __init__(
        self,
        vertex_weights: np.ndarray,
        nets: list[np.ndarray],
        net_weights: np.ndarray,
    ) -> None:
        self.vertex_weights = np.asarray(vertex_weights, dtype=np.float64, order="C")
        if self.vertex_weights.ndim != 1:
            raise ConfigurationError("vertex_weights must be 1-D")
        if not _finite_non_negative(self.vertex_weights):
            raise ConfigurationError("vertex weights must be finite and non-negative")
        n = self.vertex_weights.size
        pin_arrays = [np.asarray(net, dtype=np.int64).reshape(-1) for net in nets]
        sizes = np.fromiter(
            (p.size for p in pin_arrays), dtype=np.int64, count=len(pin_arrays)
        )
        if np.any(sizes == 0):
            idx = int(np.flatnonzero(sizes == 0)[0])
            raise ConfigurationError(f"net {idx} has no pins")
        pins = (
            np.concatenate(pin_arrays) if pin_arrays else np.empty(0, dtype=np.int64)
        )
        xpins = np.zeros(len(pin_arrays) + 1, dtype=np.int64)
        np.cumsum(sizes, out=xpins[1:])
        if pins.size:
            seg = np.repeat(np.arange(len(pin_arrays)), sizes)
            out_of_range = (pins < 0) | (pins >= n)
            if np.any(out_of_range):
                idx = int(seg[np.flatnonzero(out_of_range)[0]])
                raise ConfigurationError(
                    f"net {idx} references vertices outside [0, {n})"
                )
            order = np.lexsort((pins, seg))
            sv = pins[order]
            dup = (seg[1:] == seg[:-1]) & (sv[1:] == sv[:-1])
            if np.any(dup):
                idx = int(seg[np.flatnonzero(dup)[0] + 1])
                raise ConfigurationError(f"net {idx} has duplicate pins")
        self.pins = pins
        self.xpins = xpins
        self._reset_caches()
        self._nets = pin_arrays
        self.net_weights = np.asarray(net_weights, dtype=np.float64, order="C")
        if self.net_weights.shape != (len(pin_arrays),):
            raise ConfigurationError(
                f"{len(pin_arrays)} nets but net_weights has shape {self.net_weights.shape}"
            )
        if not _finite_non_negative(self.net_weights):
            raise ConfigurationError("net weights must be finite and non-negative")

    def _reset_caches(self) -> None:
        """Declare the lazily built views (all derived from the CSR)."""
        self._nets: list[np.ndarray] | None = None
        self._vertex_csr: tuple[np.ndarray, np.ndarray] | None = None
        self._vertex_nets: list[list[int]] | None = None
        #: Side-independent FM working state; owned by
        #: ``repro.balance.partition._fm_state``.
        self._fm_state: tuple | None = None

    @classmethod
    def from_csr(
        cls,
        vertex_weights: np.ndarray,
        xpins: np.ndarray,
        pins: np.ndarray,
        net_weights: np.ndarray,
    ) -> "Hypergraph":
        """Trusted constructor from CSR arrays (no validation).

        For internal producers whose output is correct by construction
        (the vectorized Fock builder, contraction, induction) and the
        artifact-store codec, which checks the arrays first; skips the
        per-net validation pass.
        """
        hg = cls.__new__(cls)
        hg.vertex_weights = np.asarray(vertex_weights, dtype=np.float64, order="C")
        hg.xpins = np.asarray(xpins, dtype=np.int64, order="C")
        hg.pins = np.asarray(pins, dtype=np.int64, order="C")
        hg.net_weights = np.asarray(net_weights, dtype=np.float64, order="C")
        hg._reset_caches()
        return hg

    @property
    def nets(self) -> list[np.ndarray]:
        if self._nets is None:
            # np.split of a net-less pin array still yields one empty piece.
            self._nets = np.split(self.pins, self.xpins[1:-1]) if self.n_nets else []
        return self._nets

    @property
    def n_vertices(self) -> int:
        return int(self.vertex_weights.size)

    @property
    def n_nets(self) -> int:
        return self.xpins.size - 1

    @property
    def n_pins(self) -> int:
        return int(self.pins.size)

    @property
    def net_sizes(self) -> np.ndarray:
        return np.diff(self.xpins)

    @property
    def total_vertex_weight(self) -> float:
        return float(self.vertex_weights.sum())

    def _vertex_net_csr(self) -> tuple[np.ndarray, np.ndarray]:
        # The transposed CSR. One stable argsort over the pin array
        # groups net ids by vertex and keeps them ascending within each
        # vertex — the append order of a per-net loop.
        if self._vertex_csr is None:
            eids = np.repeat(np.arange(self.n_nets), self.net_sizes)
            vnets = eids[np.argsort(self.pins, kind="stable")]
            xnets = np.zeros(self.n_vertices + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.pins, minlength=self.n_vertices), out=xnets[1:])
            self._vertex_csr = (xnets, vnets)
        return self._vertex_csr

    @property
    def xnets(self) -> np.ndarray:
        return self._vertex_net_csr()[0]

    @property
    def vnets(self) -> np.ndarray:
        return self._vertex_net_csr()[1]

    def vertex_nets(self) -> list[list[int]]:
        """Incidence: for each vertex, the net ids containing it (cached).

        The list-of-lists view of ``xnets``/``vnets``: net ids ascending
        within each vertex.
        """
        if self._vertex_nets is None:
            offsets = self.xnets.tolist()
            flat = self.vnets.tolist()
            self._vertex_nets = [
                flat[offsets[v] : offsets[v + 1]] for v in range(self.n_vertices)
            ]
        return self._vertex_nets


def fock_hypergraph(graph: TaskGraph) -> Hypergraph:
    """Build the task/data-block hypergraph for a Fock task graph.

    Vectorized: the block refs of every task — ``(C,D), (B,D), (A,B),
    (A,C)`` in footprint order for standard footprints, the graph's own
    ``footprint_arrays`` otherwise (symmetry-folded, hand-built), each
    first-occurrence-deduplicated within the task — are encoded as
    integers, grouped by one stable sort, and split into CSR segments.
    Net order (sorted refs) and pin order (ascending task id) are
    identical to a dict-of-lists construction over ``(*reads, *writes)``.
    """
    store = _store()
    if store is not None:
        # Content-addressed by the graph: the CSR arrays round-trip
        # losslessly, and a memo hit shares one Hypergraph instance —
        # including its cached incidence lists — across every consumer.
        return store.fetch(
            store.key("fock_hypergraph", graph.content_key),
            lambda: _fock_hypergraph(graph),
            encode=lambda hg: (
                {
                    "vertex_weights": hg.vertex_weights,
                    "xpins": hg.xpins,
                    "pins": hg.pins,
                    "net_weights": hg.net_weights,
                },
                {},
            ),
            decode=lambda arrays, _meta: _decode_csr(arrays, graph.n_tasks),
        )
    return _fock_hypergraph(graph)


def _finite_non_negative(weights: np.ndarray) -> bool:
    return bool(np.isfinite(weights).all() and (weights >= 0).all())


def _decode_csr(arrays: dict[str, np.ndarray], n_vertices: int) -> Hypergraph:
    """A stored hypergraph, checked before ``from_csr`` trusts it.

    Anything an intact store entry can still get wrong — dtypes, lengths,
    offsets, a pin out of range, a bad weight — raises, which the store
    turns into a corrupt miss and a rebuild.
    """
    vw, xpins, pins, nw = (
        arrays[name] for name in ("vertex_weights", "xpins", "pins", "net_weights")
    )
    if not (vw.dtype == nw.dtype == np.float64 and xpins.dtype == pins.dtype == np.int64):
        raise ValueError("hypergraph artifact: wrong dtypes")
    if (
        vw.shape != (n_vertices,)
        or nw.ndim != 1
        or xpins.shape != (nw.size + 1,)
        or pins.ndim != 1
    ):
        raise ValueError("hypergraph artifact: wrong shapes")
    if xpins[0] != 0 or xpins[-1] != pins.size or (np.diff(xpins) < 1).any():
        raise ValueError("hypergraph artifact: bad net offsets")
    if pins.size and (pins.min() < 0 or pins.max() >= n_vertices):
        raise ValueError("hypergraph artifact: pin out of range")
    if not (_finite_non_negative(vw) and _finite_non_negative(nw)):
        raise ValueError("hypergraph artifact: bad weights")
    return Hypergraph.from_csr(vw, xpins, pins, nw)


def _fock_hypergraph(graph: TaskGraph) -> Hypergraph:
    nb = graph.blocks.n_blocks
    n = graph.n_tasks
    if n == 0:
        return Hypergraph.from_csr(
            graph.costs,
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
    if graph.has_standard_footprints:
        q = graph.quartet_array
        a, b, c, d = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
        # Ref columns in (*reads, *writes) order.
        codes = (np.stack([c, b, a, a], axis=1) * nb + np.stack([d, d, b, c], axis=1)).ravel()
        tids = np.repeat(np.arange(n, dtype=np.int64), 4)
    else:
        rows, cols, tids = graph.footprint_arrays
        codes = rows * nb + cols
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    pins = tids[order]
    # A ref one task names twice (B == C, a block read and written, two
    # images of a folded quartet) sits in adjacent slots after the stable
    # sort; the first stays.
    first = np.ones(pins.size, dtype=bool)
    first[1:] = (sorted_codes[1:] != sorted_codes[:-1]) | (pins[1:] != pins[:-1])
    sorted_codes, pins = sorted_codes[first], pins[first]
    new_net = np.ones(sorted_codes.size, dtype=bool)
    new_net[1:] = sorted_codes[1:] != sorted_codes[:-1]
    starts = np.flatnonzero(new_net)
    xpins = np.concatenate([starts, [sorted_codes.size]]).astype(np.int64)
    refs = sorted_codes[starts]
    ra, rb = np.divmod(refs, nb)
    sizes = graph.blocks.sizes()
    weights = (sizes[ra] * sizes[rb] * 8).astype(np.float64)
    return Hypergraph.from_csr(graph.costs, xpins, pins, weights)


def connectivity_cut(hg: Hypergraph, parts: np.ndarray) -> float:
    """Connectivity-1 metric: ``sum_e w_e * (lambda_e - 1)``."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (hg.n_vertices,):
        raise ConfigurationError(
            f"parts must be ({hg.n_vertices},), got {parts.shape}"
        )
    if hg.n_nets == 0:
        return 0.0
    # lambda per net: distinct part count, via one segment sort.
    vals = parts[hg.pins]
    seg = np.repeat(np.arange(hg.n_nets), hg.net_sizes)
    order = np.lexsort((vals, seg))
    sv = vals[order]
    first = np.ones(sv.size, dtype=bool)
    first[1:] = (seg[1:] != seg[:-1]) | (sv[1:] != sv[:-1])
    lam = np.bincount(seg[first], minlength=hg.n_nets)
    # Net-order sequential accumulation keeps the exact FP sum of the
    # former per-net loop.
    total = 0.0
    for contrib in (hg.net_weights * (lam - 1)).tolist():
        total += contrib
    return float(total)


def part_weights(hg: Hypergraph, parts: np.ndarray, k: int) -> np.ndarray:
    """``(k,)`` total vertex weight per part."""
    parts = np.asarray(parts, dtype=np.int64)
    if parts.size and (parts.min() < 0 or parts.max() >= k):
        raise ConfigurationError(f"parts reference ids outside [0, {k})")
    return np.bincount(parts, weights=hg.vertex_weights, minlength=k)
