"""Multilevel hypergraph partitioner (recursive bisection + FM).

A from-scratch implementation of the standard multilevel stack
(PaToH/hMETIS class), the "traditional, computationally expensive"
comparator of the paper's claim C2:

1. **Coarsening** — heavy-connectivity matching: vertices pair with the
   unmatched neighbor sharing the most net weight (normalized by net
   size); matched pairs contract, identical nets merge, single-pin nets
   drop. Repeats until the hypergraph is small or contraction stalls.
2. **Initial bisection** — greedy weight-balanced placement on the
   coarsest hypergraph, best of several randomized starts.
3. **Uncoarsening** — project the bisection through each level and refine
   with Fiduccia-Mattheyses passes: exact delta-gain updates on critical
   nets, gain-ordered moves under a balance constraint, rollback to the
   best feasible prefix.

k-way partitions come from recursive bisection with proportional weight
targets (handles non-power-of-two k).
"""

from __future__ import annotations

import heapq
import math
from bisect import insort

import numpy as np

from repro.balance.hypergraph import Hypergraph, fock_hypergraph
from repro.balance.metrics import compiled_core
from repro.chemistry.tasks import TaskGraph
from repro.runtime.garrays import BlockDistribution
from repro.util import PartitionError, check_integer, spawn_rng

#: Stop coarsening at this many vertices.
_COARSEN_TARGET = 80
#: Nets larger than this are ignored while scoring matches (standard
#: heuristic: huge nets carry almost no locality signal per pin).
_MAX_NET_MATCH = 64
#: Maximum FM passes per level.
_FM_PASSES = 4
#: Randomized initial-bisection restarts.
_INIT_TRIES = 4


def _store():
    # Call-time import: repro.core's package init reaches back into this
    # layer, so a module-level import would be circular.
    from repro.core.artifacts import default_store

    return default_store()


def partition_hypergraph(
    hg: Hypergraph, k: int, eps: float = 0.05, seed: int = 0
) -> np.ndarray:
    """Partition ``hg`` into ``k`` parts balancing vertex weight.

    Args:
        eps: per-bisection balance slack (fraction of total weight).

    Returns:
        ``(n_vertices,)`` part ids in ``[0, k)``.
    """
    _check_k_eps(k, eps)
    parts = np.zeros(hg.n_vertices, dtype=np.int64)
    rng = spawn_rng(seed, "hypergraph_partition", k)
    # Bisection slack compounds multiplicatively down the recursion tree;
    # scale the per-level budget so the k-way result lands near eps.
    levels = max(1, int(np.ceil(np.log2(k))) ) if k > 1 else 1
    eps_level = max(0.015, eps / levels)
    _recurse(hg, np.arange(hg.n_vertices), k, 0, parts, eps_level, rng)
    if k > 1:
        _kway_repair(hg, parts, k, eps)
    return parts


def _check_k_eps(k: int, eps: float) -> None:
    """``k`` an integer >= 1 (a float k never reaches ``k == 1`` in the
    recursion), ``eps`` finite and >= 0 (NaN and inf disable balance)."""
    check_integer("k", k, 1)
    if not (eps >= 0 and math.isfinite(eps)):
        raise PartitionError(f"eps must be finite and >= 0, got {eps!r}")


def _kway_repair(hg: Hypergraph, parts: np.ndarray, k: int, eps: float) -> None:
    """Greedy balance repair: drain overloaded parts with min-damage moves.

    Moves the cheapest-to-move vertices (by connectivity damage per unit
    weight) from parts above ``(1 + eps) * ideal`` to the lightest part,
    in place. A bounded number of moves guards against pathological
    weight distributions where balance is unattainable (e.g. one vertex
    heavier than ideal).
    """
    weights = hg.vertex_weights
    loads = np.bincount(parts, weights=weights, minlength=k)
    ideal = weights.sum() / k
    limit = (1.0 + eps) * ideal
    incidence = hg.vertex_nets()
    budget = 4 * hg.n_vertices
    # Plain-float views for the per-vertex scan: ndarray scalar reads
    # (``weights[v]``, ``net_weights[eid]``) would box one np.float64 per
    # touch and route every ``key`` comparison through richcompare
    # dispatch. Same doubles, same accumulation order, same moves.
    weight_list: list[float] = weights.tolist()
    net_weight_list: list[float] = hg.net_weights.tolist()
    # Pins of each net in each part, kept current move by move, so the
    # damage of a candidate is two table reads per net instead of two
    # scans of the net's pins.
    net_of_pin = np.repeat(np.arange(hg.n_nets), hg.net_sizes)
    pin_counts = np.bincount(
        net_of_pin * k + parts[hg.pins], minlength=hg.n_nets * k
    ).reshape(hg.n_nets, k)
    while budget > 0:
        src = int(np.argmax(loads))
        if loads[src] <= limit + 1e-12:
            break
        dst = int(np.argmin(loads))
        members = np.nonzero(parts == src)[0]
        if members.size <= 1:
            break
        overload = loads[src] - ideal
        headroom = overload + ideal - loads[dst]
        in_src: list[int] = pin_counts[:, src].tolist()
        in_dst: list[int] = pin_counts[:, dst].tolist()
        best_v = -1
        best_key: tuple[float, float] | None = None
        for v in members.tolist():
            w = weight_list[v]
            if w <= 0 or w > headroom:
                continue
            damage = 0.0
            for eid in incidence[v]:
                if in_dst[eid] == 0:
                    damage += net_weight_list[eid]
                if in_src[eid] == 1:
                    damage -= net_weight_list[eid]
            key = (damage / w, -w)
            if best_key is None or key < best_key:
                best_key = key
                best_v = v
        if best_v < 0:
            break
        parts[best_v] = dst
        moved_nets = incidence[best_v]
        pin_counts[moved_nets, src] -= 1
        pin_counts[moved_nets, dst] += 1
        moved = weight_list[best_v]
        loads[src] -= moved
        loads[dst] += moved
        budget -= 1


def hypergraph_balancer(
    graph: TaskGraph,
    n_ranks: int,
    distribution: BlockDistribution | None = None,
    eps: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Balancer-signature entry point: partition the Fock hypergraph.

    The assignment is content-addressed by (graph, k, eps, seed), so the
    multilevel partitioner runs at most once per distinct configuration
    per process — and not at all on a warm on-disk store. Hits return a
    fresh copy (callers may mutate the parts array).
    """
    _check_k_eps(n_ranks, eps)
    store = _store()
    if store is None:
        return partition_hypergraph(fock_hypergraph(graph), n_ranks, eps=eps, seed=seed)
    return store.fetch(
        store.key(
            "hypergraph_balancer", graph.content_key, int(n_ranks), float(eps), int(seed)
        ),
        lambda: partition_hypergraph(
            fock_hypergraph(graph), n_ranks, eps=eps, seed=seed
        ),
        encode=lambda parts: ({"parts": parts}, {}),
        decode=lambda arrays, _meta: arrays["parts"],
        copy_on_hit=np.copy,
    )


# ----------------------------------------------------------------------
# Recursive bisection
# ----------------------------------------------------------------------
def _recurse(
    hg: Hypergraph,
    vertex_ids: np.ndarray,
    k: int,
    part_offset: int,
    parts: np.ndarray,
    eps: float,
    rng: np.random.Generator,
) -> None:
    if k == 1 or hg.n_vertices == 0:
        parts[vertex_ids] = part_offset
        return
    k0 = k // 2
    frac0 = k0 / k
    side = _multilevel_bisect(hg, frac0, eps, rng)
    for side_value, sub_k, sub_offset in (
        (0, k0, part_offset),
        (1, k - k0, part_offset + k0),
    ):
        mask = side == side_value
        if not mask.any():
            continue
        sub_hg = _induce(hg, mask)
        _recurse(sub_hg, vertex_ids[mask], sub_k, sub_offset, parts, eps, rng)


def _induce(hg: Hypergraph, mask: np.ndarray) -> Hypergraph:
    """Sub-hypergraph on ``mask`` vertices (drops nets with < 2 pins).

    One segment filter + sort over the CSR pin array replaces the former
    per-net Python loop; surviving nets keep their order and their
    ascending-pin layout, so the result is identical.
    """
    remap = -np.ones(hg.n_vertices, dtype=np.int64)
    remap[mask] = np.arange(int(mask.sum()))
    n_nets = hg.n_nets
    mapped = remap[hg.pins]
    seg = np.repeat(np.arange(n_nets), hg.net_sizes)
    valid = mapped >= 0
    mapped = mapped[valid]
    seg = seg[valid]
    counts = np.bincount(seg, minlength=n_nets)
    keep = counts >= 2
    order = np.lexsort((mapped, seg))
    sorted_pins = mapped[order]
    sorted_seg = seg[order]
    pin_keep = keep[sorted_seg] if sorted_seg.size else np.zeros(0, dtype=bool)
    new_sizes = counts[keep]
    xpins = np.zeros(new_sizes.size + 1, dtype=np.int64)
    np.cumsum(new_sizes, out=xpins[1:])
    return Hypergraph.from_csr(
        hg.vertex_weights[mask],
        xpins,
        sorted_pins[pin_keep],
        hg.net_weights[keep],
    )


# ----------------------------------------------------------------------
# Multilevel bisection
# ----------------------------------------------------------------------
def _multilevel_bisect(
    hg: Hypergraph, frac0: float, eps: float, rng: np.random.Generator
) -> np.ndarray:
    levels: list[tuple[Hypergraph, np.ndarray]] = []  # (fine_hg, fine->coarse map)
    current = hg
    while current.n_vertices > _COARSEN_TARGET:
        match = _heavy_connectivity_matching(current, rng)
        coarse, vmap = _contract(current, match)
        if coarse.n_vertices > 0.95 * current.n_vertices:
            break
        levels.append((current, vmap))
        current = coarse

    side = _initial_bisection(current, frac0, rng)
    side = _fm_refine(current, side, frac0, eps)
    for fine_hg, vmap in reversed(levels):
        side = side[vmap]
        side = _fm_refine(fine_hg, side, frac0, eps)
    return side


def _pin_views(hg: Hypergraph, per_net: np.ndarray) -> list[np.ndarray]:
    """``per_net`` repeated over each net's pins, as per-net views.

    The weight-side twin of ``hg.nets``: ``views[e]`` lines up with
    ``hg.nets[e]``, so concatenating both over a vertex's nets yields the
    (pin, contribution) event stream of a per-net, per-pin loop. One
    O(pins) array per level, shared by every vertex.
    """
    if hg.n_nets == 0:
        return []
    return np.split(np.repeat(per_net, hg.net_sizes), hg.xpins[1:-1])


def _heavy_connectivity_matching(
    hg: Hypergraph, rng: np.random.Generator
) -> np.ndarray:
    """Pair vertices by shared net weight; returns partner (or self).

    A vertex's candidates are the pins of its nets of 2 to
    ``_MAX_NET_MATCH`` pins, each pin scoring ``w_e / (|e| - 1)`` per
    shared net. ``np.bincount`` sums those contributions sequentially in
    net-then-pin order (the order a dict accumulation would use), and the
    first maximum of the masked scores *in that same order* is the
    best-scoring candidate that was touched first: the strict-``>`` scan
    over first-touch order, without recovering that order explicitly.
    Matched, over-cap and self candidates are masked to -1, below any
    score, which is what skipping them in the scan amounts to.
    """
    n = hg.n_vertices
    match = -np.ones(n, dtype=np.int64)
    sizes = hg.net_sizes
    net_shares = hg.net_weights / np.maximum(sizes - 1, 1)
    vertex_weights = hg.vertex_weights
    weight_cap = 1.5 * hg.total_vertex_weight / max(_COARSEN_TARGET, 1)
    core = compiled_core()
    if core is not None:
        # The same visit loop over the CSR arrays in the compiled core, bit
        # for bit; the body below is its reference. The rng draw and the
        # share division stay here.
        core.hc_matching(
            vertex_weights,
            net_shares,
            hg.xpins,
            hg.pins,
            hg.xnets,
            hg.vnets,
            rng.permutation(n),
            match,
            weight_cap,
            _MAX_NET_MATCH,
        )
        return match
    scored = ((sizes >= 2) & (sizes <= _MAX_NET_MATCH)).tolist()
    incidence = hg.vertex_nets()
    nets = hg.nets
    shares = _pin_views(hg, net_shares)
    free = np.ones(n, dtype=bool)
    for v in rng.permutation(n).tolist():
        if not free[v]:
            continue
        free[v] = False
        partner = v
        eids = [e for e in incidence[v] if scored[e]]
        if eids:
            cat = np.concatenate([nets[e] for e in eids])
            share = np.concatenate([shares[e] for e in eids])
            totals = np.bincount(cat, weights=share, minlength=n)
            ok = free[cat] & (vertex_weights[v] + vertex_weights[cat] <= weight_cap)
            cand_scores = np.where(ok, totals[cat], -1.0)
            i = cand_scores.argmax()
            if cand_scores[i] > 0.0:
                partner = int(cat[i])
                free[partner] = False
        match[v] = partner
        match[partner] = v
    return match


def _contract(hg: Hypergraph, match: np.ndarray) -> tuple[Hypergraph, np.ndarray]:
    """Contract matched pairs; merge identical nets; drop singletons.

    The coarse vertex numbering assigns ids to pair representatives
    ``min(v, match[v])`` in ascending order — exactly what
    ``np.unique(..., return_inverse=True)`` produces, since a vertex is
    numbered at its first (smaller-id) appearance. Per-net pin dedup is
    one segment sort over the CSR arrays; identical-net merging keeps
    the first-occurrence net order and FP weight-accumulation order of
    the former tuple-keyed dict.
    """
    n = hg.n_vertices
    reps = np.minimum(np.arange(n, dtype=np.int64), match)
    uniq_reps, vmap = np.unique(reps, return_inverse=True)
    vmap = vmap.astype(np.int64, copy=False)
    next_id = uniq_reps.size
    weights = np.bincount(vmap, weights=hg.vertex_weights, minlength=next_id)
    n_nets = hg.n_nets
    if hg.n_pins == 0:
        coarse = Hypergraph.from_csr(
            weights,
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        return coarse, vmap
    mapped = vmap[hg.pins]
    seg = np.repeat(np.arange(n_nets), hg.net_sizes)
    order = np.lexsort((mapped, seg))
    sv = mapped[order]
    first = np.ones(sv.size, dtype=bool)
    first[1:] = (seg[1:] != seg[:-1]) | (sv[1:] != sv[:-1])
    dedup_vals = sv[first]
    dedup_seg = seg[first]
    new_sizes = np.bincount(dedup_seg, minlength=n_nets)
    offs = np.zeros(n_nets + 1, dtype=np.int64)
    np.cumsum(new_sizes, out=offs[1:])
    keep = np.flatnonzero(new_sizes >= 2)
    merged: dict[bytes, int] = {}
    nets_list: list[np.ndarray] = []
    wlist: list[float] = []
    w_arr = hg.net_weights
    for e in keep.tolist():
        pins_e = dedup_vals[offs[e] : offs[e + 1]]
        key = pins_e.tobytes()
        pos = merged.get(key)
        if pos is None:
            merged[key] = len(nets_list)
            nets_list.append(pins_e)
            wlist.append(0.0 + float(w_arr[e]))
        else:
            wlist[pos] += float(w_arr[e])
    sizes_new = np.fromiter(
        (p.size for p in nets_list), dtype=np.int64, count=len(nets_list)
    )
    xpins = np.zeros(len(nets_list) + 1, dtype=np.int64)
    np.cumsum(sizes_new, out=xpins[1:])
    pins_new = (
        np.concatenate(nets_list) if nets_list else np.empty(0, dtype=np.int64)
    )
    coarse = Hypergraph.from_csr(
        weights, xpins, pins_new, np.array(wlist, dtype=np.float64)
    )
    return coarse, vmap


def _initial_bisection(
    hg: Hypergraph, frac0: float, rng: np.random.Generator
) -> np.ndarray:
    """Best of several randomized starts: BFS region growing (contiguous
    regions, low cut) plus one greedy weight-balanced scatter (robust when
    the hypergraph has no locality)."""
    total = hg.total_vertex_weight
    target0 = frac0 * total
    # Shared by the Python body's restarts; the compiled core reads the CSR.
    pin_weights = _pin_views(hg, hg.net_weights) if compiled_core() is None else None
    candidates = [
        _grow_region(hg, target0, rng, pin_weights) for _ in range(_INIT_TRIES)
    ]
    candidates.append(_weight_scatter(hg, target0, total, rng))
    best_side: np.ndarray | None = None
    best_key: tuple[float, float] | None = None
    for side in candidates:
        w0 = float(hg.vertex_weights[side == 0].sum())
        key = (_cut2(hg, side), abs(w0 - target0))
        if best_key is None or key < best_key:
            best_key = key
            best_side = side
    assert best_side is not None
    return best_side


def _grow_region(
    hg: Hypergraph,
    target0: float,
    rng: np.random.Generator,
    pin_weights: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Grow side 0 from a random seed by strongest net connectivity.

    Highest connectivity score wins each absorption step; ties break
    toward the smaller vertex id. ``pin_weights`` is
    ``_pin_views(hg, hg.net_weights)``, shared by the restarts; the
    Python body builds it when it is not given.
    """
    n = hg.n_vertices
    side = np.ones(n, dtype=np.int8)
    core = compiled_core()
    if core is not None:
        # The absorption loop in the compiled core, bit for bit; the body
        # below is its reference. The core returns when w0 reaches the
        # target or the frontier runs empty, and the fallback seed is
        # drawn here, from the same rng in the same order.
        w0 = 0.0
        current = int(rng.integers(0, n))
        while True:
            w0 = core.grow_region(
                hg.vertex_weights,
                hg.net_weights,
                hg.xpins,
                hg.pins,
                hg.xnets,
                hg.vnets,
                side,
                current,
                w0,
                target0,
            )
            if w0 >= target0:
                return side
            remaining = np.flatnonzero(side)
            if remaining.size == 0:
                return side
            current = int(remaining[rng.integers(0, remaining.size)])
    if pin_weights is None:
        pin_weights = _pin_views(hg, hg.net_weights)
    incidence = hg.vertex_nets()
    nets = hg.nets
    vertex_weights = hg.vertex_weights
    # ``scores`` accumulates each absorbed vertex's per-pin contributions
    # with ``np.add.at``, i.e. sequentially in net-then-pin order like a
    # dict accumulation. An absorbed vertex's score is pinned at -inf
    # (-inf + w stays -inf), and ``cand`` mirrors ``scores`` on every
    # vertex touched so far while staying -inf elsewhere, so the frontier
    # (touched, not absorbed) is exactly where ``cand`` is finite and its
    # first maximum is the smallest-id best candidate. A frontier vertex
    # was outside the region at each of its add events, so its score is
    # the plain sum of them.
    scores = np.zeros(n, dtype=np.float64)
    cand = np.full(n, -math.inf)
    w0 = 0.0
    current = int(rng.integers(0, n))
    while True:
        side[current] = 0
        scores[current] = cand[current] = -math.inf
        w0 += vertex_weights[current]
        if w0 >= target0:
            break
        eids = incidence[current]
        if eids:
            cat = np.concatenate([nets[e] for e in eids])
            wrep = np.concatenate([pin_weights[e] for e in eids])
            np.add.at(scores, cat, wrep)
            cand[cat] = scores[cat]
        current = int(cand.argmax())
        if cand[current] == -math.inf:
            remaining = np.flatnonzero(side)
            if remaining.size == 0:
                break
            current = int(remaining[rng.integers(0, remaining.size)])
    return side


def _weight_scatter(
    hg: Hypergraph, target0: float, total: float, rng: np.random.Generator
) -> np.ndarray:
    """Greedy deficit placement in decreasing-weight order."""
    order = np.argsort(-hg.vertex_weights + rng.uniform(0, 1e-9, hg.n_vertices))
    side = np.zeros(hg.n_vertices, dtype=np.int8)
    weights: list[float] = hg.vertex_weights.tolist()
    w0 = 0.0
    w1 = 0.0
    for v in order.tolist():
        if target0 - w0 >= (total - target0) - w1:
            w0 += weights[v]
        else:
            side[v] = 1
            w1 += weights[v]
    return side


def _cut2(hg: Hypergraph, side: np.ndarray) -> float:
    """2-way cut: total weight of nets with pins on both sides.

    Segment min/max over the CSR pin array finds cut nets in one pass;
    the weight sum then runs sequentially in net order, preserving the
    exact FP accumulation of the former per-net loop.
    """
    if hg.n_nets == 0:
        return 0.0
    starts = hg.xpins[:-1]
    sv = side[hg.pins]
    cut = np.minimum.reduceat(sv, starts) != np.maximum.reduceat(sv, starts)
    total = 0.0
    for w in hg.net_weights[cut].tolist():
        total += w
    return float(total)


# ----------------------------------------------------------------------
# FM refinement
# ----------------------------------------------------------------------
def _fm_refine(
    hg: Hypergraph, side: np.ndarray, frac0: float, eps: float
) -> np.ndarray:
    side = side.astype(np.int8).copy()
    total = hg.total_vertex_weight
    target0 = frac0 * total
    lo = max(target0 - eps * total, 0.0)
    hi = min(target0 + eps * total, total)
    for _ in range(_FM_PASSES):
        improved, side = _fm_pass(hg, side, lo, hi, target0)
        if not improved:
            break
    return side


def _fm_state(
    hg: Hypergraph,
) -> tuple[
    list[float],
    list[float],
    list[list[int]],
    np.ndarray,
    np.ndarray | None,
    np.ndarray | None,
    np.ndarray | None,
]:
    """Side-independent FM working state, memoized on the hypergraph.

    ``_fm_refine`` runs up to ``_FM_PASSES`` passes over the same
    (immutable) hypergraph; the list views of weights/pins and the
    sorted initial-gain event layout are identical every pass, so they
    are built once and cached like ``nets``/``vertex_nets``.
    """
    cache = hg._fm_state
    if cache is None:
        sizes_arr = hg.net_sizes
        if hg.n_pins:
            # Initial-gain events, vertex-major with nets ascending: the
            # vertex->net CSR read off as (vertex, net) pairs.
            ev_net = hg.vnets
            ev_v = np.repeat(np.arange(hg.n_vertices), np.diff(hg.xnets))
            ev_idx = np.repeat(ev_v, 2)
        else:
            ev_v = ev_net = ev_idx = None
        cache = (
            hg.vertex_weights.tolist(),
            hg.net_weights.tolist(),
            [net.tolist() for net in hg.nets],
            sizes_arr,
            ev_v,
            ev_net,
            ev_idx,
        )
        hg._fm_state = cache
    return cache


def _fm_pass(
    hg: Hypergraph,
    side: np.ndarray,
    lo: float,
    hi: float,
    target0: float,
) -> tuple[bool, np.ndarray]:
    core = compiled_core()
    if core is not None:
        # The same pass over the CSR arrays in the compiled core, bit for
        # bit; the body below is its reference. ``w0`` stays NumPy's
        # pairwise sum, which a C loop would round differently.
        out = np.array(side, dtype=np.int8)
        improved = core.fm_pass(
            hg.vertex_weights,
            hg.net_weights,
            hg.xpins,
            hg.pins,
            hg.xnets,
            hg.vnets,
            out,
            float(hg.vertex_weights[side == 0].sum()),
            lo,
            hi,
            target0,
        )
        return improved, out
    n = hg.n_vertices
    incidence = hg.vertex_nets()
    vw_arr = hg.vertex_weights
    w0 = float(vw_arr[side == 0].sum())

    # Pin counts per net per side. All per-element FM state lives in
    # plain Python lists: the move loop below touches single elements
    # millions of times, where ndarray scalar indexing dominates the
    # pass. Values are the same IEEE doubles in the same order, so the
    # refinement trajectory is bit-for-bit unchanged.
    vw, weights, nets_l, sizes_arr, ev_v, ev_net, ev_idx = _fm_state(hg)
    if hg.n_nets:
        ones_arr = np.add.reduceat(
            side[hg.pins].astype(np.int64), hg.xpins[:-1]
        )
    else:
        ones_arr = np.zeros(0, dtype=np.int64)
    cnt1: list[int] = ones_arr.tolist()
    cnt0: list[int] = (sizes_arr - ones_arr).tolist()
    side_l: list[int] = side.tolist()

    # Initial gains, vectorized: events sorted (vertex-major, net
    # ascending) replicate the former per-vertex incidence loop, and the
    # interleaved (+w, -w) event pairs keep its exact FP add order.
    # ``np.add.at`` applies sequentially; adding 0.0 for non-firing
    # conditions is an exact no-op (no -0.0 can reach the accumulator).
    if hg.n_pins:
        on_one = side[ev_v].astype(bool)
        c1 = ones_arr[ev_net]
        c0 = sizes_arr[ev_net] - c1
        cnt_same = np.where(on_one, c1, c0)
        cnt_oth = np.where(on_one, c0, c1)
        w_ev = hg.net_weights[ev_net]
        ev = np.zeros((ev_v.size, 2), dtype=np.float64)
        ev[:, 0] = np.where(cnt_same == 1, w_ev, 0.0)
        ev[:, 1] = np.where(cnt_oth == 0, -w_ev, 0.0)
        gains_arr = np.zeros(n, dtype=np.float64)
        np.add.at(gains_arr, ev_idx, ev.ravel())
        gains: list[float] = gains_arr.tolist()
    else:
        gains = [0.0] * n

    stamps: list[int] = [0] * n
    heap: list[tuple[float, int, int]] = [(-gains[v], v, 0) for v in range(n)]
    heapq.heapify(heap)
    locked: list[bool] = [False] * n

    moves: list[int] = []
    cum = 0.0

    def state_key(w0_now: float, cum_now: float) -> tuple[int, float, float]:
        # Lexicographic: feasible beats infeasible, then larger cut gain,
        # then closer to the weight target (drives balance repair even
        # when no cut improvement exists).
        feasible = lo - 1e-12 <= w0_now <= hi + 1e-12
        return (0 if feasible else 1, -cum_now, abs(w0_now - target0))

    initial_key = state_key(w0, 0.0)
    best_key = initial_key
    best_idx = 0  # number of moves in the best prefix

    # Balance-blocked candidates. Entries are appended in pop order, so
    # ``deferred`` is always sorted; after each applied move they become
    # candidates again via a lazy two-way merge with the heap instead of
    # a wholesale re-push. The candidate sequence is identical — merging
    # two sorted streams yields the same global order the re-pushed heap
    # produced (entry tuples are unique: stamps grow per vertex) — but
    # a blocked entry now costs one comparison per round instead of a
    # heap push + pop.
    deferred: list[tuple[float, int, int]] = []
    redeferred: list[tuple[float, int, int]] = []
    dptr = 0  # deferred entries before dptr were examined this round
    dev0 = abs(w0 - target0)
    pop = heapq.heappop
    push = heapq.heappush

    # Rescan guard. A blocked entry can only unblock when a move shifts
    # ``(w0, dev0)``, and whether it does depends solely on its side and
    # vertex weight. Tracking the per-side weight range of everything
    # ever deferred (a lazy superset — stale or consumed entries are
    # never subtracted) lets most rounds prove "nothing can unblock"
    # with four float comparisons and skip the full rescan of the
    # blocked list that used to run after every move. The proof is
    # widened by ``slack`` so float rounding can only produce a false
    # positive (a wasted scan), never a missed unblock; any drift here
    # would show up as digest churn in tests/test_build_equivalence.py.
    d0_min = d1_min = math.inf
    d0_max = d1_max = -math.inf
    scan_deferred = True
    slack = 1e-9 * (abs(target0) + abs(lo) + abs(hi) + 1.0)

    def may_unblock() -> bool:
        if d0_max >= d0_min:  # any side-0 entries deferred so far
            if d0_max >= w0 - hi - slack and d0_min <= w0 - lo + slack:
                return True
            delta = w0 - target0
            if d0_max > delta - dev0 - slack and d0_min < delta + dev0 + slack:
                return True
        if d1_max >= d1_min:
            if d1_max >= lo - w0 - slack and d1_min <= hi - w0 + slack:
                return True
            delta = target0 - w0
            if d1_max > delta - dev0 - slack and d1_min < delta + dev0 + slack:
                return True
        return False
    # Per-move scratch: vertices whose gain changed this move. One heap
    # entry per touched vertex (with its final gain) replaces the former
    # push-per-update: a vertex has at most one live entry either way,
    # pop order of live entries depends only on ``(gain, vertex)`` —
    # the stamp field never breaks a tie between two live entries — and
    # stale entries are discarded on pop, so the examined-candidate
    # sequence is identical while heap churn drops.
    touched: list[int] = []
    is_touched: list[bool] = [False] * n

    while True:
        if (
            scan_deferred
            and dptr < len(deferred)
            and (not heap or deferred[dptr] <= heap[0])
        ):
            entry = deferred[dptr]
            dptr += 1
        elif heap:
            entry = pop(heap)
        else:
            # Every candidate of this round is locked, stale, or
            # balance-blocked: the pass is done (matching the former
            # ``if not heap: break`` with deferred entries pending —
            # when the scan is suppressed, the guard has already proven
            # every skipped entry would only be re-deferred).
            break
        neg_gain, v, stamp = entry
        if locked[v] or stamp != stamps[v]:
            continue
        new_w0 = w0 - vw[v] if side_l[v] == 0 else w0 + vw[v]
        if not (lo <= new_w0 <= hi) and not (abs(new_w0 - target0) < dev0):
            wv = vw[v]
            if side_l[v] == 0:
                if wv < d0_min:
                    d0_min = wv
                if wv > d0_max:
                    d0_max = wv
            else:
                if wv < d1_min:
                    d1_min = wv
                if wv > d1_max:
                    d1_max = wv
            if scan_deferred:
                redeferred.append(entry)
            else:
                # The skipped blocked list is untouched this round
                # (``dptr == 0``); insert in sort order so a later
                # scanning round sees the exact candidate sequence the
                # eager re-push produced.
                insort(deferred, entry)
            continue
        # Apply the move.
        src = side_l[v]
        dst = 1 - src
        cnt_src = cnt1 if src else cnt0
        cnt_dst = cnt0 if src else cnt1
        for eid in incidence[v]:
            w = weights[eid]
            net = nets_l[eid]
            cd = cnt_dst[eid]
            if cd == 0:
                for u in net:
                    if not locked[u] and u != v:
                        gains[u] = gains[u] + w
                        if not is_touched[u]:
                            is_touched[u] = True
                            touched.append(u)
            elif cd == 1:
                for u in net:
                    if side_l[u] == dst and not locked[u]:
                        gains[u] = gains[u] - w
                        if not is_touched[u]:
                            is_touched[u] = True
                            touched.append(u)
            cnt_src[eid] = cs = cnt_src[eid] - 1
            cnt_dst[eid] = cd + 1
            if cs == 0:
                for u in net:
                    if not locked[u] and u != v:
                        gains[u] = gains[u] - w
                        if not is_touched[u]:
                            is_touched[u] = True
                            touched.append(u)
            elif cs == 1:
                for u in net:
                    if side_l[u] == src and not locked[u] and u != v:
                        gains[u] = gains[u] + w
                        if not is_touched[u]:
                            is_touched[u] = True
                            touched.append(u)
        if touched:
            for u in touched:
                is_touched[u] = False
                stamps[u] = t = stamps[u] + 1
                push(heap, (-gains[u], u, t))
            touched.clear()
        cum += -neg_gain
        side_l[v] = dst
        w0 = new_w0
        dev0 = abs(w0 - target0)
        locked[v] = True
        moves.append(v)
        key = state_key(w0, cum)
        if key < best_key:
            best_key = key
            best_idx = len(moves)
        # Balance state changed; blocked vertices may be movable now.
        # Start the next round's merge from the top of the (still
        # sorted) blocked list: this round's re-deferrals all precede
        # the unexamined tail in sort order.
        if redeferred or dptr:
            redeferred.extend(deferred[dptr:])
            deferred = redeferred
            redeferred = []
            dptr = 0
        scan_deferred = not deferred or may_unblock()

    # Roll back to the best prefix.
    for v in moves[best_idx:]:
        side_l[v] = 1 - side_l[v]
    return best_key < initial_key, np.array(side_l, dtype=np.int8)
