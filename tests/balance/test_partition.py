import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.balance import (
    Hypergraph,
    connectivity_cut,
    fock_hypergraph,
    hypergraph_balancer,
    partition_hypergraph,
    rank_loads,
)
from repro.balance.hypergraph import part_weights
from repro.balance.partition import (
    _COARSEN_TARGET,
    _MAX_NET_MATCH,
    _fm_refine,
    _grow_region,
    _heavy_connectivity_matching,
    _induce,
    _initial_bisection,
    _kway_repair,
    _pin_views,
)
from repro.chemistry.tasks import synthetic_task_graph
from repro.util import PartitionError


def chain_hypergraph(n=40, weight=1.0):
    """Vertices in a chain, nets joining consecutive pairs: an obvious
    min-cut structure (one cut net for a contiguous bisection)."""
    nets = [np.array([i, i + 1]) for i in range(n - 1)]
    return Hypergraph(np.full(n, weight), nets, np.ones(n - 1))


class TestPartitionValidity:
    @given(st.integers(1, 9), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_parts_in_range_and_total(self, k, seed):
        graph = synthetic_task_graph(120, 8, seed=seed)
        hg = fock_hypergraph(graph)
        parts = partition_hypergraph(hg, k, seed=seed)
        assert parts.shape == (hg.n_vertices,)
        assert parts.min() >= 0 and parts.max() < k

    def test_k_equals_one(self):
        hg = chain_hypergraph()
        parts = partition_hypergraph(hg, 1)
        assert set(parts) == {0}

    def test_deterministic(self):
        graph = synthetic_task_graph(150, 8, seed=2)
        hg = fock_hypergraph(graph)
        a = partition_hypergraph(hg, 4, seed=9)
        b = partition_hypergraph(hg, 4, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_negative_eps_rejected(self):
        with pytest.raises(PartitionError):
            partition_hypergraph(chain_hypergraph(), 2, eps=-0.1)


class TestPartitionQuality:
    def test_chain_bisection_near_optimal(self):
        hg = chain_hypergraph(64)
        parts = partition_hypergraph(hg, 2, seed=0)
        # Optimal cut for a chain bisection is 1 net; accept <= 3.
        assert connectivity_cut(hg, parts) <= 3.0

    def test_balance_respected(self):
        graph = synthetic_task_graph(400, 12, seed=3, skew=1.0)
        hg = fock_hypergraph(graph)
        for k in (2, 4, 8):
            parts = partition_hypergraph(hg, k, eps=0.05, seed=1)
            weights = part_weights(hg, parts, k)
            assert weights.max() <= 1.10 * hg.total_vertex_weight / k

    def test_beats_random_cut(self):
        graph = synthetic_task_graph(300, 10, seed=4)
        hg = fock_hypergraph(graph)
        parts = partition_hypergraph(hg, 4, seed=0)
        rng = np.random.default_rng(0)
        random_parts = rng.integers(0, 4, size=hg.n_vertices)
        assert connectivity_cut(hg, parts) < connectivity_cut(hg, random_parts)

    def test_two_clusters_separated(self):
        """Two internally-dense clusters with one weak link must split
        along the link."""
        nets = []
        for base in (0, 20):
            for i in range(19):
                nets.append(np.array([base + i, base + i + 1]))
                nets.append(np.array([base, base + i + 1]))
        nets.append(np.array([5, 25]))  # the weak bridge
        hg = Hypergraph(np.ones(40), nets, np.ones(len(nets)))
        parts = partition_hypergraph(hg, 2, seed=0)
        assert connectivity_cut(hg, parts) <= 2.0
        # All of cluster 1 on one side.
        assert len(set(parts[:20])) == 1
        assert len(set(parts[20:])) == 1


class TestFmRefine:
    def test_never_increases_cut(self):
        rng = np.random.default_rng(5)
        graph = synthetic_task_graph(200, 8, seed=5)
        hg = fock_hypergraph(graph)
        side = rng.integers(0, 2, size=hg.n_vertices).astype(np.int8)
        before = connectivity_cut(hg, side.astype(np.int64))
        refined = _fm_refine(hg, side, frac0=0.5, eps=0.05)
        after = connectivity_cut(hg, refined.astype(np.int64))
        assert after <= before + 1e-9

    def test_repairs_gross_imbalance(self):
        hg = chain_hypergraph(60)
        side = np.zeros(60, dtype=np.int8)  # everything on side 0
        refined = _fm_refine(hg, side, frac0=0.5, eps=0.05)
        w1 = hg.vertex_weights[refined == 1].sum()
        assert 0.4 * 60 <= w1 <= 0.6 * 60


class TestInduce:
    def test_subgraph_structure(self):
        hg = small = Hypergraph(
            np.array([1.0, 2.0, 3.0, 4.0]),
            [np.array([0, 1, 2]), np.array([2, 3]), np.array([0, 3])],
            np.array([1.0, 2.0, 3.0]),
        )
        sub = _induce(hg, np.array([True, True, True, False]))
        assert sub.n_vertices == 3
        # Net {2,3} and {0,3} lose a pin and drop below 2 pins -> removed.
        assert sub.n_nets == 1
        np.testing.assert_array_equal(sub.nets[0], [0, 1, 2])


class TestBalancerEntryPoint:
    def test_assignment_balances_cost(self):
        graph = synthetic_task_graph(250, 10, seed=6, skew=0.8)
        assignment = hypergraph_balancer(graph, 8, seed=0)
        loads = rank_loads(graph.costs, assignment, 8)
        assert loads.max() / loads.mean() < 1.25


# ----------------------------------------------------------------------
# Reference oracles: the literal per-pin loops the array kernels replace.
# The golden graphs carry integer byte weights, for which FP addition is
# exact; these run on non-integer weights, where a wrong accumulation
# order or tie-break changes the answer.
# ----------------------------------------------------------------------
def matching_oracle(hg, rng):
    """Dict accumulation, strict ``>`` scan in first-touch order."""
    n = hg.n_vertices
    match = -np.ones(n, dtype=np.int64)
    incidence = hg.vertex_nets()
    weight_cap = 1.5 * hg.total_vertex_weight / max(_COARSEN_TARGET, 1)
    for v in rng.permutation(n):
        v = int(v)
        if match[v] >= 0:
            continue
        scores = {}
        for eid in incidence[v]:
            net = hg.nets[eid]
            if net.size > _MAX_NET_MATCH or net.size < 2:
                continue
            score = hg.net_weights[eid] / (net.size - 1)
            for u in net:
                u = int(u)
                if u != v and match[u] < 0:
                    scores[u] = scores.get(u, 0.0) + score
        partner = -1
        best = 0.0
        wv = hg.vertex_weights[v]
        for u, s in scores.items():
            if s > best and wv + hg.vertex_weights[u] <= weight_cap:
                best = s
                partner = u
        if partner >= 0:
            match[v] = partner
            match[partner] = v
        else:
            match[v] = v
    return match


def grow_region_oracle(hg, target0, rng):
    """Dict accumulation, best score then smallest id."""
    n = hg.n_vertices
    side = np.ones(n, dtype=np.int8)
    incidence = hg.vertex_nets()
    scores = {}
    in_region = np.zeros(n, dtype=bool)
    w0 = 0.0
    current = int(rng.integers(0, n))
    while True:
        side[current] = 0
        in_region[current] = True
        w0 += hg.vertex_weights[current]
        scores.pop(current, None)
        if w0 >= target0:
            break
        for eid in incidence[current]:
            w = hg.net_weights[eid]
            for u in hg.nets[eid]:
                u = int(u)
                if not in_region[u]:
                    scores[u] = scores.get(u, 0.0) + w
        if scores:
            current = max(scores, key=lambda u: (scores[u], -u))
        else:
            remaining = np.nonzero(~in_region)[0]
            if remaining.size == 0:
                break
            current = int(remaining[rng.integers(0, remaining.size)])
    return side


def kway_repair_oracle(hg, parts, k, eps):
    """Damage by scanning every net's pins for every candidate."""
    weights = hg.vertex_weights
    loads = np.bincount(parts, weights=weights, minlength=k)
    ideal = weights.sum() / k
    limit = (1.0 + eps) * ideal
    incidence = hg.vertex_nets()
    budget = 4 * hg.n_vertices
    while budget > 0:
        src = int(np.argmax(loads))
        if loads[src] <= limit + 1e-12:
            break
        dst = int(np.argmin(loads))
        members = np.nonzero(parts == src)[0]
        if members.size <= 1:
            break
        headroom = (loads[src] - ideal) + ideal - loads[dst]
        best_v, best_key = -1, None
        for v in members.tolist():
            w = float(weights[v])
            if w <= 0 or w > headroom:
                continue
            damage = 0.0
            for eid in incidence[v]:
                pins = parts[hg.nets[eid]]
                if not np.any(pins == dst):
                    damage += float(hg.net_weights[eid])
                if np.count_nonzero(pins == src) == 1:
                    damage -= float(hg.net_weights[eid])
            key = (damage / w, -w)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        if best_v < 0:
            break
        parts[best_v] = dst
        loads[src] -= float(weights[best_v])
        loads[dst] += float(weights[best_v])
        budget -= 1


#: Net-weight palettes under which summation order is visible. Tenths:
#: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3), and repeated values make score
#: ties. Absorbing: 1e16 + 1.0 == 1e16 but 1.0 + 1.0 + 1e16 > 1e16, so
#: every candidate behind a 1e16 net is one misordered add from a flip.
_NET_WEIGHT_PALETTES = (
    [0.0, 0.1, 0.2, 0.3, 0.7, 1.0 / 3.0],
    [0.0, 1.0, 1.0, 3.0, 1.0e16],
)


@st.composite
def awkward_hypergraphs(draw):
    """Hypergraphs with everything the golden graphs lack: non-integer
    weights, zero-weight nets, nets above ``_MAX_NET_MATCH``, single-pin
    and duplicated nets, and — the nets being few and random — isolated
    vertices and disconnected components. Half are tiny and dense, where
    two candidates often collect the same weights in different orders."""
    dense = draw(st.booleans())
    n = draw(st.integers(3, 9) if dense else st.integers(2, 120))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nets = []
    for kind in draw(
        st.lists(
            st.sampled_from(["single", "small", "limit", "large", "repeat"]), max_size=40
        )
    ):
        if kind == "repeat" and nets:
            nets.append(nets[int(gen.integers(len(nets)))].copy())
            continue
        low, high = {
            "single": (1, 1),
            "limit": (_MAX_NET_MATCH, _MAX_NET_MATCH + 1),
            "large": (_MAX_NET_MATCH + 1, n),
        }.get(kind, (2, min(n, 4 if dense else 9)))
        size = int(gen.integers(low, max(low, high) + 1))
        nets.append(gen.choice(n, size=min(size, n), replace=False))
    net_weights = gen.choice(draw(st.sampled_from(_NET_WEIGHT_PALETTES)), size=len(nets))
    # The matcher's weight cap is 1.5 * total / 80: one heavy vertex in a
    # field of light ones keeps pairs on both sides of it at every n.
    vertex_weights = gen.choice([0.0, 0.0, 0.05, 0.1, 0.3, 9.0], size=n)
    return Hypergraph(vertex_weights, nets, net_weights)


class TestArrayKernelsAgainstOracles:
    @given(awkward_hypergraphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matching(self, hg, seed):
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(
            _heavy_connectivity_matching(hg, rng), matching_oracle(hg, rng_ref)
        )
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_matching_sums_shares_in_net_order(self):
        # 40 hubs h, each sharing three nets with b (0.3, 0.2, 0.1: sums
        # to 0.6) and then three with a (0.1, 0.2, 0.3: sums to
        # 0.6000000000000001). A hub visited before its two leaves must
        # pick a, the later-touched one, on that last bit; summing in any
        # other order picks b. Vertex 120 only lifts the weight cap.
        nets, net_weights = [], []
        for hub in range(0, 120, 3):
            for leaf, weights in ((hub + 2, (0.3, 0.2, 0.1)), (hub + 1, (0.1, 0.2, 0.3))):
                nets += [np.array([hub, leaf])] * 3
                net_weights += weights
        hg = Hypergraph(np.append(np.full(120, 0.1), 100.0), nets, np.array(net_weights))
        match = _heavy_connectivity_matching(hg, np.random.default_rng(0))
        np.testing.assert_array_equal(match, matching_oracle(hg, np.random.default_rng(0)))
        rank = np.argsort(np.random.default_rng(0).permutation(121))
        hub_first = [
            h for h in range(0, 120, 3) if rank[h] < min(rank[h + 1], rank[h + 2])
        ]
        assert len(hub_first) >= 8
        assert all(match[h] == h + 1 for h in hub_first)

    def test_grow_region_adds_each_net_separately(self):
        # From x: y scores 5e16, u and v 1e16 each. Absorbing y adds 1.0
        # to v twice: (1e16 + 1.0) + 1.0 == 1e16, still level with u, so
        # the smaller id u is absorbed; pre-summing the two nets would
        # make it 1e16 + 2.0 and absorb v.
        x, y, u, v = range(4)
        hg = Hypergraph(
            np.ones(4),
            [np.array([x, y]), np.array([x, u, v]), np.array([y, v]), np.array([y, v])],
            np.array([5.0e16, 1.0e16, 1.0, 1.0]),
        )
        from_x = 0
        for seed in range(12):
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            side = _grow_region(hg, 3.0, rng, _pin_views(hg, hg.net_weights))
            np.testing.assert_array_equal(side, grow_region_oracle(hg, 3.0, rng_ref))
            if np.random.default_rng(seed).integers(0, 4) == x:
                from_x += 1
                np.testing.assert_array_equal(side, [0, 0, 0, 1])
        assert from_x

    def test_kway_repair_damage_adds_then_subtracts(self):
        # Part 0 must shed one vertex to part 1. Moving vertex 0 costs
        # (0.1 + 0.3) - 0.3 = 0.10000000000000003 (its 0.3 net has no pin
        # in part 1 and no other pin in part 0), moving vertex 1 exactly
        # 0.1: vertex 1 goes. Subtracting first gives vertex 0
        # 0.09999999999999998 and moves it instead.
        parts = np.array([0, 0, 0, 0, 1, 1, 2, 2, 2])
        nets = [
            np.array([0, 2, 6]),  # 0.1 to vertex 0 (and 2)
            np.array([0, 7]),  # 0.3: +w then -w for vertex 0
            np.array([1, 3, 8]),  # 0.1 to vertex 1 (and 3)
            np.array([2, 3, 6]),  # keeps 2 and 3 dearer than 0 and 1
        ]
        hg = Hypergraph(np.ones(9), nets, np.array([0.1, 0.3, 0.1, 5.0]))
        expected = parts.copy()
        _kway_repair(hg, parts, 3, 0.05)
        kway_repair_oracle(hg, expected, 3, 0.05)
        np.testing.assert_array_equal(parts, expected)
        np.testing.assert_array_equal(parts, [0, 1, 0, 0, 1, 1, 2, 2, 2])

    @given(
        awkward_hypergraphs(),
        st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.5]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_grow_region(self, hg, frac0, seed):
        # frac0 = 1.5 can never be met: the region swallows every
        # component, taking the rng fallback draw at each exhausted
        # frontier, and stops on the empty remainder.
        target0 = frac0 * hg.total_vertex_weight
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        side = _grow_region(hg, target0, rng, _pin_views(hg, hg.net_weights))
        np.testing.assert_array_equal(side, grow_region_oracle(hg, target0, rng_ref))
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @given(awkward_hypergraphs(), st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kway_repair(self, hg, k, seed):
        # Movable (positive, similar) weights and most vertices in part 0:
        # a long drain, in which each move changes later moves' damage.
        gen = np.random.default_rng(seed)
        n = hg.n_vertices
        hg = Hypergraph(gen.choice([0.5, 1.0, 1.5], size=n), hg.nets, hg.net_weights)
        parts = np.where(gen.random(n) < 0.6, 0, gen.integers(0, k, n))
        expected = parts.copy()
        _kway_repair(hg, parts, k, 0.05)
        kway_repair_oracle(hg, expected, k, 0.05)
        np.testing.assert_array_equal(parts, expected)


class TestWorkingMemory:
    def test_matching_and_bisection_stay_linear_in_pins(self):
        """Working state is O(pins) per level.

        Ten 128-pin nets with every vertex in four of them — the shape
        of the bench's coarsest water level, where a per-vertex cache of
        expanded neighbourhoods (like any |e|^2 pair table) is hundreds
        of times the pin array and moved ``peak_rss_mb`` past its bound.
        """
        n = 320
        residue = np.arange(n) % 10
        nets = [np.flatnonzero((residue - e) % 10 < 4) for e in range(10)]
        assert all(net.size == 128 for net in nets)
        hg = Hypergraph(np.linspace(0.5, 1.5, n), nets, np.linspace(1.0, 2.0, 10))
        hg.nets, hg.vertex_nets()  # the hypergraph's own cached views
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            _heavy_connectivity_matching(hg, rng)
            _initial_bisection(hg, 0.5, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * hg.pins.nbytes, (peak, hg.pins.nbytes)
