import contextlib
import os
import subprocess
import sys
import textwrap
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
    _contract,
    _fm_pass,
    _fm_refine,
    _grow_region,
    _heavy_connectivity_matching,
    _induce,
    _initial_bisection,
    _kway_repair,
    _pin_views,
)
from repro.chemistry.tasks import synthetic_task_graph
from repro.simulate import sched
from repro.util import ConfigurationError, PartitionError

#: Tests that hold the compiled FM pass to the Python reference.
requires_core = pytest.mark.skipif(
    not sched.compiled_available(), reason="compiled engine core unavailable"
)


#: The engine modes this host can run: the Python reference bodies, and the
#: compiled core's kernels when it builds.
AVAILABLE_MODES = ["python"] + (["compiled"] if sched.compiled_available() else [])


@contextlib.contextmanager
def engine_mode(mode):
    """``REPRO_ENGINE=mode`` for the block, restored exactly afterwards
    (usable inside hypothesis tests, unlike ``monkeypatch``)."""
    previous = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = mode
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = previous


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

    # A float k never reached ``k == 1`` in the recursion (RecursionError)
    # and keyed the balancer's artifact under int(k).
    @pytest.mark.parametrize("k", [2.5, 2.0, 0, -3, True, "2", None])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ConfigurationError):
            partition_hypergraph(chain_hypergraph(), k)
        with pytest.raises(ConfigurationError):
            hypergraph_balancer(synthetic_task_graph(40, 6, seed=0), k)

    # NaN passed ``eps < 0`` and spent the whole repair budget; inf put
    # every vertex in one part.
    @pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf"), -float("inf")])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(PartitionError):
            partition_hypergraph(chain_hypergraph(), 2, eps=eps)
        with pytest.raises(PartitionError):
            hypergraph_balancer(synthetic_task_graph(40, 6, seed=0), 2, eps=eps)

    def test_integral_k_types_accepted(self):
        hg = chain_hypergraph()
        np.testing.assert_array_equal(
            partition_hypergraph(hg, np.int64(3)), partition_hypergraph(hg, 3)
        )


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


class TestNetless:
    """A hypergraph with no nets has no net views (``np.split`` of an empty
    pin array still yields one empty piece)."""

    def test_every_producer(self):
        weights = np.array([1.0, 2.0, 3.0])
        graphs = {
            "constructor": Hypergraph(weights, [], np.empty(0)),
            "from_csr": Hypergraph.from_csr(
                weights, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
            ),
            # Every net loses a pin and drops.
            "induce": _induce(
                Hypergraph(np.ones(4), [np.array([0, 1]), np.array([2, 3])], np.ones(2)),
                np.array([True, False, True, False]),
            ),
            # No pins to contract.
            "contract": _contract(
                Hypergraph(weights, [], np.empty(0)), np.array([1, 0, 2])
            )[0],
        }
        for name, hg in graphs.items():
            assert hg.n_nets == 0, name
            assert len(hg.nets) == 0, name
            assert _pin_views(hg, hg.net_weights) == [], name
            assert hg.vertex_nets() == [[]] * hg.n_vertices, name


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
        for mode in AVAILABLE_MODES:
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            with engine_mode(mode):
                match = _heavy_connectivity_matching(hg, rng)
            np.testing.assert_array_equal(match, matching_oracle(hg, rng_ref))
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
        rank = np.argsort(np.random.default_rng(0).permutation(121))
        hub_first = [
            h for h in range(0, 120, 3) if rank[h] < min(rank[h + 1], rank[h + 2])
        ]
        assert len(hub_first) >= 8
        for mode in AVAILABLE_MODES:
            with engine_mode(mode):
                match = _heavy_connectivity_matching(hg, np.random.default_rng(0))
            np.testing.assert_array_equal(
                match, matching_oracle(hg, np.random.default_rng(0))
            )
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
        for mode in AVAILABLE_MODES:
            for seed in range(12):
                rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
                with engine_mode(mode):
                    side = _grow_region(hg, 3.0, rng, _pin_views(hg, hg.net_weights))
                np.testing.assert_array_equal(side, grow_region_oracle(hg, 3.0, rng_ref))
                assert rng.bit_generator.state == rng_ref.bit_generator.state
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
        for mode in AVAILABLE_MODES:
            rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
            with engine_mode(mode):
                side = _grow_region(hg, target0, rng)
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


def fm_bounds(hg, frac0, eps):
    """``_fm_refine``'s balance window for one bisection."""
    total = hg.total_vertex_weight
    target0 = frac0 * total
    return max(target0 - eps * total, 0.0), min(target0 + eps * total, total), target0


def assert_same_pass(hg, side, frac0, eps):
    """The compiled pass returns the reference's (improved, side) exactly."""
    bounds = fm_bounds(hg, frac0, eps)
    with engine_mode("python"):
        expected_improved, expected = _fm_pass(hg, side, *bounds)
    with engine_mode("compiled"):
        improved, got = _fm_pass(hg, side, *bounds)
    assert improved is expected_improved
    assert got.dtype == np.int8
    assert got.tobytes() == expected.tobytes()
    return improved, got


def kernel_args(hg, side, frac0=0.5, eps=0.05):
    """The core's ``fm_pass`` arguments, as ``_fm_pass`` builds them."""
    lo, hi, target0 = fm_bounds(hg, frac0, eps)
    w0 = float(hg.vertex_weights[side == 0].sum())
    arrays = [hg.vertex_weights, hg.net_weights, hg.xpins, hg.pins, hg.xnets, hg.vnets]
    return [*arrays, side, w0, lo, hi, target0]


#: Hand-built FM cases: (vertex weights, nets, net weights, side).
_FM_CASES = {
    "no_nets": ([1.0, 2.0, 3.0, 0.5], [], [], [0, 0, 0, 1]),
    "one_vertex": ([2.0], [[0]], [1.0], [0]),
    "single_pin_nets": (
        [1.0, 1.0, 2.0, 0.5],
        [[0], [1], [2], [3], [2, 3], [0]],
        [0.3, 0.1, 0.2, 1.0, 0.7, 0.3],
        [0, 1, 0, 1],
    ),
    "zero_weight_vertices": (
        [0.0, 0.0, 1.0, 0.0, 2.0, 0.0],
        [[0, 1], [1, 2], [2, 3, 4], [4, 5], [0, 5]],
        [1.0, 0.1, 0.2, 0.3, 1.0 / 3.0],
        [0, 1, 0, 1, 0, 1],
    ),
    "all_on_side_0": ([1.0] * 8, [[i, i + 1] for i in range(7)], [1.0] * 7, [0] * 8),
    "all_on_side_1": ([1.0] * 8, [[i, i + 1] for i in range(7)], [1.0] * 7, [1] * 8),
    # Vertex 5's single-pin 0.1 net adds +0.1 then -0.1 after 0.2 from
    # its other nets: the order np.add.at applies. Either order alone
    # is exact; swapped, the gain moves by an ulp and a tie breaks the
    # other way.
    "single_pin_net_order": (
        [1.0, 2.0, 2.0, 1.0, 2.0, 1.0, 2.0],
        [
            [2, 5, 3, 1, 0], [3, 0, 5, 4, 1, 2], [5, 3], [0, 2, 4, 3, 6, 5, 1], [5],
            [3, 1, 0, 5, 6], [5, 3, 6, 0, 4, 2], [0, 3], [4, 5, 1, 6, 2, 3],
        ],
        [0.3, 0.3, 0.2, 0.1, 0.1, 0.1, 0.2, 0.2, 0.1],
        [0, 1, 0, 0, 1, 1, 0],
    ),
    # Tenths: w0 drifts by rounding as vertices move, and only the
    # ``may_unblock`` slack keeps the rescan guard from skipping a
    # deferred entry that has become movable.
    "rescan_guard_slack": (
        [0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.1, 0.1],
        [[1, 3, 4, 7, 2, 6, 5], [2, 6, 5, 7], [2, 0, 4, 1, 3], [6, 3]],
        [1.0, 1.0, 1.0, 1.0],
        [1, 0, 1, 0, 0, 1, 1, 0],
    ),
    # At frac0 = 0.7 a move lands w0 a rounding error outside the
    # window, which only the state key's 1e-12 tolerance calls feasible.
    "feasibility_tolerance": ([0.1, 0.3], [[1, 0], [1], [1, 0], [1, 0]], [2.0, 1.0, 2.0, 1.0], [0, 0]),
    # Every vertex of an alternating ring has the same gain, so each pop
    # is decided by the vertex id; zero-weight nets make 0.0 == -0.0 ties.
    "equal_gain_ties": (
        [1.0] * 10,
        [[i, (i + 1) % 10] for i in range(10)] + [[0, 5], [2, 7]],
        [1.0] * 10 + [0.0, 0.0],
        [i % 2 for i in range(10)],
    ),
}


@requires_core
class TestCompiledFmPass:
    """The core's ``fm_pass`` against the Python body of ``_fm_pass``."""

    @given(
        awkward_hypergraphs(),
        st.sampled_from([None, [1.0, 2.0], [0.1, 0.2, 0.3]]),
        st.sampled_from([0.0, 0.015, 0.05, 0.3]),
        st.sampled_from([0.25, 1.0 / 3.0, 0.5, 0.7]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, hg, vertex_palette, eps, frac0, seed):
        # Few distinct vertex weights make moves that cancel exactly, so
        # later prefixes tie the best state key.
        gen = np.random.default_rng(seed)
        if vertex_palette is not None:
            hg = Hypergraph(gen.choice(vertex_palette, hg.n_vertices), hg.nets, hg.net_weights)
        side = gen.integers(0, 2, hg.n_vertices).astype(np.int8)
        assert_same_pass(hg, side, frac0, eps)

    @pytest.mark.parametrize("case", sorted(_FM_CASES))
    @pytest.mark.parametrize("frac0", [0.25, 0.5, 0.7])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.3])
    def test_hand_built(self, case, frac0, eps):
        vertex_weights, nets, net_weights, side = _FM_CASES[case]
        hg = Hypergraph(
            np.array(vertex_weights), [np.array(net) for net in nets], np.array(net_weights)
        )
        assert_same_pass(hg, np.array(side, dtype=np.int8), frac0, eps)

    def test_partitions_identical_across_modes(self):
        hg = fock_hypergraph(synthetic_task_graph(300, 10, seed=7, skew=1.0))
        for k in (2, 3, 8):
            with engine_mode("python"):
                expected = partition_hypergraph(hg, k, seed=k)
            with engine_mode("compiled"):
                np.testing.assert_array_equal(partition_hypergraph(hg, k, seed=k), expected)

    def test_releases_its_buffers(self):
        hg = chain_hypergraph(30)
        arrays = (hg.vertex_weights, hg.net_weights, hg.xpins, hg.pins, hg.xnets, hg.vnets)
        before = [sys.getrefcount(a) for a in arrays]
        with engine_mode("compiled"):
            _, side = _fm_pass(hg, np.zeros(30, dtype=np.int8), *fm_bounds(hg, 0.5, 0.05))
        assert [sys.getrefcount(a) for a in arrays] == before
        side.resize(31)  # refused while an export of ``side`` is held
        # The same after an error raised with every buffer acquired.
        bad = np.full(30, 2, dtype=np.int8)
        with pytest.raises(ValueError):
            sched._load_engine_core().fm_pass(*kernel_args(hg, bad))
        assert [sys.getrefcount(a) for a in arrays] == before
        bad.resize(31)

    @pytest.mark.parametrize(
        "field, bad, error",
        [
            ("pins", lambda a: np.where(np.arange(a.size) == 0, 6, a), ValueError),
            ("pins", lambda a: np.where(np.arange(a.size) == 3, -1, a), ValueError),
            ("vnets", lambda a: np.where(np.arange(a.size) == 2, 5, a), ValueError),
            ("xpins", lambda a: np.where(np.arange(a.size) == 2, 1, a), ValueError),
            ("xpins", lambda a: a + 1, ValueError),
            ("xnets", lambda a: a[::-1].copy(), ValueError),
            ("xnets", lambda a: a[:-1].copy(), ValueError),
            ("pins", lambda a: a.astype(np.int32), TypeError),
            ("pins", lambda a: a.reshape(-1, 2), TypeError),
            ("vertex_weights", lambda a: a[::2], (TypeError, ValueError)),
            ("net_weights", lambda a: np.where(np.arange(a.size) == 1, np.nan, a), ValueError),
            ("vertex_weights", lambda a: np.where(np.arange(a.size) == 1, np.inf, a), ValueError),
            ("side", lambda a: np.where(np.arange(a.size) == 4, 2, a).astype(np.int8), ValueError),
            ("side", lambda a: a[:-1].copy(), ValueError),
            ("side", lambda a: np.broadcast_to(a, a.shape), ValueError),
        ],
    )
    def test_rejects_malformed_input(self, field, bad, error):
        hg = chain_hypergraph(6)
        args = kernel_args(hg, np.zeros(6, dtype=np.int8))
        names = ["vertex_weights", "net_weights", "xpins", "pins", "xnets", "vnets", "side"]
        i = names.index(field)
        args[i] = bad(args[i])
        with pytest.raises(error):
            sched._load_engine_core().fm_pass(*args)

    def test_bad_trusted_graph_raises_instead_of_crashing(self):
        # ``from_csr`` skips validation: a pin past the last vertex and
        # offsets past the pin array reach ``_fm_pass`` unchecked.
        for xpins, pins in (([0, 2, 4], [0, 1, 1, 9]), ([0, 2, 9], [0, 1, 1, 2])):
            hg = Hypergraph.from_csr(np.ones(3), np.array(xpins), np.array(pins), np.ones(2))
            with engine_mode("compiled"), pytest.raises(ValueError):
                _fm_pass(hg, np.zeros(3, dtype=np.int8), *fm_bounds(hg, 0.5, 0.05))


def partition_kernel_args(kernel, hg=None):
    """Valid arguments for the core's ``hc_matching`` or ``grow_region``, as
    ``_heavy_connectivity_matching`` and ``_grow_region`` build them (a
    weight cap every pair of the chain's vertices stays under)."""
    hg = chain_hypergraph(6) if hg is None else hg
    n = hg.n_vertices
    csr = [hg.xpins, hg.pins, hg.xnets, hg.vnets]
    if kernel == "hc_matching":
        shares = hg.net_weights / np.maximum(hg.net_sizes - 1, 1)
        order = np.arange(n)[::-1].copy()
        return [hg.vertex_weights, shares, *csr, order, np.full(n, -1), 2.0, _MAX_NET_MATCH]
    return [hg.vertex_weights, hg.net_weights, *csr, np.ones(n, dtype=np.int8), 2, 0.0, 4.0]


#: The arguments each partitioner kernel names, in order.
PARTITION_KERNEL_FIELDS = {
    "hc_matching": [
        "vertex_weights", "shares", "xpins", "pins", "xnets", "vnets", "order", "match",
        "weight_cap", "max_net",
    ],
    "grow_region": [
        "vertex_weights", "net_weights", "xpins", "pins", "xnets", "vnets", "side", "start",
        "w0", "target0",
    ],
}


def at(i, value):
    """The array with entry ``i`` replaced by ``value``."""
    def bad(a):
        a = a.copy()
        a[i] = value
        return a

    return bad


_PARTITION_MALFORMED = [
    ("pins", at(0, 6), ValueError),
    ("pins", at(3, -1), ValueError),
    ("pins", lambda a: a.astype(np.int32), TypeError),
    ("pins", lambda a: a.reshape(-1, 2), TypeError),
    ("vnets", at(2, 5), ValueError),
    ("xpins", at(2, 1), ValueError),
    ("xpins", lambda a: a + 1, ValueError),
    ("xnets", lambda a: a[::-1].copy(), ValueError),
    ("xnets", lambda a: a[:-1].copy(), ValueError),
    ("vertex_weights", lambda a: a[::2], (TypeError, ValueError)),
    ("vertex_weights", at(1, np.inf), ValueError),
    ("shares", at(1, np.nan), ValueError),
    ("net_weights", at(1, np.nan), ValueError),
    ("net_weights", at(1, -1.0), ValueError),  # a score could fall
    ("order", at(0, 1), ValueError),
    ("order", at(5, 6), ValueError),
    ("order", lambda a: a[:-1].copy(), ValueError),
    ("match", lambda a: a[:-1].copy(), ValueError),
    ("match", lambda a: np.broadcast_to(a, a.shape), ValueError),
    ("match", lambda a: a.astype(np.float64), TypeError),
    ("side", at(4, 2), ValueError),
    ("side", at(2, 0), ValueError),  # the start is already absorbed
    ("side", lambda a: a[:-1].copy(), ValueError),
    ("side", lambda a: np.broadcast_to(a, a.shape), ValueError),
    ("start", lambda start: 6, ValueError),
    ("start", lambda start: -1, ValueError),
]


def partition_malformed_cases():
    """(kernel, field, bad, error) for every kernel that takes the field."""
    for field, bad, error in _PARTITION_MALFORMED:
        for kernel, fields in PARTITION_KERNEL_FIELDS.items():
            if field in fields:
                yield kernel, field, bad, error


@requires_core
class TestCompiledPartitionKernels:
    """The core's ``hc_matching`` and ``grow_region`` refuse what they cannot
    use and hold nothing after a call (the oracles above hold their
    answers to the Python bodies)."""

    @pytest.mark.parametrize("kernel, field, bad, error", list(partition_malformed_cases()))
    def test_rejects_malformed_input(self, kernel, field, bad, error):
        args = partition_kernel_args(kernel)
        i = PARTITION_KERNEL_FIELDS[kernel].index(field)
        args[i] = bad(args[i])
        before = [a.tobytes() for a in args if isinstance(a, np.ndarray)]
        with pytest.raises(error):
            getattr(sched._load_engine_core(), kernel)(*args)
        # Refused before anything was written.
        assert [a.tobytes() for a in args if isinstance(a, np.ndarray)] == before

    def test_bad_trusted_graph_raises_instead_of_crashing(self):
        # ``from_csr`` skips validation: a pin past the last vertex and
        # offsets past the pin array reach both callers unchecked.
        for xpins, pins in (([0, 2, 4], [0, 1, 1, 9]), ([0, 2, 9], [0, 1, 1, 2])):
            hg = Hypergraph.from_csr(np.ones(3), np.array(xpins), np.array(pins), np.ones(2))
            with engine_mode("compiled"):
                with pytest.raises(ValueError):
                    _heavy_connectivity_matching(hg, np.random.default_rng(0))
                with pytest.raises(ValueError):
                    _grow_region(hg, 2.0, np.random.default_rng(0))

    @pytest.mark.parametrize("kernel", sorted(PARTITION_KERNEL_FIELDS))
    def test_releases_its_buffers(self, kernel):
        core = sched._load_engine_core()
        args = partition_kernel_args(kernel)
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        before = [sys.getrefcount(a) for a in arrays]
        getattr(core, kernel)(*args)
        assert [sys.getrefcount(a) for a in arrays] == before
        # The same after an error raised with every buffer acquired.
        args[0] = at(0, np.nan)(args[0])
        with pytest.raises(ValueError):
            getattr(core, kernel)(*args)
        assert [sys.getrefcount(a) for a in arrays][1:] == before[1:]
        for a in arrays[1:]:
            a.resize(a.size + 1, refcheck=False)  # refused while an export is held

    def test_grow_region_returns_at_the_target_or_an_empty_frontier(self):
        core = sched._load_engine_core()
        # Two chains of three: from vertex 1 the region takes 1, then 0 and
        # 2 by id, and stops when the frontier runs out short of 4.0.
        hg = Hypergraph(
            np.ones(6), [np.array([0, 1]), np.array([1, 2]), np.array([3, 4]), np.array([4, 5])],
            np.ones(4),
        )
        args = partition_kernel_args("grow_region", hg)
        args[7] = 1
        assert core.grow_region(*args) == 3.0
        assert args[6].tolist() == [0, 0, 0, 1, 1, 1]
        # Called again from a new seed, it carries w0 on and stops at 4.0.
        args[7], args[8] = 5, 3.0
        assert core.grow_region(*args) == 4.0
        assert args[6].tolist() == [0, 0, 0, 1, 1, 0]

    def test_compiled_partition_builds_no_list_views(self, monkeypatch):
        """No level below the input hypergraph builds ``nets``,
        ``vertex_nets()`` or ``_pin_views``: the kernels read the CSRs."""
        from repro.balance import partition

        levels = []

        def recording(fn):
            def wrapper(*args):
                out = fn(*args)
                levels.append(out[0] if isinstance(out, tuple) else out)
                return out

            return wrapper

        def no_views(*args):
            raise AssertionError("_pin_views called")

        monkeypatch.setattr(partition, "_contract", recording(partition._contract))
        monkeypatch.setattr(partition, "_induce", recording(partition._induce))
        monkeypatch.setattr(partition, "_pin_views", no_views)
        hg = fock_hypergraph(synthetic_task_graph(600, 12, seed=7, skew=1.0))
        with engine_mode("compiled"):
            partition_hypergraph(hg, 8, seed=1)
        assert sum(level.n_vertices > _COARSEN_TARGET for level in levels) >= 4
        assert all(level._nets is None and level._vertex_nets is None for level in levels)


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
        # The kernels' scratch comes from PyMem_*, so tracemalloc sees it.
        for mode in AVAILABLE_MODES:
            rng = np.random.default_rng(1)
            with engine_mode(mode):
                tracemalloc.start()
                try:
                    _heavy_connectivity_matching(hg, rng)
                    _initial_bisection(hg, 0.5, rng)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert peak < 4 * hg.pins.nbytes, (mode, peak, hg.pins.nbytes)

    @requires_core
    def test_compiled_fm_pass_stays_linear_in_pins(self):
        """The kernel's scratch (``PyMem_*``, so traced) is O(pins) on the
        same dense shape, where the gain updates of one pass touch every
        vertex many times over."""
        n = 320
        residue = np.arange(n) % 10
        nets = [np.flatnonzero((residue - e) % 10 < 4) for e in range(10)]
        hg = Hypergraph(np.linspace(0.5, 1.5, n), nets, np.linspace(1.0, 2.0, 10))
        hg.xnets, hg.vnets  # the hypergraph's own cached views
        side = (np.arange(n) % 2).astype(np.int8)
        with engine_mode("compiled"):
            tracemalloc.start()
            try:
                _fm_pass(hg, side, *fm_bounds(hg, 0.5, 0.05))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 4 * hg.pins.nbytes, (peak, hg.pins.nbytes)

    @requires_core
    def test_compiled_fm_pass_out_of_memory_is_a_memory_error(self):
        """Failing each allocation in turn never crashes: the call raises
        MemoryError or returns the unfailed result. Run in a child, so a
        crash fails this test instead of the test session."""
        pytest.importorskip("_testcapi")
        script = textwrap.dedent(
            """
            import gc
            import numpy as np
            import _testcapi
            from repro.balance import Hypergraph
            from repro.simulate import sched

            n = 60
            nets = [np.arange(i, i + 4) % n for i in range(0, n, 2)]
            hg = Hypergraph(np.linspace(0.5, 1.5, n), nets, np.ones(len(nets)))
            side = (np.arange(n) % 2).astype(np.int8)
            total = hg.total_vertex_weight
            w0 = float(hg.vertex_weights[side == 0].sum())
            core = sched._load_engine_core()
            arrays = (hg.vertex_weights, hg.net_weights, hg.xpins, hg.pins,
                      hg.xnets, hg.vnets)
            bounds = (w0, 0.45 * total, 0.55 * total, 0.5 * total)
            out = side.copy()
            expected = (core.fm_pass(*arrays, out, *bounds), out.tobytes())
            failed = 0
            gc.disable()
            for k in range(200):
                out = side.copy()
                _testcapi.set_nomemory(k, k + 1)
                try:
                    result = core.fm_pass(*arrays, out, *bounds)
                except MemoryError:
                    failed += 1
                    continue
                finally:
                    _testcapi.remove_mem_hooks()
                assert (result, out.tobytes()) == expected, k
            assert failed >= 10, failed
            print("ok", failed)
            """
        )
        env = dict(os.environ, REPRO_ENGINE="compiled", REPRO_ENGINE_REQUIRE="1")
        src = os.path.dirname(os.path.dirname(os.path.dirname(sched.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.startswith("ok")

    @requires_core
    def test_compiled_matching_and_growth_out_of_memory_is_a_memory_error(self):
        """``hc_matching`` and ``grow_region`` under each allocation failed in
        turn: MemoryError with the output array as it was, or the unfailed
        result. Run in a child, so a crash fails this test instead of the
        test session."""
        pytest.importorskip("_testcapi")
        script = textwrap.dedent(
            """
            import gc
            import numpy as np
            import _testcapi
            from repro.balance import Hypergraph
            from repro.simulate import sched

            n = 60
            nets = [np.arange(i, i + 4) % n for i in range(0, n, 2)]
            hg = Hypergraph(np.linspace(0.5, 1.5, n), nets, np.ones(len(nets)))
            csr = (hg.xpins, hg.pins, hg.xnets, hg.vnets)
            shares = hg.net_weights / np.maximum(hg.net_sizes - 1, 1)
            order = np.random.default_rng(2).permutation(n)
            core = sched._load_engine_core()

            def fresh(kernel):
                if kernel == "hc_matching":
                    return (hg.vertex_weights, shares, *csr, order, np.full(n, -1), 4.0, 64)
                return (hg.vertex_weights, hg.net_weights, *csr, np.ones(n, dtype=np.int8),
                        7, 0.0, 0.5 * hg.total_vertex_weight)

            def state(result, args):
                return result, [a.tobytes() for a in args if isinstance(a, np.ndarray)]

            gc.disable()
            for kernel in ("hc_matching", "grow_region"):
                args = fresh(kernel)
                expected = state(getattr(core, kernel)(*args), args)
                untouched = state(None, fresh(kernel))
                failed = 0
                for k in range(200):
                    args = fresh(kernel)
                    _testcapi.set_nomemory(k, k + 1)
                    try:
                        result = getattr(core, kernel)(*args)
                    except MemoryError:
                        failed += 1
                        assert state(None, args) == untouched, (kernel, k)
                        continue
                    finally:
                        _testcapi.remove_mem_hooks()
                    assert state(result, args) == expected, (kernel, k)
                assert failed >= 3, (kernel, failed)
            print("ok")
            """
        )
        env = dict(os.environ, REPRO_ENGINE="compiled", REPRO_ENGINE_REQUIRE="1")
        src = os.path.dirname(os.path.dirname(os.path.dirname(sched.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.startswith("ok")
