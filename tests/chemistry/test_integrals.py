import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chemistry.basis import build_basis
from repro.chemistry.basis_sets import build_basis_sto3g
from repro.chemistry.integrals import (
    IntegralEngine,
    PairData,
    boys_f0,
    eri_tensor,
    kinetic_matrix,
    nuclear_attraction_matrix,
    overlap_matrix,
)
from repro.chemistry.integrals_general import make_engine
from repro.chemistry.mcmurchie import kinetic_prim, nuclear_prim, overlap_prim
from repro.chemistry.molecules import Molecule, linear_alkane, water_cluster


@pytest.fixture(scope="module")
def water_basis():
    return build_basis(water_cluster(1))


@pytest.fixture(scope="module")
def h2_basis():
    mol = Molecule(("H", "H"), np.array([[0.0, 0, 0], [1.4, 0, 0]]))
    return build_basis(mol)


class TestBoysF0:
    def test_at_zero(self):
        assert boys_f0(0.0) == pytest.approx(1.0)

    def test_large_t_asymptotic(self):
        t = 50.0
        assert boys_f0(t) == pytest.approx(0.5 * np.sqrt(np.pi / t))

    def test_series_matches_closed_form_at_crossover(self):
        # Continuity across the small-t switch at 1e-12.
        below = boys_f0(0.99e-12)
        above = boys_f0(1.01e-12)
        assert abs(below - above) < 1e-12

    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_bounded_in_unit_interval(self, t):
        value = float(boys_f0(t))
        assert 0.0 < value <= 1.0

    def test_monotone_decreasing(self):
        t = np.linspace(0.0, 30.0, 500)
        values = boys_f0(t)
        assert np.all(np.diff(values) <= 0)

    def test_vectorized_matches_scalar(self):
        t = np.array([0.0, 1e-13, 0.5, 3.0])
        np.testing.assert_allclose(boys_f0(t), [float(boys_f0(x)) for x in t])


class TestOneElectron:
    def test_overlap_symmetric_unit_diagonal(self, water_basis):
        s = overlap_matrix(water_basis)
        np.testing.assert_allclose(s, s.T)
        np.testing.assert_allclose(np.diag(s), 1.0)

    def test_overlap_positive_definite(self, water_basis):
        s = overlap_matrix(water_basis)
        assert np.linalg.eigvalsh(s).min() > 0

    def test_overlap_decays_with_distance(self):
        near = Molecule(("H", "H"), np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        far = Molecule(("H", "H"), np.array([[0.0, 0, 0], [6.0, 0, 0]]))
        s_near = overlap_matrix(build_basis(near))
        s_far = overlap_matrix(build_basis(far))
        assert abs(s_far[0, 2]) < abs(s_near[0, 2])

    def test_kinetic_symmetric_positive_diagonal(self, water_basis):
        t = kinetic_matrix(water_basis)
        np.testing.assert_allclose(t, t.T)
        assert np.all(np.diag(t) > 0)

    def test_kinetic_single_primitive_closed_form(self):
        # For a single normalized s primitive, <T> = 3a/2.
        basis = build_basis(
            Molecule(("H",), np.zeros((1, 3))), basis={"H": [[(0.8, 1.0)]]}
        )
        t = kinetic_matrix(basis)
        assert t[0, 0] == pytest.approx(1.5 * 0.8)

    def test_nuclear_attraction_negative_diagonal(self, water_basis):
        v = nuclear_attraction_matrix(water_basis)
        np.testing.assert_allclose(v, v.T)
        assert np.all(np.diag(v) < 0)

    def test_nuclear_single_primitive_closed_form(self):
        # <s|-Z/r|s> for a normalized primitive at its own nucleus (Z=1):
        # -(2*pi/p) * norm^2 * F0(0) with p = 2a, norm^2 = (2a/pi)^{3/2}
        # = -2 * sqrt(2a/pi).
        a = 0.7
        basis = build_basis(
            Molecule(("H",), np.zeros((1, 3))), basis={"H": [[(a, 1.0)]]}
        )
        v = nuclear_attraction_matrix(basis)
        assert v[0, 0] == pytest.approx(-2.0 * np.sqrt(2.0 * a / np.pi))


def contracted_loop(basis, prim_fn):
    """The scalar oracle: contract ``prim_fn`` over primitives, pair by pair."""
    n = basis.n_basis
    out = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            sh_i, sh_j = basis.shells[i], basis.shells[j]
            total = 0.0
            for a, ca in zip(sh_i.exponents, sh_i.coefficients):
                for b, cb in zip(sh_j.exponents, sh_j.coefficients):
                    total += ca * cb * prim_fn(
                        sh_i.powers, sh_j.powers, float(a), float(b),
                        sh_i.center, sh_j.center,
                    )
            out[i, j] = out[j, i] = total
    return out


def nuclear_loop(basis):
    mol = basis.molecule
    out = np.zeros((basis.n_basis, basis.n_basis))
    for z, rc in zip(mol.atomic_numbers, mol.coords):
        out -= z * contracted_loop(
            basis, lambda la, lb, a, b, ra, rb: nuclear_prim(la, lb, a, b, ra, rb, rc)
        )
    return out


@pytest.mark.parametrize(
    "basis",
    [build_basis(water_cluster(2, seed=3)), build_basis_sto3g(water_cluster(1, seed=3))],
    ids=["s-only-water2", "sto3g-water1"],
)
class TestBatchedOneElectronAgainstScalarLoops:
    def check(self, batched, oracle):
        assert np.array_equal(batched, batched.T)
        np.testing.assert_allclose(
            batched, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max()
        )

    def test_overlap(self, basis):
        self.check(overlap_matrix(basis), contracted_loop(basis, overlap_prim))

    def test_kinetic(self, basis):
        self.check(kinetic_matrix(basis), contracted_loop(basis, kinetic_prim))

    def test_nuclear(self, basis):
        self.check(nuclear_attraction_matrix(basis), nuclear_loop(basis))

    def test_nuclear_with_a_shared_engine(self, basis):
        np.testing.assert_array_equal(
            nuclear_attraction_matrix(basis, engine=make_engine(basis)),
            nuclear_attraction_matrix(basis),
        )

    def test_nuclear_chunking_invariance(self, basis, monkeypatch):
        whole = nuclear_attraction_matrix(basis)
        module = "integrals_general" if basis.max_angular_momentum else "integrals"
        monkeypatch.setattr(
            f"repro.chemistry.{module}._NUCLEAR_CHUNK", 7 * basis.molecule.n_atoms
        )
        np.testing.assert_allclose(
            nuclear_attraction_matrix(basis), whole, rtol=1e-13, atol=1e-14
        )


def scalar_pair_data(basis, i, j, prim_cutoff=0.0) -> PairData:
    """One shell pair's table, computed on its own (``pair_data`` as it was
    before tables were built a contraction class at a time): the oracle."""
    sh_i, sh_j = basis.shells[i], basis.shells[j]
    a = sh_i.exponents[:, None]
    b = sh_j.exponents[None, :]
    p = (a + b).ravel()
    mu = (a * b / (a + b)).ravel()
    ab2 = float(((sh_i.center - sh_j.center) ** 2).sum())
    k = (sh_i.coefficients[:, None] * sh_j.coefficients[None, :]).ravel()
    k = k * np.exp(-mu * ab2)
    center = (
        sh_i.exponents[:, None, None] * sh_i.center[None, None, :]
        + sh_j.exponents[None, :, None] * sh_j.center[None, None, :]
    ).reshape(-1, 3) / p[:, None]
    if prim_cutoff > 0.0:
        keep = np.abs(k) >= prim_cutoff
        if not keep.any():
            keep[np.argmax(np.abs(k))] = True
        p, k, center = p[keep], k[keep], center[keep]
    return PairData(p, center, k)


class TestPairTablesAgainstScalar:
    """Class-batched table construction, ``array_equal`` to the scalar one."""

    @staticmethod
    def assert_same(table, expected):
        for name in ("p", "center", "k"):
            assert np.array_equal(getattr(table, name), getattr(expected, name)), name

    @pytest.mark.parametrize("cutoff", [0.0, 1e-6, 1e-2])
    @pytest.mark.parametrize(
        "molecule",
        [water_cluster(3, seed=4), linear_alkane(3)],
        ids=["water3", "propane"],
    )
    def test_batch_and_single_pair_paths(self, molecule, cutoff, monkeypatch):
        import repro.chemistry.integrals as integrals

        basis = build_basis(molecule)
        n = basis.n_basis
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        whole = IntegralEngine(basis, cutoff)
        whole.pair_batch(pairs)
        # 36 entries per 6x6 table: classes cut into chunks of two tables.
        monkeypatch.setattr(integrals, "_TABLE_CHUNK", 80)
        chunked = IntegralEngine(basis, cutoff)
        chunked.pair_batch(pairs[::-1] + [(j, i) for i, j in pairs[:5]])
        single = IntegralEngine(basis, cutoff)
        for i, j in pairs:
            expected = scalar_pair_data(basis, i, j, cutoff)
            self.assert_same(whole.pair_data(i, j), expected)
            self.assert_same(chunked.pair_data(i, j), expected)
            self.assert_same(single.pair_data(j, i), expected)

    def test_batch_is_the_concatenated_tables(self, water_basis):
        engine = IntegralEngine(water_basis)
        pairs = [(4, 6), (1, 0), (2, 2), (1, 0)]
        batch = engine.pair_batch(pairs)
        tables = [scalar_pair_data(water_basis, min(i, j), max(i, j)) for i, j in pairs]
        assert batch.n_pairs == 4
        assert np.array_equal(batch.p, np.concatenate([t.p for t in tables]))
        assert np.array_equal(batch.k, np.concatenate([t.k for t in tables]))
        assert np.array_equal(batch.center, np.vstack([t.center for t in tables]))
        assert np.array_equal(
            batch.seg, np.repeat(np.arange(4), [t.nprim for t in tables])
        )
        assert batch.seg.dtype == np.int64


class TestPairData:
    def test_symmetric_in_shell_order(self, water_basis):
        engine = IntegralEngine(water_basis)
        a = engine.pair_data(0, 3)
        b = engine.pair_data(3, 0)
        assert a is b  # same cached object

    def test_prim_count_is_product(self, water_basis):
        engine = IntegralEngine(water_basis)
        pd = engine.pair_data(0, 1)  # 6-prim and 3-prim shells
        assert pd.nprim == 18

    def test_cutoff_drops_small_products(self):
        mol = Molecule(("H", "H"), np.array([[0.0, 0, 0], [8.0, 0, 0]]))
        basis = build_basis(mol)
        loose = IntegralEngine(basis, prim_cutoff=0.0).pair_data(0, 2)
        tight = IntegralEngine(basis, prim_cutoff=1e-6).pair_data(0, 2)
        assert tight.nprim < loose.nprim

    def test_cutoff_never_empties_table(self):
        mol = Molecule(("H", "H"), np.array([[0.0, 0, 0], [30.0, 0, 0]]))
        basis = build_basis(mol)
        pd = IntegralEngine(basis, prim_cutoff=1e-2).pair_data(0, 2)
        assert pd.nprim >= 1


class TestEri:
    def test_single_primitive_closed_form(self):
        # (ss|ss), all four functions identical primitives at the origin:
        # (aa|aa) = 2^{?}... evaluates to sqrt(2/pi) * ... ; check against
        # the independent formula 2*pi^{5/2}/(p*q*sqrt(p+q)) * norm^4 with
        # p=q=2a, F0(0)=1.
        a = 0.9
        basis = build_basis(
            Molecule(("H",), np.zeros((1, 3))), basis={"H": [[(a, 1.0)]]}
        )
        engine = IntegralEngine(basis)
        pd = engine.pair_data(0, 0)
        val = engine.eri_pair_pair(pd, pd)
        norm = (2.0 * a / np.pi) ** 0.75
        p = 2.0 * a
        expected = 2.0 * np.pi**2.5 / (p * p * np.sqrt(2 * p)) * norm**4
        assert val == pytest.approx(expected)

    def test_tensor_eightfold_symmetry(self, h2_basis):
        g = eri_tensor(h2_basis)
        np.testing.assert_allclose(g, g.transpose(1, 0, 2, 3), atol=1e-14)
        np.testing.assert_allclose(g, g.transpose(0, 1, 3, 2), atol=1e-14)
        np.testing.assert_allclose(g, g.transpose(2, 3, 0, 1), atol=1e-14)

    def test_tensor_entries_match_pairwise(self, h2_basis):
        engine = IntegralEngine(h2_basis)
        g = eri_tensor(h2_basis, engine)
        val = engine.eri_pair_pair(engine.pair_data(0, 1), engine.pair_data(2, 3))
        assert g[0, 1, 2, 3] == pytest.approx(val, rel=1e-12)

    def test_diagonal_non_negative(self, water_basis):
        engine = IntegralEngine(water_basis)
        n = water_basis.n_basis
        for i in range(n):
            for j in range(i, n):
                pd = engine.pair_data(i, j)
                assert engine.eri_pair_pair(pd, pd) >= -1e-14

    def test_batch_matrix_matches_pairwise(self, water_basis):
        engine = IntegralEngine(water_basis)
        pairs = [(0, 1), (2, 3), (4, 6)]
        batch = engine.pair_batch(pairs)
        mat = engine.eri_batch_matrix(batch, batch)
        for a, pa in enumerate(pairs):
            for b, pb in enumerate(pairs):
                expected = engine.eri_pair_pair(
                    engine.pair_data(*pa), engine.pair_data(*pb)
                )
                assert mat[a, b] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_empty_batch(self, water_basis):
        engine = IntegralEngine(water_basis)
        empty = engine.pair_batch([])
        full = engine.pair_batch([(0, 1)])
        assert engine.eri_batch_matrix(empty, full).shape == (0, 1)
        assert engine.eri_batch_matrix(full, empty).shape == (1, 0)

    def test_chunking_invariance(self, water_basis, monkeypatch):
        import repro.chemistry.integrals as integrals

        engine = IntegralEngine(water_basis)
        pairs = [(i, j) for i in range(4) for j in range(4)]
        batch = engine.pair_batch(pairs)
        full = engine.eri_batch_matrix(batch, batch)
        monkeypatch.setattr(integrals, "_ERI_CHUNK", 7)
        chunked = engine.eri_batch_matrix(batch, batch)
        np.testing.assert_allclose(chunked, full, rtol=1e-13)


@pytest.mark.parametrize(
    "basis, chunk_name",
    [
        (build_basis(water_cluster(1, seed=2)), "integrals._ERI_CHUNK"),
        (build_basis_sto3g(water_cluster(1, seed=2)), "integrals_general._CHUNK"),
    ],
    ids=["s-only", "sto3g"],
)
class TestBatchMatrixAgainstPairwise:
    """``eri_batch_matrix`` is a segment sum of the same primitive
    interactions ``eri_pair_pair`` adds one pair at a time."""

    def brute_force(self, engine, bra_pairs, ket_pairs):
        return np.array(
            [
                [
                    engine.eri_pair_pair(engine.pair_data(*bra), engine.pair_data(*ket))
                    for ket in ket_pairs
                ]
                for bra in bra_pairs
            ]
        ).reshape(len(bra_pairs), len(ket_pairs))

    def check(self, engine, bra_pairs, ket_pairs):
        mat = engine.eri_block(bra_pairs, ket_pairs)
        ref = self.brute_force(engine, bra_pairs, ket_pairs)
        assert mat.shape == ref.shape
        if ref.size:
            np.testing.assert_allclose(
                mat, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max()
            )

    def random_pairs(self, rng, n_basis, count):
        return [tuple(int(x) for x in rng.integers(0, n_basis, 2)) for _ in range(count)]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pair_lists(self, basis, chunk_name, seed):
        rng = np.random.default_rng(seed)
        engine = make_engine(basis)
        bra = self.random_pairs(rng, basis.n_basis, int(rng.integers(1, 7)))
        ket = self.random_pairs(rng, basis.n_basis, int(rng.integers(1, 7)))
        self.check(engine, bra, ket)

    def test_empty_and_single_pair_lists(self, basis, chunk_name):
        engine = make_engine(basis)
        self.check(engine, [], [(0, 1)])
        self.check(engine, [(0, 1)], [])
        self.check(engine, [(2, 0)], [(1, 1)])

    def test_pair_straddling_the_chunk_boundary(self, basis, chunk_name, monkeypatch):
        """A bra batch several chunks long, cut inside shell pairs."""
        chunk = 5
        monkeypatch.setattr(f"repro.chemistry.{chunk_name}", chunk)
        engine = make_engine(basis)
        bra = [(0, 0), (0, 1), (1, 2), (3, 0), (2, 2)]
        sizes = [engine.pair_data(*pair).nprim for pair in bra]
        cuts = set(range(chunk, sum(sizes), chunk))
        assert cuts - set(np.cumsum(sizes)), "no pair is cut by a chunk boundary"
        self.check(engine, bra, [(1, 0), (4, 4)])
