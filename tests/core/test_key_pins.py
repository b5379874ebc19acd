"""Literal key bytes: ``fingerprint`` and the keys built on it must not drift.

Every hex value below was computed before ``_canonical`` gained its
exact-type tests and must stay what it is, so no cell key, artifact key
or ``content_key`` a populated cache holds moves. The encoding reads
``dtype.str`` and ``tobytes()``, so CI runs this file on the oldest
supported NumPy as well.

The basis-derived pins also hash the floats the basis holds (coordinates
from ``water_cluster``, coefficients from the contraction normalisation),
and those come out of NumPy's transcendental kernels, whose last bit may
differ on another CPU. Each such pin therefore names the digest of its
float inputs too and is skipped, not failed, where those inputs differ:
the encoder itself is then still pinned by the machine and mixed-value
cases, which contain no computed float.
"""

import enum
import hashlib
import typing

import numpy as np
import pytest

from repro.chemistry.basis import build_basis
from repro.chemistry.basis_sets import build_basis_sto3g
from repro.chemistry.molecules import water_cluster
from repro.core.artifacts import artifact_key, use_store
from repro.core.cache import fingerprint
from repro.core.jobspec import SourceSpec
from repro.simulate import commodity_cluster


class Pair(typing.NamedTuple):
    a: int
    b: float


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


def mixed_values():
    """One of every encodable kind, subclasses included."""
    return (
        None, True, False, 0, -3, 2**70, np.int64(5), np.int32(-2),
        np.float64(0.1), np.float32(0.1), -0.0, 1.5, "s", b"raw",
        {3, 1, 2}, frozenset({"x"}), {"b": [1, 2.0], "a": (None,)}, len,
        Pair(1, 2.5), Level.HIGH,
        np.arange(6, dtype=np.int32).reshape(2, 3),  # C-contiguous
        np.zeros((3, 2)).T,  # Fortran order: hashed as its C copy
        np.float64(2.0) * np.ones(()),  # 0-d: encoded with shape (1,)
        [[], ()],
    )


def float_inputs(basis):
    """sha256 of the computed floats a basis fingerprint hashes."""
    parts = [basis.molecule.coords]
    parts += [a for sh in basis.shells for a in (sh.exponents, sh.coefficients)]
    return hashlib.sha256(
        b"".join(np.ascontiguousarray(p).tobytes() for p in parts)
    ).hexdigest()


def require_inputs(basis, digest):
    if float_inputs(basis) != digest:
        pytest.skip("this NumPy rounds the basis arithmetic differently here")


class TestPinnedKeys:
    def test_s_only_basis(self):
        basis = build_basis(water_cluster(2, seed=0))
        require_inputs(basis, "47c868d6419313347153442c22e3b1fa688735a9f0098a858c5912e058cfac12")
        assert fingerprint(basis) == (
            "0f698b11cd5a5914625315adeb12683a3bfe8792980a2d5aa3e94695935f7e32"
        )

    def test_sto3g_basis(self):
        basis = build_basis_sto3g(water_cluster(2, seed=0))
        require_inputs(basis, "1b822b3c32fb62f5022629f7fb2b2edc1c877171c1bf881e91076174782f0db5")
        assert fingerprint(basis) == (
            "b4dc88b77de67ae6d799137ca16f1ad7a65d15d9b2bc8a0c9ea59698a60c29d7"
        )

    def test_machine(self):
        assert fingerprint(commodity_cluster(16)) == (
            "46277e4b486ab147880b449f729146d08cec02d94956053fbb3449ecedd965fd"
        )

    def test_mixed_container(self):
        assert fingerprint(mixed_values()) == (
            "f47ae15e3c34fc858dfd350accb1d5336e19c4cdcd4046999266f7c9396bfb32"
        )

    def test_schwarz_q_key_of_the_job_source(self):
        with use_store(None):
            problem = SourceSpec(molecule="water", size=4, block_size=6, seed=0).build()
        require_inputs(
            problem.basis, "e9cc7f71b623caa82e910793e34a747a0fa159e2d39ab1509857706a68a9c707"
        )
        assert artifact_key("schwarz_q", problem.screen.content_key) == (
            "51174089dee62c4c2e93d81ae933a155c850ec0fe1511b46101ea179c13a817b"
        )


class TestSubclassesEncodeAsTheirBase:
    @pytest.mark.parametrize(
        "value, base",
        [
            (Level.HIGH, 7),
            (np.int64(7), 7),
            (np.float32(0.5), 0.5),
            (np.float64(0.1), 0.1),
            (Pair(1, 2.5), (1, 2.5)),
            (Pair(1, 2.5), [1, 2.5]),
        ],
    )
    def test_same_key(self, value, base):
        assert fingerprint(value) == fingerprint(base)

    def test_kinds_stay_apart(self):
        assert len({fingerprint(v) for v in (1, 1.0, True, "1", b"1", (1,), {1})}) == 7
        assert fingerprint(-0.0) != fingerprint(0.0)


class TestNotEncodable:
    class Plain:
        factor = 0.5

    # repr() of a bare object() carries its address, which moves from run to
    # run; those two cases get fixed ids so the test names stay the same.
    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(object(), id="<object object at 0x7f4b606cf780>"),
            Plain(),
            np.True_,
            1j,
            pytest.param(
                (1, [object()]), id="(1, [<object object at 0x7f4b606cddb0>])"
            ),
        ],
        ids=repr,
    )
    def test_type_error(self, value):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(value)

    def test_too_deep(self):
        nested: list = []
        for _ in range(40):
            nested = [nested]
        with pytest.raises(ValueError, match="too deep"):
            fingerprint(nested)
