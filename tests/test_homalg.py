import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import cofactor_det, gcd_of_minors, homology_pair
from ttsupport.homalg import (
    ChainMap,
    IntMatrix,
    PerfectComplex,
    cone,
    direct_sum,
    homology,
    scalar_cone,
    shift,
    smith_factors,
    snf,
    tensor_chain,
    unit_complex,
)
from ttsupport.modcalc import Cyclic, GradedModule
from ttsupport import homalg
from ttsupport.randgen import _primary_parts, random_chain_map, random_complex
from ttsupport.znum import PrimeSet

Z = Cyclic.free(PrimeSet.none())


def mult_complex(n, lo=0):
    """Z --n--> Z in degrees lo, lo+1."""
    return PerfectComplex.of({lo: 1, lo + 1: 1}, {lo: [[n]]})


class TestSNF:
    def test_identity(self):
        res = snf(IntMatrix.identity(2))
        assert res.d == IntMatrix.identity(2)
        assert res.invariant_factors == (1, 1)

    def test_known_factors(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        res = snf(IntMatrix.of([[2, 4], [6, 8]]))
        assert res.invariant_factors == (2, 4)

    def test_zero_matrix(self):
        assert snf(IntMatrix.of([[0]])).invariant_factors == ()

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            res = snf(IntMatrix.zeros(r, c))
            assert res.invariant_factors == ()
            assert res.u.mul(IntMatrix.zeros(r, c)).mul(res.v) == res.d

    def test_randomised_against_minors(self):
        rng = random.Random(20240811)
        for _ in range(500):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = IntMatrix.of([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
            res = snf(m)
            assert res.u.mul(m).mul(res.v) == res.d
            assert abs(cofactor_det(res.u)) == 1
            assert abs(cofactor_det(res.v)) == 1
            f = res.invariant_factors
            for i in range(len(f) - 1):
                assert f[i + 1] % f[i] == 0
            gcds = gcd_of_minors(m)
            prod = 1
            for i, d in enumerate(f):
                prod *= d
                assert prod == gcds[i]
            assert all(g == 0 for g in gcds[len(f):])
            assert smith_factors(m) == f

    def test_six_by_six(self):
        rng = random.Random(99)
        for _ in range(25):
            m = IntMatrix.of([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
            res = snf(m)
            assert res.u.mul(m).mul(res.v) == res.d
            f = res.invariant_factors
            for i in range(len(f) - 1):
                assert f[i + 1] % f[i] == 0

    def test_big_entries_exact(self):
        big = 10**40
        res = snf(IntMatrix.of([[big, 1], [0, big]]))
        assert res.invariant_factors == (1, big * big)


class TestComplexValidation:
    def test_d_squared_enforced(self):
        with pytest.raises(ValueError, match="d twice"):
            PerfectComplex.of({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})

    def test_shape_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            PerfectComplex.of({0: 2, 1: 1}, {0: [[1]]})

    def test_zero_ranks_trimmed(self):
        c = PerfectComplex.of({0: 1, 5: 0})
        assert c.degrees() == [0]

    def test_json_roundtrip(self):
        c = tensor_chain(mult_complex(2), mult_complex(6, -1))
        assert PerfectComplex.from_json(c.to_json()) == c
        with pytest.raises(ValueError, match="differentials"):
            PerfectComplex.from_json({"ranks": {"0": 1, "1": 1}, "differentials": {"0": [[1, 2]]}})


class TestHomology:
    def test_mult_two(self):
        assert homology(mult_complex(2)) == GradedModule.of({1: [Cyclic.torsion(2, 1)]})

    def test_unit(self):
        assert homology(unit_complex()) == GradedModule.of({0: [Z]})

    def test_isomorphism_is_acyclic(self):
        assert homology(mult_complex(1)).is_zero()

    def test_primary_decomposition(self):
        assert homology(scalar_cone(12)) == GradedModule.of(
            {0: [Cyclic.torsion(2, 2), Cyclic.torsion(3, 1)]}
        )

    def test_torsion_factorisations_are_memoised(self, monkeypatch):
        calls = []
        real = homalg.factorint

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(homalg, "factorint", counting)
        homalg._torsion_cyclics.cache_clear()
        for _ in range(3):
            assert homology(scalar_cone(360)) == GradedModule.of(
                {0: [Cyclic.torsion(2, 3), Cyclic.torsion(3, 2), Cyclic.torsion(5, 1)]}
            )
        assert calls == [360]
        cached = homalg._torsion_cyclics(360)
        assert isinstance(cached, tuple)  # callers cannot change the memo
        assert homalg._torsion_cyclics.cache_info().maxsize is not None
        for n in range(2, 300):
            assert homalg._torsion_cyclics(n) == tuple(_primary_parts(n))

    def test_against_kernel_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            c, _ = random_complex(rng)
            h = homology(c)
            for n in c.degrees():
                free, torsion = homology_pair(c, n)
                mod = h.module_in(n)
                got_free = sum(m for cy, m in mod.parts if cy.kind == "free")
                got_torsion = sorted(
                    cy.p**cy.k for cy, m in mod.parts for _ in range(m) if cy.kind == "torsion"
                )
                # primary pieces of each invariant factor, multiset-compared
                want = sorted(
                    q
                    for f in torsion
                    for q in _primary_powers(f)
                )
                assert free == got_free
                assert got_torsion == want

    def test_against_construction(self):
        rng = random.Random(8)
        for _ in range(120):
            c, expected = random_complex(rng)
            assert homology(c) == expected


def _primary_powers(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


class TestShift:
    def test_double_shift_identity(self):
        c = tensor_chain(mult_complex(2), mult_complex(3, -1))
        assert shift(shift(c, 1), -1) == c

    def test_homology_reindex(self):
        c = mult_complex(6)
        for k in (-2, 1, 3):
            assert homology(shift(c, k)) == homology(c).shift(k)

    def test_shifted_unit(self):
        assert homology(shift(unit_complex(), 3)) == GradedModule.of({-3: [Z]})

    @given(st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_shift_law_random(self, k, seed):
        c, _ = random_complex(random.Random(seed))
        assert homology(shift(c, k)) == homology(c).shift(k)


class TestTensor:
    def test_unit_law_up_to_homology(self):
        c = tensor_chain(mult_complex(4), mult_complex(9, 1))
        assert homology(tensor_chain(unit_complex(), c)) == homology(c)
        assert homology(tensor_chain(c, unit_complex())) == homology(c)

    def test_coprime_torsion_vanishes(self):
        t = tensor_chain(mult_complex(2), mult_complex(3))
        assert homology(t).is_zero()

    def test_two_torsion_square(self):
        t = tensor_chain(mult_complex(2), mult_complex(2))
        assert homology(t) == GradedModule.of(
            {1: [Cyclic.torsion(2, 1)], 2: [Cyclic.torsion(2, 1)]}
        )

    def test_graded_commutative(self):
        rng = random.Random(11)
        for _ in range(40):
            a, _ = random_complex(rng, max_cells=3)
            b, _ = random_complex(rng, max_cells=3)
            assert homology(tensor_chain(a, b)) == homology(tensor_chain(b, a))

    def test_zero_factor(self):
        assert tensor_chain(PerfectComplex.of({}), mult_complex(2)).is_zero()


class TestCone:
    def test_cone_of_identity_acyclic(self):
        u = unit_complex()
        f = ChainMap.of(u, u, {0: [[1]]})
        assert homology(cone(f)).is_zero()

    def test_cone_of_scalar(self):
        for n in (2, 3, 10):
            assert homology(scalar_cone(n)) == homology(shift(mult_complex(n), 1))

    def test_cone_of_zero_map(self):
        u = unit_complex()
        f = ChainMap.of(u, u, {})
        assert homology(cone(f)) == GradedModule.of({-1: [Z], 0: [Z]})

    def test_rejects_non_chain_map_with_degree(self):
        a = mult_complex(2)
        b = mult_complex(4)
        with pytest.raises(ValueError, match="degree 0"):
            ChainMap.of(a, b, {0: [[1]], 1: [[1]]})

    def test_random_cones_are_complexes(self):
        rng = random.Random(13)
        for _ in range(40):
            a, _ = random_complex(rng, max_cells=3)
            b, _ = random_complex(rng, max_cells=3)
            f = random_chain_map(rng, a, b)
            cone(f)  # construction validates d twice = 0

    def test_direct_sum_homology(self):
        a, b = mult_complex(4), shift(unit_complex(), 1)
        assert homology(direct_sum(a, b)) == homology(a).plus(homology(b))
