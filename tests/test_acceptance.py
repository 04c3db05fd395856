"""Acceptance suite: one test per criterion, each printing a pass line.

Everything is exact arithmetic; the only tolerances are the stated wall
clock budgets.
"""

import random
import time
from itertools import combinations

from oracles import cofactor_det, gcd_of_minors
from ttsupport.balmer import (
    gamma_point,
    gamma_v,
    l_v,
    point_to_prime,
    prime_to_point,
    residue_check,
    residue_field,
    sigma_loc,
    sigma_of_tau,
    supp_object,
    tau_loc,
    thick_membership,
)
from ttsupport.homalg import (
    IntMatrix,
    cone,
    direct_sum,
    homology,
    scalar_cone,
    shift,
    snf,
    tensor_chain,
    unit_complex,
)
from ttsupport.modcalc import Cyclic, GradedModule, kunneth
from ttsupport.randgen import (
    compact_catalogue,
    random_chain_map,
    random_complex,
    random_engineered_graded,
    random_graded,
    random_spcl,
)
from ttsupport.supportdata import (
    check_axioms,
    classify,
    enumerate_ideals,
    enumerate_primes,
    five_object_model,
    random_subset_catalogue,
    spc_support,
    thomason_lattice,
    universal_map,
)
from ttsupport.znum import GENERIC, PointSet, PrimeSet, SpclSubset, SpecZPoint, primes_up_to

FIRST_TEN = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def announce(number, text):
    print(f"acceptance {number}: PASS ({text})")


def test_criterion_1_support_axiom_suite():
    started = time.monotonic()
    rng = random.Random(101)
    pool = []
    for _ in range(500):
        c, _ = random_complex(rng)
        pool.append(c)
    # (a) unit and zero
    assert supp_object(homology(unit_complex())).is_everything()
    assert supp_object(homology(shift(unit_complex(), 2))).is_everything()
    from ttsupport.homalg import PerfectComplex

    assert supp_object(homology(PerfectComplex.of({}))).is_empty()
    for i, c in enumerate(pool):
        other = pool[(i + 1) % len(pool)]
        sc, so = supp_object(homology(c)), supp_object(homology(other))
        # (b) finite sums
        assert supp_object(homology(direct_sum(c, other))) == sc.union(so)
        # (c) shift invariance
        assert supp_object(homology(shift(c, 1))) == sc
    for i in range(0, 250, 1):
        a, b = pool[2 * i], pool[2 * i + 1]
        # (e) tensor, with equality for compacts
        got = supp_object(homology(tensor_chain(a, b)))
        assert got == supp_object(homology(a)).intersect(supp_object(homology(b)))
    for _ in range(120):
        f, *_ = random_chain_map(rng)
        # (d) triangle subadditivity, on the rotations of a -> b -> cone f
        sa, sb = supp_object(homology(f.src)), supp_object(homology(f.dst))
        sc = supp_object(homology(cone(f)))
        assert sb.leq(sa.union(sc))
        assert sc.leq(sa.union(sb))
    elapsed = time.monotonic() - started
    assert elapsed < 30
    announce(1, f"500 complexes, axioms (a)-(e), {elapsed:.1f}s")


def test_criterion_2_kunneth_vs_chain():
    rng = random.Random(102)
    for _ in range(500):
        a, _ = random_complex(rng, max_cells=3)
        b, _ = random_complex(rng, max_cells=3)
        assert homology(tensor_chain(a, b)) == kunneth(homology(a), homology(b))
    announce(2, "500 random pairs, exact equality")


def test_criterion_3_idempotent_laws():
    family = [SpclSubset.whole_space(), SpclSubset.empty()]
    for r in range(len(FIRST_TEN) + 1):
        for combo in combinations(FIRST_TEN, r):
            family.append(SpclSubset.closed_points(PrimeSet.of(combo)))
            family.append(SpclSubset.closed_points(PrimeSet.cofinite(combo)))
    for v in family:
        g, l = gamma_v(v), l_v(v)
        assert kunneth(g, g) == g
        assert kunneth(l, l) == l
        assert kunneth(g, l).is_zero()
    announce(3, f"{len(family)} subsets, exhaustive")


def test_criterion_4_closed_forms():
    for p in (2, 3, 5, 7):
        v = SpclSubset.closed_points(PrimeSet.of([p]))
        got = gamma_v(v)
        # two-term complex Z -> Z[1/p]: no kernel, cokernel is the rising
        # union of the cokernels of multiplication by p^k
        assert got.module_in(0).is_zero()
        for k in range(1, 9):
            # the k-th truncation cone(Z --p^k--> Z), read through homology
            assert homology(scalar_cone(p**k)) == GradedModule.of({0: [Cyclic.torsion(p, k)]})
        assert got == GradedModule.of({1: [Cyclic.prufer(PrimeSet.of([p]))]})
    import math

    for excluded in ((), (3,), (2, 7)):
        s = PrimeSet.cofinite(excluded)
        got = gamma_v(SpclSubset.closed_points(s))
        fam = got.module_in(1)
        for q in primes_up_to(100):
            in_family = any(c.kind == "prufer" and c.primes.contains(q) for c, _ in fam.parts)
            # per-prime truncation: members contribute a rising tower of
            # cokernels Z/q^k, excluded primes stay invertible at every stage
            if s.contains(q):
                for k in (1, 2, 3, 4):
                    h = homology(scalar_cone(q**k))
                    assert h == GradedModule.of({0: [Cyclic.torsion(q, k)]})
            else:
                assert all(math.gcd(q, p) == 1 for p in s.up_to(100) if p != q)
            assert in_family == s.contains(q)
    announce(4, "Koszul towers at 2,3,5,7; cofinite per-prime truncation to 100")


def test_criterion_5_zero_detection():
    rng = random.Random(105)
    zeros = 0
    for _ in range(500):
        x = random_engineered_graded(rng)
        zeros += x.is_zero()
        assert x.is_zero() == supp_object(x).is_empty()
    assert zeros > 50  # the engineered cases really do collapse
    announce(5, f"500 objects, {zeros} of them zero")


def test_criterion_6_separation_axiom():
    rng = random.Random(106)
    for _ in range(200):
        v = random_spcl(rng)
        x = random_graded(rng)
        sx = supp_object(x)
        assert supp_object(kunneth(gamma_v(v), x)) == sx.intersect(v.point_set())
        assert supp_object(kunneth(l_v(v), x)) == sx.intersect(v.complement())
    announce(6, "200 random (V, X) pairs, exact")


def test_criterion_7_sigma_tau_roundtrips():
    first6 = FIRST_TEN[:6]
    count = 0
    for generic in (False, True):
        for r in range(len(first6) + 1):
            for combo in combinations(first6, r):
                for finite in (True, False):
                    w = PointSet(generic, PrimeSet.of(combo, finite=finite))
                    assert sigma_of_tau(w) == w
                    count += 1
    rng = random.Random(107)
    catalogue = compact_catalogue()
    for _ in range(25):
        gens = rng.sample(catalogue, rng.randint(1, 4))
        code = sigma_loc([homology(g) for g in gens])
        for y in catalogue:
            inside = supp_object(homology(y)).leq(code)
            assert thick_membership(y, gens) == inside
            assert tau_loc(code, homology(y)) == inside
    for x in [SpecZPoint.closed(p) for p in (2, 3, 5, 7)] + [GENERIC]:
        assert prime_to_point(point_to_prime(x).defining) == x
    announce(7, f"{count} subsets, 20-object membership probes, dictionary identity")


def test_criterion_8_residue_field_lemma():
    rng = random.Random(108)
    points = [SpecZPoint.closed(2), SpecZPoint.closed(3), GENERIC]
    concentrated = 0
    for i in range(200):
        x = points[i % 3]
        if rng.random() < 0.5:
            obj = kunneth(gamma_point(x), random_graded(rng))
        else:
            obj = random_graded(rng)
        assert residue_check(x, obj).passed
        if not obj.is_zero() and supp_object(obj).leq(PointSet.singleton(x)):
            concentrated += 1
            assert not kunneth(residue_field(x), obj).is_zero()
    assert concentrated > 20
    announce(8, f"200 objects, {concentrated} concentrated nonzero cases detected")


def test_criterion_9_finite_model_spectrum():
    started = time.monotonic()
    cat = five_object_model()
    primes = enumerate_primes(cat)
    assert len(primes) == 2
    datum = spc_support(cat)
    assert check_axioms(datum, cat).passed
    result = universal_map(datum, cat)
    assert result.report.passed
    assert all(result.apply(x) == x for x in datum.space.points)
    assert len(enumerate_ideals(cat)) == 4
    assert len(thomason_lattice(datum.space)) == 4
    assert classify(cat).passed
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    rng = random.Random(109)
    cat12 = random_subset_catalogue(rng, 12)
    assert cat12.size == 12
    primes12 = set(enumerate_primes(cat12))
    assert primes12  # the spectrum is never empty when unit != zero
    ideals12 = enumerate_ideals(cat12)
    proper = [i for i in ideals12 if len(i) < cat12.size]
    maximal = [i for i in proper if not any(i < j for j in proper)]
    assert maximal and all(m in primes12 for m in maximal)
    announce(9, f"model5 in {elapsed:.3f}s; 12-object catalogue checks")


def test_criterion_10_snf():
    rng = random.Random(110)
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
    for _ in range(60):
        m = IntMatrix.of([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
        res = snf(m)
        assert res.u.mul(m).mul(res.v) == res.d
        f = res.invariant_factors
        for i in range(len(f) - 1):
            assert f[i + 1] % f[i] == 0
    announce(10, "500 matrices to 4x4 with minors oracle; 60 at 6x6")
