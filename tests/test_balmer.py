import random
from itertools import combinations

import pytest

from oracles import naive_supp
from ttsupport import balmer
from ttsupport.balmer import (
    NotPrimeError,
    gamma_point,
    gamma_v,
    l_v,
    localization_triangle_check,
    ltg_check,
    point_to_prime,
    prime_to_point,
    residue_check,
    residue_field,
    sigma_loc,
    sigma_of_tau,
    supp_object,
    tau_is_prime,
    tau_loc,
    thick_membership,
)
from ttsupport.homalg import ChainMap, IntMatrix, cone, homology, scalar_cone, smith_factors, unit_complex
from ttsupport.modcalc import Cyclic, GradedModule, Module, kunneth
from ttsupport.randgen import (
    compact_catalogue,
    random_chain_map,
    random_complex,
    random_engineered_graded,
    random_graded,
    random_spcl,
)
from ttsupport.znum import (
    GENERIC,
    PointSet,
    PrimeSet,
    SpclSubset,
    SpecZPoint,
    primes_up_to,
)

Z = Cyclic.free(PrimeSet.none())
Q = Cyclic.rationals()


def closed(*primes):
    return SpclSubset.closed_points(PrimeSet.of(primes))


def closed_except(*primes):
    return SpclSubset.closed_points(PrimeSet.cofinite(primes))


class TestClosedForms:
    def test_gamma_at_single_prime_vs_koszul_tower(self):
        for p in (2, 3, 5, 7):
            got = gamma_v(closed(p))
            assert got == GradedModule.of({1: [Cyclic.prufer(PrimeSet.of([p]))]})
            # the two-term complex Z -> Z[1/p]: degree 0 kernel vanishes and
            # the cokernel is the rising union of Z/p^k; each stage is the
            # cokernel of multiplication by p^k
            assert got.module_in(0).is_zero()
            for k in range(1, 9):
                assert smith_factors(IntMatrix.of([[p**k]])) == (p**k,)

    def test_localisation_at_p(self):
        got = l_v(closed_except(2))
        assert got == GradedModule.of({0: [Cyclic.free(PrimeSet.cofinite([2]))]})

    def test_extremes(self):
        assert gamma_v(SpclSubset.whole_space()) == GradedModule.unit()
        assert l_v(SpclSubset.whole_space()).is_zero()
        assert gamma_v(SpclSubset.empty()).is_zero()
        assert l_v(SpclSubset.empty()) == GradedModule.unit()

    def test_disjoint_gammas_annihilate(self):
        got = kunneth(gamma_v(closed(2)), gamma_v(closed(3)))
        assert got.is_zero()

    def test_cofinite_gamma_per_prime(self):
        s = PrimeSet.cofinite([2, 5])
        val = gamma_v(SpclSubset.closed_points(s))
        fam = val.module_in(1)
        for q in (2, 3, 5, 7, 11, 97):
            in_family = any(c.kind == "prufer" and c.primes.contains(q) for c, _ in fam.parts)
            assert in_family == s.contains(q)


class TestGammaPoint:
    def test_closed_point(self):
        assert gamma_point(SpecZPoint.closed(2)) == GradedModule.of(
            {1: [Cyclic.prufer(PrimeSet.of([2]))]}
        )

    def test_generic_point(self):
        assert gamma_point(GENERIC) == GradedModule.of({0: [Q]})

    def test_computed_from_factors(self):
        from ttsupport.znum import v_of_point, z_of_point

        for x in [GENERIC, SpecZPoint.closed(3)]:
            direct = gamma_point(x)
            assembled = kunneth(gamma_v(v_of_point(x)), l_v(z_of_point(x)))
            assert direct == assembled

    def test_memoised_matches_formula(self):
        from ttsupport.znum import v_of_point, z_of_point

        points = [GENERIC] + [SpecZPoint.closed(p) for p in primes_up_to(100)]
        gamma_point.cache_clear()
        for _ in range(2):  # the second pass reads the memo
            for x in points:
                formula = kunneth(gamma_v(v_of_point(x)), l_v(z_of_point(x)))
                assert gamma_point(x) == formula
                assert gamma_point(x) == gamma_point.__wrapped__(x)
        assert gamma_point.cache_info().hits >= len(points)

    def test_memo_is_bounded(self):
        maxsize = gamma_point.cache_info().maxsize
        assert maxsize is not None
        for p in primes_up_to(10 * maxsize)[: maxsize + 10]:
            gamma_point(SpecZPoint.closed(p))
        assert gamma_point.cache_info().currsize == maxsize

    def test_idempotency(self):
        for x in [SpecZPoint.closed(2), SpecZPoint.closed(3), SpecZPoint.closed(5), GENERIC]:
            v = gamma_point(x)
            assert kunneth(v, v) == v

    def test_uniqueness_against_alternative_pairs(self):
        for p in (2, 3, 5):
            want = gamma_point(SpecZPoint.closed(p))
            others = [q for q in (2, 3, 5, 7, 11) if q != p][:2]
            pairs = [
                (closed(p), SpclSubset.empty()),
                (closed(p, *others), closed(*others)),
                (closed_except(*others), closed_except(p, *others)),
                (closed_except(), closed_except(p)),
            ]
            for v, w in pairs:
                isolated = v.point_set().intersect(w.point_set().complement())
                assert isolated == PointSet.singleton(SpecZPoint.closed(p))
                assert kunneth(gamma_v(v), l_v(w)) == want
        # the generic point admits exactly one such pair
        got = kunneth(
            gamma_v(SpclSubset.whole_space()), l_v(closed_except())
        )
        assert got == gamma_point(GENERIC)


class TestSupportObject:
    def test_unit(self):
        assert supp_object(GradedModule.unit()).is_everything()

    def test_zero(self):
        assert supp_object(GradedModule.zero()).is_empty()

    def test_mixed_torsion_with_gamma_probes(self):
        x = GradedModule.of({0: [Cyclic.torsion(2, 2), Cyclic.torsion(3, 1)]})
        assert supp_object(x) == PointSet(False, PrimeSet.of([2, 3]))
        for pt, expect in [
            (SpecZPoint.closed(2), True),
            (SpecZPoint.closed(3), True),
            (SpecZPoint.closed(5), False),
            (GENERIC, False),
        ]:
            assert (not kunneth(gamma_point(pt), x).is_zero()) == expect

    def test_agreement_with_homological_support(self):
        from ttsupport.modcalc import supp_mod

        rng = random.Random(29)
        for _ in range(500):
            c, _ = random_complex(rng, max_cells=3)
            h = homology(c)
            union = PointSet.empty()
            for n in h.degrees():
                union = union.union(supp_mod(h.module_in(n)))
            assert supp_object(h) == union

    @pytest.mark.parametrize("draw", [random_graded, random_engineered_graded])
    def test_one_pass_union_matches_fold(self, draw):
        rng = random.Random(37)
        for _ in range(300):
            x = draw(rng)
            assert supp_object(x) == naive_supp(x), x

    def test_separation_axiom(self):
        rng = random.Random(31)
        for _ in range(200):
            v = random_spcl(rng)
            x = random_graded(rng)
            sx = supp_object(x)
            assert supp_object(kunneth(gamma_v(v), x)) == sx.intersect(v.point_set())
            assert supp_object(kunneth(l_v(v), x)) == sx.intersect(v.complement())

    def test_zero_detection(self):
        rng = random.Random(37)
        for _ in range(300):
            x = random_engineered_graded(rng)
            assert x.is_zero() == supp_object(x).is_empty()

    def test_triangle_subadditivity(self):
        rng = random.Random(41)
        for _ in range(60):
            f, *_ = random_chain_map(rng)
            sa, sb = supp_object(homology(f.src)), supp_object(homology(f.dst))
            sc = supp_object(homology(cone(f)))
            assert sc.leq(sa.union(sb))
            assert sb.leq(sa.union(sc))


class TestTriangleCheck:
    def test_single_prime(self):
        assert localization_triangle_check(closed(2)).passed

    def test_whole_space_trivial(self):
        assert localization_triangle_check(SpclSubset.whole_space()).passed

    def test_unit_injects_from_koszul_tower(self, monkeypatch):
        probed = []
        real_homology = balmer.homology

        def spy(c):
            probed.append(c)
            return real_homology(c)

        monkeypatch.setattr(balmer, "homology", spy)
        rep = localization_triangle_check(closed_except(3, 17))
        assert "triangle.unit-injects" in [r.name for r in rep.records]
        assert rep.passed
        # every prime of S up to the probe bound: 2, 5, 7, 11, 13
        assert probed == [scalar_cone(p) for p in (2, 5, 7, 11, 13)]

    def test_unit_injects_fails_on_kernel(self, monkeypatch):
        real_homology = balmer.homology

        def with_kernel(c):
            h = real_homology(c)
            return h.plus(GradedModule.of({-1: [Cyclic.torsion(2, 1)]}))

        monkeypatch.setattr(balmer, "homology", with_kernel)
        rep = localization_triangle_check(closed(2, 3))
        failed = [r.name for r in rep.failures()]
        assert failed == ["triangle.unit-injects"]
        assert "ker(Z --2--> Z) = Z/2" in rep.failures()[0].detail

    def test_all_closed_points_gives_q_mod_z(self):
        v = closed_except()
        rep = localization_triangle_check(v)
        assert rep.passed
        assert gamma_v(v) == GradedModule.of(
            {1: [Cyclic.prufer(PrimeSet.all_primes())]}
        )


class TestLtg:
    def test_six_torsion(self):
        x = GradedModule.of({0: [Cyclic.torsion(2, 1), Cyclic.torsion(3, 1)]})
        assert ltg_check(x).passed
        assert kunneth(gamma_point(SpecZPoint.closed(2)), x) == GradedModule.of(
            {0: [Cyclic.torsion(2, 1)]}
        )
        assert kunneth(gamma_point(SpecZPoint.closed(3)), x) == GradedModule.of(
            {0: [Cyclic.torsion(3, 1)]}
        )
        assert kunneth(gamma_point(SpecZPoint.closed(5)), x).is_zero()
        assert kunneth(gamma_point(GENERIC), x).is_zero()

    def test_zero_object(self):
        assert ltg_check(GradedModule.zero()).passed

    def test_rationals(self):
        x = GradedModule.of({0: [Q]})
        assert supp_object(x) == PointSet.singleton(GENERIC)
        assert kunneth(gamma_point(GENERIC), x) == x
        assert ltg_check(x).passed

    def test_random(self):
        rng = random.Random(43)
        for _ in range(60):
            assert ltg_check(random_engineered_graded(rng)).passed

    @pytest.mark.parametrize(
        "x, dropped",
        [
            (GradedModule.of({0: [Cyclic.torsion(2, 1), Cyclic.torsion(3, 1)]}), SpecZPoint.closed(2)),
            (GradedModule.of({0: [Q]}), GENERIC),
        ],
        ids=["closed", "generic"],
    )
    def test_union_of_local_supports_fails_when_supp_mod_drops_a_point(
        self, monkeypatch, x, dropped
    ):
        # supp_object takes its union of block supports through supp_blocks
        real = balmer.supp_blocks
        others = PointSet.singleton(dropped).complement()
        monkeypatch.setattr(balmer, "supp_blocks", lambda blocks: real(blocks).intersect(others))
        failed = [r.name for r in ltg_check(x).failures()]
        assert "ltg.union-of-local-supports" in failed

    @pytest.mark.parametrize(
        "kind, x",
        [
            # Z[1/3] lives at every point but (3), where only Z/9 does
            ("torsion", GradedModule.of({0: [Cyclic.torsion(3, 2)], 2: [Cyclic.free(PrimeSet.of([3]))]})),
            ("prufer", GradedModule.of({1: [Cyclic.prufer(PrimeSet.of([2, 7]))]})),
        ],
    )
    def test_union_of_local_supports_fails_when_localize_point_ignores_a_kind(
        self, monkeypatch, kind, x
    ):
        real = balmer.localize_point

        def blind(pt, m):
            return real(pt, Module(tuple(cm for cm in m.parts if cm[0].kind != kind)))

        monkeypatch.setattr(balmer, "localize_point", blind)
        failed = [r.name for r in ltg_check(x).failures()]
        assert failed == ["ltg.union-of-local-supports"]


class TestResidue:
    def test_torsion_square_decomposes(self):
        rep = residue_check(SpecZPoint.closed(2), GradedModule.of({0: [Cyclic.torsion(2, 2)]}))
        assert rep.passed
        got = kunneth(residue_field(SpecZPoint.closed(2)), GradedModule.of({0: [Cyclic.torsion(2, 2)]}))
        assert got == GradedModule.of(
            {-1: [Cyclic.torsion(2, 1)], 0: [Cyclic.torsion(2, 1)]}
        )

    def test_prufer_detected(self):
        x = GradedModule.of({1: [Cyclic.prufer(PrimeSet.of([2]))]})
        got = kunneth(residue_field(SpecZPoint.closed(2)), x)
        assert got == GradedModule.of({0: [Cyclic.torsion(2, 1)]})
        assert residue_check(SpecZPoint.closed(2), x).passed

    def test_generic(self):
        assert residue_check(GENERIC, GradedModule.of({0: [Q]})).passed
        assert kunneth(residue_field(GENERIC), GradedModule.of({0: [Q]})) == GradedModule.of(
            {0: [Q]}
        )

    def test_random(self):
        rng = random.Random(47)
        points = [SpecZPoint.closed(2), SpecZPoint.closed(3), GENERIC]
        for i in range(200):
            x = points[i % 3]
            if rng.random() < 0.5:
                obj = kunneth(gamma_point(x), random_graded(rng))
            else:
                obj = random_graded(rng)
            assert residue_check(x, obj).passed


class TestSigmaTau:
    def test_roundtrip_on_representables(self):
        first6 = (2, 3, 5, 7, 11, 13)
        for generic in (False, True):
            for r in range(len(first6) + 1):
                for combo in combinations(first6, r):
                    for finite in (True, False):
                        w = PointSet(generic, PrimeSet.of(combo, finite=finite))
                        assert sigma_of_tau(w) == w

    def test_tau_membership(self):
        w = PointSet(False, PrimeSet.of([2]))
        assert tau_loc(w, GradedModule.of({0: [Cyclic.torsion(2, 5)]}))
        assert not tau_loc(w, GradedModule.unit())

    def test_sigma_of_generators(self):
        code = sigma_loc(
            [
                GradedModule.of({0: [Cyclic.torsion(2, 1)]}),
                GradedModule.of({2: [Cyclic.torsion(3, 4)]}),
            ]
        )
        assert code == PointSet(False, PrimeSet.of([2, 3]))

    def test_sigma_loc_matches_fold_of_supports(self):
        rng = random.Random(59)
        for _ in range(500):
            gens = [
                rng.choice([random_graded, random_engineered_graded])(rng)
                for _ in range(rng.randint(0, 4))
            ]
            fold = PointSet.empty()
            for g in gens:
                fold = fold.union(supp_object(g))
            code = sigma_loc(gens)
            assert code == fold and str(code) == str(fold), gens

    def test_tau_sigma_membership_probes(self):
        rng = random.Random(53)
        catalogue = compact_catalogue()
        for _ in range(20):
            gens = rng.sample(catalogue, rng.randint(1, 4))
            code = sigma_loc([homology(g) for g in gens])
            for y in catalogue:
                inside = supp_object(homology(y)).leq(code)
                assert thick_membership(y, gens) == inside
                assert tau_loc(code, homology(y)) == inside


class TestPointPrimeDictionary:
    def test_membership_of_cones(self):
        prime2 = point_to_prime(SpecZPoint.closed(2))
        closed = prime2.defining.point_set()
        assert tau_loc(closed, homology(scalar_cone(3)))
        assert not tau_loc(closed, homology(scalar_cone(2)))

    def test_generic_is_torsion_ideal(self):
        v = closed_except()  # all closed points: complexes with torsion homology
        assert prime_to_point(v) == GENERIC

    def test_composition_identity(self):
        for x in [SpecZPoint.closed(p) for p in (2, 3, 5, 7)] + [GENERIC]:
            assert prime_to_point(point_to_prime(x).defining) == x

    def test_not_prime_with_witness(self):
        with pytest.raises(NotPrimeError) as exc:
            prime_to_point(closed(2))
        a, b = exc.value.witness
        # both cones outside, tensor inside: supports are disjoint points
        assert not supp_object(homology(a)).leq(closed(2).point_set())
        assert supp_object(
            kunneth(homology(a), homology(b))
        ).leq(closed(2).point_set())
        with pytest.raises(NotPrimeError):
            prime_to_point(SpclSubset.empty())
        with pytest.raises(NotPrimeError, match="proper"):
            prime_to_point(SpclSubset.whole_space())
        assert tau_is_prime(closed_except(3, 5)) is None

    def test_tau_primality_decision(self):
        assert tau_is_prime(closed_except(7)) == SpecZPoint.closed(7)
        assert tau_is_prime(closed_except()) == GENERIC
        assert tau_is_prime(closed(2, 3)) is None

    def test_probe_finds_the_point_it_found_up_to_100(self):
        # the probe once ran over the primes up to a bound, 100 by default;
        # the primes V names and those up to 13 find the same point, and a V
        # that is not prime gives the same message and witness as before
        named = (2, 3, 5, 7, 101, 10007)
        subsets = [SpclSubset.whole_space()] + [
            make(*s)
            for make in (closed, closed_except)
            for r in range(len(named) + 1)
            for s in combinations(named, r)
        ]
        for v in subsets:
            if v.is_all:
                with pytest.raises(NotPrimeError) as exc:
                    prime_to_point(v)
                assert (str(exc.value), exc.value.witness) == (
                    "coded subcategory is not proper, hence not prime", None
                )
                continue
            outside = [p for p in primes_up_to(10007) if not v.closed.contains(p)]
            if len(outside) > 1:
                with pytest.raises(NotPrimeError) as exc:
                    prime_to_point(v)
                assert str(exc.value) == (
                    "coded subcategory is not prime: both cone factors lie outside "
                    "while their tensor lies inside"
                )
                assert exc.value.witness == (scalar_cone(outside[0]), scalar_cone(outside[1]))
                continue
            target = v.point_set()
            probes = sorted(set(primes_up_to(100)) | set(v.closed.primes))
            excluded = [n for n in probes if not supp_object(homology(scalar_cone(n))).leq(target)]
            want = SpecZPoint.closed(*excluded) if excluded else GENERIC
            assert prime_to_point(v) == want == (SpecZPoint.closed(*outside) if outside else GENERIC)

    @pytest.mark.parametrize(
        "support, error, message",
        [
            (SpclSubset.whole_space().point_set(), NotPrimeError,
             "probe excluded more than one prime: [2, 3, 5, 7, 11, 13]"),
            (PointSet.empty(), AssertionError, "probe recovered (0), structure says (5)"),
        ],
        ids=["every-cone-outside", "no-cone-outside"],
    )
    def test_probe_that_disagrees_with_the_structure_raises(
        self, monkeypatch, support, error, message
    ):
        monkeypatch.setattr(balmer, "supp_object", lambda x: support)
        with pytest.raises(error) as exc:
            prime_to_point(closed_except(5))
        assert str(exc.value) == message


class TestThickMembership:
    def test_four_in_two_with_witness_triangle(self):
        assert thick_membership(scalar_cone(4), [scalar_cone(2)])
        # explicit triangle Z/2 -> Z/4 -> Z/2 realised as a cone
        f = ChainMap.of(scalar_cone(2), scalar_cone(4), {-1: [[1]], 0: [[2]]})
        assert homology(cone(f)) == GradedModule.of({0: [Cyclic.torsion(2, 1)]})

    def test_disjoint_supports(self):
        assert not thick_membership(scalar_cone(2), [scalar_cone(3)])

    def test_unit_not_in_torsion(self):
        assert not thick_membership(unit_complex(), [scalar_cone(2)])
