import copy
import math
import pickle
import random
import sys
import threading

import pytest
import sympy
from hypothesis import given, strategies as st

from deadline import within
from oracles import primeset_members
from test_modcalc import drawn_by_verify
from ttsupport import homalg, znum
from ttsupport.cli import main
from ttsupport.verify import run_verify
from ttsupport.znum import (
    GENERIC,
    FrozenInstanceError,
    PointSet,
    PrimeSet,
    SpclSubset,
    SpecZPoint,
    factorint,
    is_prime,
    json_int,
    primes_up_to,
    v_of_point,
    z_of_point,
)

POOL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]

primesets = st.builds(
    lambda ps, fin: PrimeSet.of(ps, finite=fin),
    st.sets(st.sampled_from(POOL), max_size=4),
    st.booleans(),
)
subsets = st.one_of(
    st.just(SpclSubset.whole_space()),
    st.builds(SpclSubset.closed_points, primesets),
)
pointsets = st.builds(PointSet, st.booleans(), primesets)

UNIVERSE = frozenset(primes_up_to(1000))
SAMPLE_POINTS = [GENERIC] + [SpecZPoint.closed(p) for p in POOL + [37]]


def points_model(w):
    """Model of a subset of Spec Z: its generic flag and its member primes up
    to 1000; a SpclSubset is read off its fields, not through point_set."""
    if isinstance(w, PointSet):
        return w.generic, frozenset(primeset_members(w.closed, 1000))
    if w.is_all:
        return True, UNIVERSE
    return False, frozenset(primeset_members(w.closed, 1000))


def held(contains):
    """The sample points that a subset holds, by its own membership test."""
    return lambda a, b: {x for x in SAMPLE_POINTS if contains(a, x)}


def model_holds(m, n):
    generic, primes = m
    return {x for x in SAMPLE_POINTS if (generic if x.is_generic else x.p in primes)}


def model_union(m, n):
    return m[0] or n[0], m[1] | n[1]


def model_meet(m, n):
    return m[0] and n[0], m[1] & n[1]


def model_leq(m, n):
    return m[0] <= n[0] and m[1] <= n[1]


def model_complement(m, n):
    return not m[0], UNIVERSE - m[1]


# (inputs, operation, its model on points_model of the inputs)
SUBSET_OPS = [
    (pointsets, PointSet.union, model_union),
    (pointsets, PointSet.intersect, model_meet),
    (pointsets, lambda a, b: a.complement(), model_complement),
    (pointsets, PointSet.leq, model_leq),
    (pointsets, held(PointSet.contains), model_holds),
    (subsets, SpclSubset.join, model_union),
    (subsets, SpclSubset.meet, model_meet),
    (subsets, lambda a, b: a.complement(), model_complement),
    (subsets, SpclSubset.leq, model_leq),
    (subsets, held(SpclSubset.contains_point), model_holds),
]


class TestPrimality:
    def test_small(self):
        assert [p for p in range(60) if is_prime(p)] == primes_up_to(59)

    def test_carmichael_and_powers(self):
        assert not is_prime(561)  # Carmichael
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(-7)
        assert not is_prime(7**2)

    def test_large(self):
        assert is_prime(2**61 - 1)
        assert not is_prime((2**31 - 1) * (2**19 - 1))

    def test_table_and_miller_rabin_agree_with_sieve(self):
        top = znum._TABLE_BOUND + 200
        primes = set(primes_up_to(top))
        for n in range(-5, top + 1):
            assert is_prime(n) == (n in primes), n

    def test_primes_up_to_agrees_with_sympy_on_both_sides_of_the_table_bound(self):
        top = znum._TABLE_BOUND
        for bound in (-3, 0, 1, 2, 3, 100, 7919, top - 1, top, top + 20):
            assert primes_up_to(bound) == list(sympy.primerange(2, bound + 1)), bound
        # each call returns a list of its own
        primes_up_to(10).append(11)
        assert primes_up_to(10) == [2, 3, 5, 7]

    def test_table_agrees_with_trial_division(self):
        for n in range(-znum._TABLE_BOUND, znum._TABLE_BOUND):
            by_trial = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
            assert is_prime(n) == by_trial, n

    def test_just_below_the_proven_bound(self):
        bound = znum._MR_PROVEN_BOUND
        p = sympy.prevprime(bound)
        q = sympy.prevprime(math.isqrt(bound))
        assert within(5, lambda: is_prime(p))
        assert not within(5, lambda: is_prime(q * q))

    def test_rejects_numbers_beyond_the_proven_bound(self):
        # this prime once sent is_prime into about 49 hours of trial division
        p = sympy.nextprime(znum._MR_PROVEN_BOUND)
        for n in (znum._MR_PROVEN_BOUND, p):
            with pytest.raises(ValueError, match=str(znum._MR_PROVEN_BOUND)):
                within(5, lambda: is_prime(n))
        # a small divisor still settles any size
        assert not is_prime(37 * p) and not is_prime(2**100)


class TestFactorint:
    """znum.factorint against sympy.factorint, an independent oracle."""

    def test_seeded_range(self):
        for n in range(-300, 5000):
            assert factorint(n) == sympy.factorint(n), n
        rng = random.Random(61)
        for _ in range(400):
            n = rng.getrandbits(rng.randint(2, 70)) + 2
            assert factorint(n) == sympy.factorint(n), n

    def test_prime_powers(self):
        for p in (2, 3, 251, 65521, 65537, 1000003, 2**31 - 1, sympy.nextprime(2**40)):
            for k in range(1, 6):
                assert factorint(p**k) == {p: k}, (p, k)
        assert factorint(2**64 * 65537**3) == {2: 64, 65537: 3}

    def test_strong_pseudoprimes_and_carmichael_numbers(self):
        # strong pseudoprimes to base 2, the last one also to bases 3, 5, 7;
        # then Carmichael numbers; then a strong pseudoprime to every base up
        # to 23 whose factors all lie past the trial-division table
        for n in (2047, 3277, 4033, 3215031751, 561, 41041, 825265, 3825123056546413051):
            assert factorint(n) == sympy.factorint(n), n
        assert factorint(3825123056546413051) == {149491: 1, 747451: 1, 34233211: 1}

    def test_products_of_two_primes_near_2_40(self):
        rng = random.Random(40)
        for _ in range(3):
            p, q = (sympy.nextprime(rng.randrange(2**39, 2**40)) for _ in range(2))
            assert within(20, lambda: factorint(p * q)) == sympy.factorint(p * q)

    def test_every_number_verify_factors(self, capsys, monkeypatch, checks_in_process):
        seen = set()
        real = homalg.factorint

        def recording(n):
            seen.add(n)
            return real(n)

        monkeypatch.setattr(homalg, "factorint", recording)
        homalg._torsion_cyclics.cache_clear()
        assert main(["verify", "--seed", "42"]) == 0
        capsys.readouterr()
        # distinct invariant factors: 36 of at most 8 bits, and 23 more
        # prime powers p^k (p <= 7, k <= 8, up to 23 bits) from the
        # homology of the closed-forms tower
        assert len(seen) == 59
        for n in seen:
            assert real(n) == sympy.factorint(n), n

    def test_beyond_the_budget_is_refused_on_time(self):
        # two 70-bit primes: their 140-bit product is past the proven bound
        # and fails the probable-prime test, and rho would need about 2^35
        # steps to split it
        rng = random.Random(70)
        p, q = (sympy.nextprime(rng.randrange(2**69, 2**70)) for _ in range(2))
        with pytest.raises(ValueError) as caught:
            within(30, lambda: factorint(p * q))
        assert str(p * q) in str(caught.value)
        assert f"budget of {znum._RHO_BUDGET} steps" in str(caught.value)

    def test_budget_bounds_composites_below_the_proven_bound(self, monkeypatch):
        monkeypatch.setattr(znum, "_RHO_BUDGET", 1000)
        n = sympy.nextprime(2**30) * sympy.nextprime(2**31)
        with pytest.raises(ValueError, match="budget of 1000 steps"):
            factorint(n)

    def test_refuses_what_looks_prime_past_the_proven_bound(self):
        # the bound is itself a strong pseudoprime to every base up to 37:
        # no proven test covers it, so it is refused rather than called prime
        bound = znum._MR_PROVEN_BOUND
        for n in (sympy.nextprime(bound), bound, 2 * sympy.nextprime(bound)):
            with pytest.raises(ValueError, match=f"covers numbers below {bound}"):
                within(5, lambda: factorint(n))
        # trial division alone still settles any size
        assert factorint(2**100 * 3**5 * 65521) == {2: 100, 3: 5, 65521: 1}

    def test_refuses_wide_cofactors_at_once(self):
        p, q = sympy.nextprime(2**129), sympy.nextprime(2**130)
        with pytest.raises(ValueError, match=f"wider than {znum._RHO_MAX_BITS} bits"):
            within(5, lambda: factorint(p * q))


class TestPrimeSet:
    def test_canonicalisation(self):
        assert PrimeSet.of([5, 2, 2, 3]).primes == (2, 3, 5)

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeSet.of([4])
        with pytest.raises(ValueError):
            PrimeSet(True, (3, 2))
        # the set algebra skips the re-test; the public constructors do not
        for build in (
            lambda: PrimeSet(False, (2, 9)),
            lambda: PrimeSet.cofinite([15]),
            lambda: PrimeSet.from_json({"mode": "cofinite", "primes": ["21"]}),
        ):
            with pytest.raises(ValueError, match="not prime"):
                build()

    def test_union_finite(self):
        assert PrimeSet.of([2, 3]).union(PrimeSet.of([3, 5])) == PrimeSet.of([2, 3, 5])

    def test_intersect_cofinite(self):
        got = PrimeSet.cofinite([2]).intersect(PrimeSet.cofinite([3]))
        assert got == PrimeSet.cofinite([2, 3])

    def test_difference_cofinite_finite(self):
        got = PrimeSet.cofinite([2]).difference(PrimeSet.of([3, 5]))
        assert got == PrimeSet.cofinite([2, 3, 5])
        # membership of small primes matches the brute-force model
        model = primeset_members(PrimeSet.cofinite([2]), 100) - primeset_members(
            PrimeSet.of([3, 5]), 100
        )
        for p in [2, 3, 5, 7, 11]:
            assert got.contains(p) == (p in model)

    @given(
        primesets,
        primesets,
        st.sampled_from(
            [
                (PrimeSet.union, set.union),
                (PrimeSet.intersect, set.intersection),
                (PrimeSet.difference, set.difference),
                (lambda a, b: a.complement(), lambda x, y: set(primes_up_to(1000)) - x),
                (PrimeSet.leq, set.issubset),
            ]
        ),
    )
    def test_bruteforce_semantics(self, a, b, ops):
        method, model = ops
        got = method(a, b)
        if isinstance(got, PrimeSet):
            got = primeset_members(got, 1000)
        assert got == model(primeset_members(a, 1000), primeset_members(b, 1000))

    @given(primesets)
    def test_complement_involution(self, a):
        assert a.complement().complement() == a

    def test_json_roundtrip(self):
        for ps in [PrimeSet.of([2, 97]), PrimeSet.cofinite([3]), PrimeSet.none()]:
            assert PrimeSet.from_json(ps.to_json()) == ps
        assert PrimeSet.from_json({"mode": "finite", "primes": ["101"]}) == PrimeSet.of([101])
        with pytest.raises(ValueError, match="mode"):
            PrimeSet.from_json({"mode": "open", "primes": []})

    def test_set_algebra_equals_validated_construction(self):
        rng = random.Random(5150)
        pool = primes_up_to(400) + [sympy.nextprime(10**12), sympy.nextprime(10**18)]

        def draw():
            ps = rng.sample(pool, rng.randint(0, 8))
            return PrimeSet.of(ps) if rng.random() < 0.5 else PrimeSet.cofinite(ps)

        def validated(ps):
            return PrimeSet.of(ps.primes) if ps.finite else PrimeSet.cofinite(ps.primes)

        for _ in range(400):
            a, b = draw(), draw()
            for got in (a.union(b), a.intersect(b), a.difference(b), a.complement()):
                assert got == validated(got)
                assert type(got.primes) is tuple and list(got.primes) == sorted(set(got.primes))

    def test_set_algebra_does_not_retest_primes(self, monkeypatch):
        a, b = PrimeSet.of([2, 3, 101]), PrimeSet.cofinite([3, 7, 103])
        calls = []
        monkeypatch.setattr(znum, "is_prime", lambda n: calls.append(n) or True)
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            x.union(y), x.intersect(y), x.difference(y), x.complement()
        assert calls == []

    def test_json_rejects_primes_beyond_the_proven_bound(self):
        p = sympy.nextprime(znum._MR_PROVEN_BOUND)
        data = {"mode": "finite", "primes": ["2", str(p)]}
        with pytest.raises(ValueError) as caught:
            within(5, lambda: PrimeSet.from_json(data, "S"))
        assert str(caught.value).startswith("S.primes: ")
        assert str(znum._MR_PROVEN_BOUND) in str(caught.value)


def _entry(finite, primes):
    """The PrimeSet that the table holds for this set, or None."""
    return znum._PRIMESETS.get((finite, frozenset(primes)))


class TestHashConsing:
    def test_every_construction_path_gives_the_same_object(self):
        a = PrimeSet.of([3, 2])
        assert a is PrimeSet(True, (2, 3))
        assert a is PrimeSet.of((2, 3, 3), finite=True)
        assert a is PrimeSet._checked(True, {2, 3})
        assert a is PrimeSet.from_json({"mode": "finite", "primes": ["3", 2]})
        assert a is PrimeSet.of([2]).union(PrimeSet.of([3]))
        assert a is PrimeSet.cofinite([2, 3]).complement()
        assert a is copy.copy(a) and a is copy.deepcopy(a)
        assert a is pickle.loads(pickle.dumps(a))
        c = PrimeSet.cofinite([5])
        assert c is PrimeSet(False, (5,)) and c is PrimeSet.of([5]).complement()
        assert c is pickle.loads(pickle.dumps(c)) and c is copy.deepcopy(c)
        assert PrimeSet.none() is PrimeSet(True, ()) is PrimeSet.of([])
        assert PrimeSet.all_primes() is PrimeSet(False, ()) is PrimeSet.cofinite()
        assert _entry(True, [2, 3]) is a

    @given(primesets, primesets)
    def test_equality_is_identity(self, a, b):
        assert (a == b) == (a is b)
        assert (a == b) == (a.finite == b.finite and a.primes == b.primes)
        assert a.union(b) is b.union(a)

    def test_values_are_immutable(self):
        a = PrimeSet.of([2])
        with pytest.raises(FrozenInstanceError):
            a.primes = (3,)
        with pytest.raises(FrozenInstanceError):
            del a.finite
        assert repr(a) == "PrimeSet(finite=True, primes=(2,))"

    @pytest.mark.parametrize(
        "finite, primes, message",
        [
            (True, (3, 2), "prime list not strictly increasing at 2"),
            (False, (2, 9), "9 is not prime"),
            (True, (7919, 7919), "prime list not strictly increasing at 7919"),
        ],
    )
    def test_invalid_input_is_rejected_and_leaves_no_entry(self, finite, primes, message):
        before = _entry(finite, primes)
        with pytest.raises(ValueError, match=message):
            PrimeSet(finite, primes)
        assert _entry(finite, primes) is before

    def test_non_canonical_input_is_rejected_while_its_set_is_alive(self):
        alive = PrimeSet.of([2, 3])
        with pytest.raises(ValueError, match="prime list not strictly increasing at 2"):
            PrimeSet(True, (3, 2))
        with pytest.raises(ValueError, match="prime list not strictly increasing at 3"):
            PrimeSet(True, (2, 3, 3))
        assert _entry(True, [2, 3]) is alive

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PrimeSet.of([2.0]),
            lambda: PrimeSet.cofinite([2.0]),
            lambda: PrimeSet(True, (2.0,)),
            lambda: PrimeSet(False, (2, 2.0)),
            lambda: PrimeSet.of([2, 2.0]),
        ],
        ids=["of", "cofinite", "new", "new-duplicate", "of-duplicate"],
    )
    def test_inexact_primes_are_refused_while_an_equal_set_is_alive(self, build):
        # 2.0 and True hash and compare equal to 2 and 1, so a lookup before
        # the type test would hand out the live set
        alive = PrimeSet.of([2]), PrimeSet.cofinite([2])
        with pytest.raises(ValueError, match="^2.0 is a float, not an int$"):
            build()
        assert _entry(True, [2]) is alive[0] and _entry(False, [2]) is alive[1]

    def test_a_set_and_its_complement_link_each_other(self):
        a = PrimeSet.of([2, 3])
        b = a.complement()
        assert b is PrimeSet.cofinite([2, 3]) and a._not is b and b._not is a
        assert b.complement() is a

    def test_concurrent_complements_link_each_pair_once(self):
        """Eight threads, more than there are cores, race to take the
        complements of the same new sets, half of them from the other end;
        each set ends linked to its one interned complement, and that to it."""
        # primes between 50000 and 60000, past what the other tests build
        primes = primes_up_to(60000)[-120:]
        sets = [PrimeSet.of(primes[i:i + 2], finite=fin) for i in range(0, 120, 2) for fin in (True, False)]
        barrier = threading.Barrier(8, timeout=30)
        got = [None] * 8

        def work(t):
            barrier.wait()
            got[t] = [s.complement() for s in (sets if t % 2 else sets[::-1])]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(th.is_alive() for th in threads)
        want = [PrimeSet.of(s.primes, finite=not s.finite) for s in sets]
        assert all(g == (want if t % 2 else want[::-1]) for t, g in enumerate(got))
        assert all(s._not is c and c._not is s for s, c in zip(sets, want))

    def test_verify_fills_the_table_once(self, checks_in_process):
        # every set verify builds is finite or cofinite over its first ten
        # primes, or over at most three of the primes below 50 that
        # idempotent-laws draws from, so the table that holds each set for
        # good is bounded: a second seed adds only such sets
        run_verify(1, 60, 50)
        sets = set(znum._PRIMESETS.values())
        run_verify(2, 60, 50)
        assert all(drawn_by_verify(s) for s in set(znum._PRIMESETS.values()) - sets)


class TestJsonInt:
    def test_accepts_ints_and_decimal_strings(self):
        for raw, want in ((5, 5), (-12, -12), ("7", 7), ("-12", -12), ("+3", 3), ("007", 7)):
            assert json_int(raw, "x") == want

    @pytest.mark.parametrize(
        "raw", [3.7, 2.0, True, False, None, "1_000", " 3", "3 ", "", "-", "3.0", "\u0663", [3]]
    )
    def test_rejects_everything_else_naming_the_location(self, raw):
        with pytest.raises(ValueError, match=r"^a\.b\[0\]: expected an integer, got "):
            json_int(raw, "a.b[0]")


class TestPoints:
    def test_v_of_point(self):
        assert v_of_point(SpecZPoint.closed(2)) == SpclSubset.closed_points(PrimeSet.of([2]))
        assert v_of_point(SpecZPoint.closed(7)) == SpclSubset.closed_points(PrimeSet.of([7]))
        assert v_of_point(GENERIC) == SpclSubset.whole_space()

    def test_z_of_point_by_enumeration(self):
        # y lies in Z(x) exactly when x is outside the closure of y
        sample = [GENERIC] + [SpecZPoint.closed(p) for p in (2, 3, 5)]
        for x in sample:
            z = z_of_point(x)
            for y in sample:
                assert z.contains_point(y) == (not v_of_point(y).contains_point(x))
        assert z_of_point(SpecZPoint.closed(2)) == SpclSubset.closed_points(
            PrimeSet.cofinite([2])
        )
        assert z_of_point(GENERIC) == SpclSubset.closed_points(PrimeSet.all_primes())

    def test_point_isolation(self):
        for x in [GENERIC] + [SpecZPoint.closed(p) for p in (2, 3, 5, 31)]:
            v, z = v_of_point(x), z_of_point(x)
            assert v.contains_point(x)
            assert not z.contains_point(x)
            isolated = v.point_set().intersect(z.point_set().complement())
            assert isolated == PointSet.singleton(x)

    def test_closed_needs_prime(self):
        with pytest.raises(ValueError):
            SpecZPoint.closed(6)


class TestSpclLattice:
    def test_subsets_print(self):
        assert str(SpclSubset.whole_space()) == "Spec Z"
        assert str(SpclSubset.closed_points(PrimeSet.cofinite([2]))) == (
            "closed points of all primes except {2}"
        )

    def test_examples(self):
        a = SpclSubset.closed_points(PrimeSet.of([2]))
        b = SpclSubset.closed_points(PrimeSet.of([3]))
        assert a.join(b) == SpclSubset.closed_points(PrimeSet.of([2, 3]))
        five = SpclSubset.closed_points(PrimeSet.cofinite([5]))
        assert SpclSubset.whole_space().meet(five) == five
        assert not SpclSubset.closed_points(PrimeSet.cofinite([2])).contains_point(GENERIC)

    @given(subsets, subsets, subsets)
    def test_lattice_laws(self, a, b, c):
        assert a.join(b) == b.join(a)
        assert a.meet(b) == b.meet(a)
        assert a.join(b).join(c) == a.join(b.join(c))
        assert a.meet(b).meet(c) == a.meet(b.meet(c))
        assert a.join(a.meet(b)) == a
        assert a.meet(a.join(b)) == a
        assert a.meet(b.join(c)) == a.meet(b).join(a.meet(c))

    @given(subsets)
    def test_bounds(self, a):
        top, bottom = SpclSubset.whole_space(), SpclSubset.empty()
        assert a.meet(top) == a and a.join(top) == top
        assert a.join(bottom) == a and a.meet(bottom) == bottom
        assert bottom.leq(a) and a.leq(top)

    @given(subsets, subsets)
    def test_leq_is_subset_order(self, a, b):
        assert a.leq(b) == (a.join(b) == b)

    def test_json_roundtrip(self):
        for v in [SpclSubset.whole_space(), SpclSubset.closed_points(PrimeSet.cofinite([2]))]:
            assert SpclSubset.from_json(v.to_json()) == v


class TestPointSet:
    @given(st.data(), st.sampled_from(SUBSET_OPS))
    def test_bruteforce_semantics(self, data, op):
        inputs, method, model = op
        a, b = data.draw(inputs), data.draw(inputs)
        got = method(a, b)
        if isinstance(got, (PointSet, SpclSubset)):
            got = points_model(got)
        assert got == model(points_model(a), points_model(b))

    @given(subsets, subsets)
    def test_spcl_conversions(self, a, b):
        assert a.point_set().union(a.complement()).is_everything()
        assert a.point_set().intersect(a.complement()).is_empty()
        assert a.leq(b) == a.point_set().leq(b.point_set())

    def test_json_roundtrip(self):
        w = PointSet(True, PrimeSet.cofinite([2, 11]))
        assert PointSet.from_json(w.to_json()) == w
