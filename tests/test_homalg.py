import functools
import hashlib
import itertools
import json
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from deadline import within
from oracles import (
    cofactor_det,
    gcd_of_minors,
    homology_pair,
    identity,
    naive_cone,
    naive_direct_sum,
    naive_tensor_chain,
    zeros,
)
from ttsupport.homalg import (
    ChainMap,
    IntMatrix,
    PerfectComplex,
    cone,
    determinant,
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
from ttsupport import homalg, verify
from ttsupport.randgen import _primary_parts, compact_catalogue, random_chain_map, random_complex
from ttsupport.znum import PrimeSet

Z = Cyclic.free(PrimeSet.none())


def mult_complex(n, lo=0):
    """Z --n--> Z in degrees lo, lo+1."""
    return PerfectComplex.of({lo: 1, lo + 1: 1}, {lo: [[n]]})


class TestSNF:
    def test_identity(self):
        res = snf(identity(2))
        assert res.d == identity(2)
        assert res.invariant_factors == (1, 1)

    def test_known_factors(self):
        # d1 = gcd of entries = 2, d1*d2 = |det| = 8
        res = snf(IntMatrix.of([[2, 4], [6, 8]]))
        assert res.invariant_factors == (2, 4)

    def test_zero_matrix(self):
        assert snf(IntMatrix.of([[0]])).invariant_factors == ()

    def test_empty_shapes(self):
        for r, c in [(0, 0), (0, 3), (3, 0)]:
            res = snf(zeros(r, c))
            assert res.invariant_factors == ()
            assert res.u.mul(zeros(r, c)).mul(res.v) == res.d

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


def _scrambled_rank12(rng):
    """A 13 x 13 matrix of rank 12, the shape of the dense-homology snf ops:
    a diagonal with a few torsion factors, scrambled by transvections on
    both sides."""
    diag = [1] * 9 + [rng.choice((2, 3, 5, 7)) * rng.choice((1, 2, 3)) for _ in range(3)] + [0]
    a = [[diag[i] if i == j else 0 for j in range(13)] for i in range(13)]
    for _ in range(39):
        i, j = rng.sample(range(13), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        i, j = rng.sample(range(13), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in a:
            row[j] += c * row[i]
    return IntMatrix.of(a)


def _snf_corpus():
    rng = random.Random(7021)
    shapes = [(r, c) for r in range(9) for c in range(9)]
    out = [IntMatrix(r, c, tuple((0,) * c for _ in range(r))) for r, c in shapes]
    for r, c in shapes:
        for bound in (1, 9, 1000):
            # some rows and columns left zero, so rank-deficient shapes occur
            dead_rows = {i for i in range(r) if rng.random() < 0.15}
            dead_cols = {j for j in range(c) if rng.random() < 0.15}
            out.append(IntMatrix(r, c, tuple(
                tuple(0 if i in dead_rows or j in dead_cols else rng.randint(-bound, bound)
                      for j in range(c))
                for i in range(r)
            )))
    out.extend(_scrambled_rank12(rng) for _ in range(4))
    return out


# SHA-256 of the (u, d, v, invariant_factors) that snf returned on the corpus
# when this test was written.  Valid transforms are not unique; this pins the
# pivot rule and the order of operations, so that a rewrite of snf which
# changes them is a deliberate choice rather than an accident.
SNF_CORPUS_DIGEST = "b68c53910fd580a272782dbed5df815a5b2b6f8dab835873ee1b52374b9ae187"


def test_snf_transforms_pinned():
    results = []
    for m in _snf_corpus():
        res = snf(m)
        results.append([res.u.entries, res.d.entries, res.v.entries, res.invariant_factors])
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == SNF_CORPUS_DIGEST


def test_entry_growth_is_bounded():
    # A guard against blow-up, not a timing: snf on the shape of the
    # dense-homology snf ops and smith_factors on a dense 60 x 60 matrix
    # each take well under a second.
    for m in _snf_corpus()[-4:]:
        assert len(within(5, lambda: snf(m)).invariant_factors) == 12
    rng = random.Random(60)
    m = IntMatrix.of([[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)])
    factors = within(5, lambda: smith_factors(m))
    assert math.prod(factors) == abs(determinant(m)) != 0


def _assert_minor_oracle(m, factors):
    """factors is the divisibility chain whose prefix products are the gcds
    of the k x k minors, and the rank is the number of factors."""
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    gcds = gcd_of_minors(m)
    prefix = 1
    for i, d in enumerate(factors):
        prefix *= d
        assert prefix == gcds[i]
    assert all(g == 0 for g in gcds[len(factors):])


def _low_rank(rng, rows, cols, rank, bound):
    """A rows x cols matrix of rank at most `rank`, often with a zero row
    or a zero column."""
    basis = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rank)]
    out = []
    for _ in range(rows):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        out.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(cols)])
    if rng.random() < 0.5:
        out[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.5:
        j = rng.randrange(cols)
        for row in out:
            row[j] = 0
    return IntMatrix.of(out)


def _scrambled(rng, rows, cols, chain):
    """U * diag(chain) * V for random unimodular U, V: its invariant factors
    are `chain` by construction."""
    a = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(chain):
        a[i][i] = d
    for _ in range(4 * (rows + cols)):
        i, k = rng.sample(range(rows), 2)
        f = rng.randint(-2, 2)
        a[i] = [x + f * y for x, y in zip(a[i], a[k])]
        j, l = rng.sample(range(cols), 2)
        f = rng.randint(-2, 2)
        for row in a:
            row[j] += f * row[l]
    rng.shuffle(a)
    return IntMatrix.of(a)


def _transpose(m):
    return IntMatrix(m.cols, m.rows, tuple(tuple(row[j] for row in m.entries) for j in range(m.cols)))


class TestSmithFactors:
    """The modular smith_factors against snf with transforms and against the
    minor-gcd oracle, neither of which shares code with it.  Each matrix is
    also checked transposed: it has the same factors, and smith_factors
    eliminates on the transpose of a matrix with more rows than columns."""

    def check(self, m):
        got = smith_factors(m)
        assert got == snf(m).invariant_factors, m.entries
        _assert_minor_oracle(m, got)
        assert smith_factors(_transpose(m)) == got, m.entries

    def test_random_up_to_six(self):
        rng = random.Random(20261018)
        for _ in range(300):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            bound = rng.choice([1, 2, 9, 100])
            self.check(IntMatrix.of([[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)]))
        for _ in range(6):
            self.check(IntMatrix.of([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]))

    def test_rank_deficient_with_zero_rows_and_columns(self):
        rng = random.Random(41)
        for _ in range(200):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            if r * c > 25:
                r = min(r, 4)
            self.check(_low_rank(rng, r, c, rng.randint(0, min(r, c)), rng.choice([3, 9])))

    def test_tall_rank_deficient_with_dead_rows_and_columns(self):
        # Tall, so eliminated on the transpose; a repeated row or column
        # reduces to zero part-way through the Bareiss pass, on either path.
        rng = random.Random(46)
        for _ in range(60):
            c = rng.randint(2, 5)
            r = rng.randint(c + 1, 8)
            m = _low_rank(rng, r, c, rng.randint(1, c - 1), rng.choice([3, 9]))
            rows = [list(row) for row in m.entries]
            i, k = rng.randrange(r), rng.randrange(r)
            rows[k] = [rng.choice([-2, 1, 3]) * x for x in rows[i]]
            j, l = rng.randrange(c), rng.randrange(c)
            for row in rows:
                row[l] = -row[j]
            self.check(IntMatrix.of(rows))

    def test_single_rows_and_columns(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(1, 6)
            row = [rng.choice([0, 0, 4, 6, 10, 15, -12, 35]) for _ in range(n)]
            self.check(IntMatrix.of([row]))
            self.check(IntMatrix.of([[x] for x in row]))

    def test_entries_near_ten_to_the_forty(self):
        rng = random.Random(43)
        big = 10**40
        for _ in range(40):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            self.check(IntMatrix.of([[big + rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]))
        self.check(IntMatrix.of([[big, 1], [0, big]]))
        self.check(IntMatrix.of([[2 * big, 0], [0, 3 * big]]))

    def test_last_factor_equal_to_the_minor(self):
        # M = 2D: a factor equal to D must not be read as a zero
        assert smith_factors(IntMatrix.of([[5]])) == (5,)
        assert smith_factors(IntMatrix.of([[-5]])) == (5,)
        assert smith_factors(IntMatrix.of([[1, 0], [0, 12]])) == (1, 12)
        assert smith_factors(IntMatrix.of([[2, 0], [0, 2]])) == (2, 2)
        assert smith_factors(IntMatrix.of([[0, 0, 7], [0, 0, 0]])) == (7,)
        assert smith_factors(IntMatrix.of([[4, 0], [0, 0]])) == (4,)
        assert smith_factors(IntMatrix.of([[0, 0], [0, 0]])) == ()

    def test_forty_by_forty_is_bounded(self, monkeypatch):
        # Every entry the elimination passes to gcd (the pivot search, so
        # the rows left after each step) or to xgcd (a non-unit step) stays
        # below M = 2D; M itself is passed as the modulus.  pow counts the
        # unit pivots, each cleared in one step.
        seen, units = [], [0]
        real_gcd, real_xgcd = homalg.gcd, homalg.xgcd

        def spy(real):
            def spying(*args):
                seen.extend(args)
                return real(*args)

            return spying

        def unit_inverse(p, e, mod):
            units[0] += 1
            return pow(p, e, mod)

        monkeypatch.setattr(homalg, "gcd", spy(real_gcd))
        monkeypatch.setattr(homalg, "xgcd", spy(real_xgcd))
        monkeypatch.setattr(homalg, "pow", unit_inverse, raising=False)
        rng = random.Random(44)
        for scale in (1, 1, 1, 2):
            # even entries: M is even, so no entry is a unit of Z/M and the
            # non-unit loop runs at every step
            m = IntMatrix.of([[scale * rng.randint(-9, 9) for _ in range(40)] for _ in range(40)])
            det = abs(determinant(m))
            seen.clear()
            units[0] = 0
            factors = within(5, lambda: smith_factors(m))
            assert math.prod(factors) == det != 0
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
            # full rank, so D = |det m|
            assert 0 < max(abs(x) for x in seen if x != 2 * det) < 2 * det
            assert (units[0] > 0) == (scale == 1)
        even = IntMatrix.of([[2 * rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
        units[0] = 0
        _assert_minor_oracle(even, smith_factors(even))
        assert units[0] == 0

    def test_rank_deficient_at_forty_scale(self):
        rng = random.Random(45)
        chain = (1,) * 20 + (2, 2, 6, 12, 12, 60, 360)
        m = _scrambled(rng, 34, 40, chain)
        assert within(5, lambda: smith_factors(m)) == chain


def _thin_matrices():
    """Every 1 x n and n x 1 matrix for n <= 4 with entries in [-3, 3]."""
    for n in range(1, 5):
        for row in itertools.product(range(-3, 4), repeat=n):
            yield IntMatrix.of([row])
            if n > 1:
                yield IntMatrix.of([[x] for x in row])


def _two_by_two_matrices():
    """Every 2 x 2 matrix with entries in [-4, 4]."""
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        yield IntMatrix.of([[a, b], [c, d]])


@functools.cache
def _elimination_table():
    """Each thin and 2 x 2 matrix above with its invariant factors by snf,
    whose elimination is checked by UMV = D and shares no code with the
    closed forms.  gcd_of_minors is no oracle here: on these shapes it is
    the closed form itself."""
    return [(m, snf(m).invariant_factors) for m in (*_thin_matrices(), *_two_by_two_matrices())]


def _d2_is_det(m):
    """A faulty closed form: d2 = |det| on a 2 x 2, where it is |det| / d1."""
    if m.rows == m.cols == 2:
        (a, b), (c, d) = m.entries
        g, det = math.gcd(a, b, c, d), abs(a * d - b * c)
        return (g, det) if det else (g,) if g else ()
    return smith_factors(m)


class TestClosedForms:
    def test_shapes_are_covered(self):
        table = _elimination_table()
        assert len(table) == 7 + 2 * (7**2 + 7**3 + 7**4) + 9**4
        # zero, one and two factors all occur among the 2 x 2 matrices
        assert {len(f) for m, f in table if m.rows == m.cols == 2} == {0, 1, 2}

    @pytest.mark.parametrize("form, sound", [(smith_factors, True), (_d2_is_det, False)])
    def test_against_elimination(self, form, sound):
        wrong = [m.entries for m, want in _elimination_table() if form(m) != want]
        assert (not wrong) == sound, wrong[:5]

    def test_thin_closed_form_runs_no_elimination(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("Bareiss pass on a closed-form shape")

        monkeypatch.setattr(homalg, "_rank_and_minor", refuse)
        assert smith_factors(IntMatrix.of([[0, -6, 4]])) == (2,)
        assert smith_factors(IntMatrix.of([[0], [0]])) == ()
        assert smith_factors(IntMatrix.of([])) == ()
        assert smith_factors(IntMatrix.of([[2, 4], [6, 8]])) == (2, 4)
        assert smith_factors(IntMatrix.of([[2, 4], [1, 2]])) == (1,)
        assert smith_factors(IntMatrix.of([[10**40, 1], [0, 10**40]])) == (1, 10**80)


class TestIntMatrixContract:
    def test_ragged_rows_message(self):
        with pytest.raises(ValueError) as exc:
            IntMatrix.of([[1, 2], [3, 4], [5]])
        assert str(exc.value) == "row 2 has 1 entries, expected 2"
        with pytest.raises(ValueError) as exc:
            IntMatrix(3, 2, ((1, 2), (3, 4, 5), (6,)))
        assert str(exc.value) == "row 1 has 3 entries, expected 2"

    def test_is_zero(self):
        assert IntMatrix(0, 3, ()).is_zero()
        assert IntMatrix(3, 0, ((), (), ())).is_zero()
        assert zeros(3, 4).is_zero()
        for i in range(3):
            for j in range(4):
                rows = [[0] * 4 for _ in range(3)]
                rows[i][j] = -1
                assert not IntMatrix.of(rows).is_zero()

    def test_int_subclass_entries_read_as_ints(self):
        class Tagged(int):
            pass

        got = IntMatrix.of([[Tagged(3), 0], [Tagged(-2**70), Tagged(0)]])
        assert got == IntMatrix.of([[3, 0], [-2**70, 0]])
        assert {type(x) for row in got.entries for x in row} == {int}

    def test_int_rows_are_taken_as_they_are(self):
        row = (1, -2, 3)
        assert IntMatrix.of([row]).entries[0] is row


class TestExactConstruction:
    """Library constructors refuse what is not exactly an integer, where
    int() would truncate a float or read a bool as 0 or 1."""

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: IntMatrix.of([[2.5, True]]), "row 0, column 0: expected an integer, got 2.5"),
            (lambda: IntMatrix.of([[2, True]]), "row 0, column 1: expected an integer, got True"),
            (lambda: IntMatrix.of([[1], ["3"]]), "row 1, column 0: expected an integer, got '3'"),
            (
                lambda: PerfectComplex.of({0: 1.9, 1: 1}, {0: [[3.7]]}),
                "rank at degree 0: expected an integer, got 1.9",
            ),
            (
                lambda: PerfectComplex.of({0: 1, 1: 1}, {0: [[3.7]]}),
                "differential at degree 0: row 0, column 0: expected an integer, got 3.7",
            ),
            (lambda: PerfectComplex.of({0: False, 1: 1}), "rank at degree 0: expected an integer, got False"),
            (lambda: PerfectComplex.of({0.0: 1}), "degree: expected an integer, got 0.0"),
            (lambda: PerfectComplex.of({True: 1}), "degree: expected an integer, got True"),
            (
                lambda: PerfectComplex.of({0: 1, 1: 1}, {"0": [[3]]}),
                "differential degree: expected an integer, got '0'",
            ),
            (
                lambda: ChainMap.of(unit_complex(), unit_complex(), {0: [[True]]}),
                "component at degree 0: row 0, column 0: expected an integer, got True",
            ),
            (
                lambda: ChainMap.of(unit_complex(), unit_complex(), {0: [[1, 0]]}),
                "component at degree 0 has shape 1x2, expected (1, 1)",
            ),
        ],
    )
    def test_inexact_input_is_refused(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_exact_integer_types_are_accepted(self):
        class Tagged(int):
            pass

        c = PerfectComplex.of({Tagged(0): Tagged(1), 1: 1}, {Tagged(0): [[Tagged(3)]]})
        assert c == PerfectComplex.of({0: 1, 1: 1}, {0: [[3]]})
        assert homology(c) == GradedModule.of({1: [Cyclic.torsion(3, 1)]})


def test_verify_minor_gcds_against_the_cofactor_oracle():
    # verify's oracle expands each minor along its first row over the smaller
    # minors; gcd_of_minors takes each one's cofactor determinant afresh
    rng = random.Random(71)
    shapes = [(r, c) for r in range(7) for c in range(7)]
    for r, c in shapes * 4:
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        if r and c and rng.random() < 0.3:
            rows[rng.randrange(r)] = [0] * c
        if r and c and rng.random() < 0.3:
            j = rng.randrange(c)
            for row in rows:
                row[j] = 0
        m = IntMatrix.of(rows)
        assert verify._minor_gcds(m) == gcd_of_minors(m), m.entries


class TestDeterminant:
    def test_against_cofactor_expansion(self):
        # determinant is the oracle of verify's unimodularity check: row
        # exchanges, singular matrices and zero pivots included
        rng = random.Random(47)
        for _ in range(300):
            n = rng.randint(1, 5)
            m = _low_rank(rng, n, n, rng.choice([n, n, n - 1]), rng.choice([1, 9, 10**20]))
            assert determinant(m) == cofactor_det(m), m.entries
        assert determinant(IntMatrix.of([[0, 1], [1, 0]])) == -1
        assert determinant(IntMatrix.of([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == -1
        assert determinant(zeros(0, 0)) == 1
        with pytest.raises(ValueError, match="square"):
            determinant(zeros(2, 3))


class TestProductKernel:
    def test_against_naive_product(self):
        rng = random.Random(46)
        for _ in range(200):
            r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
            bound = rng.choice([9, 10**30])
            a = IntMatrix(r, k, tuple(tuple(rng.randint(-bound, bound) for _ in range(k)) for _ in range(r)))
            b = IntMatrix(k, c, tuple(tuple(rng.randint(-bound, bound) for _ in range(c)) for _ in range(k)))
            want = tuple(
                tuple(sum(a[i, t] * b[t, j] for t in range(k)) for j in range(c)) for i in range(r)
            )
            assert a.mul(b) == IntMatrix(r, c, want)

    def test_zero_test_agrees_with_the_product(self):
        # b.cols on both sides of the four-column rule; the last row of b is
        # a combination of the others, and rows of a that take it back give
        # a zero row of a.b, sometimes spoiled by one or by HIDDEN
        rng = random.Random(48)
        zero_rows = 0
        for _ in range(600):
            r, k, c = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 12)
            bound = rng.choice([1, 9, 10**30])
            b = [[rng.choice([0, 0, rng.randint(-bound, bound)]) for _ in range(c)] for _ in range(k)]
            lam = [rng.randint(-3, 3) for _ in range(k - 1)]
            if k:
                b[-1] = [sum(map(operator.mul, lam, col)) for col in zip(*b[:-1])] if k > 1 else [0] * c
            a = []
            for _ in range(r):
                if k and rng.random() < 0.6:
                    s = rng.randint(-bound, bound)
                    row = [s * x for x in lam] + [-s]
                    row[rng.randrange(k)] += rng.choice([0, 0, 1, self.HIDDEN])
                else:
                    row = [rng.choice([0, 0, rng.randint(-bound, bound)]) for _ in range(k)]
                a.append(row)
            a, b = IntMatrix(r, k, tuple(map(tuple, a))), IntMatrix(k, c, tuple(map(tuple, b)))
            product = a.mul(b)
            zero_rows += sum(any(row) and not any(out) for row, out in zip(a.entries, product.entries))
            assert homalg._product_is_zero(a, b) == product.is_zero()
        assert zero_rows >= 100
        assert not homalg._product_is_zero(IntMatrix.of([[self.HIDDEN]]), IntMatrix.of([[1]]))
        assert not homalg._product_is_zero(IntMatrix.of([[self.HIDDEN]]), IntMatrix.of([[0, 0, 0, 0, 1]]))
        # the row (2^t, -1, 0, 0, 0) packs to zero at width t: a width too
        # narrow for the bound, which the entry s of a raises, fails here
        for t in range(1, 80):
            b = IntMatrix.of([[2**t, -1, 0, 0, 0], [0] * 5])
            for s in range(10):
                assert not homalg._product_is_zero(IntMatrix.of([[1, 0], [0, 2**s]]), b)

    def test_empty_shapes(self):
        for k in (0, 1, 3):
            assert zeros(0, k).mul(zeros(k, 0)) == zeros(0, 0)
            assert zeros(k, 0).mul(zeros(0, k)) == zeros(k, k)
            assert zeros(0, k).mul(zeros(k, 2)) == zeros(0, 2)
            assert zeros(2, 0).mul(zeros(0, k)) == zeros(2, k)
        with pytest.raises(ValueError, match="shape mismatch"):
            zeros(2, 3).mul(zeros(2, 3))
        # past four columns of b, where the zero test packs the rows of b
        for k in (0, 1, 3):
            assert homalg._product_is_zero(zeros(0, k), zeros(k, 5))
            assert homalg._product_is_zero(zeros(k, 0), zeros(0, 6))

    # Nonzero, but zero modulo 2^64 and modulo the Mersenne prime 2^61 - 1:
    # a check reduced modulo either would let it pass.
    HIDDEN = (2**61 - 1) << 64

    def test_d_squared_is_checked_exactly(self):
        a, b = 10**40 + 7, 3 * 10**40 + 1
        PerfectComplex.of({0: 1, 1: 2, 2: 1}, {0: [[a], [b]], 1: [[b, -a]]})
        with pytest.raises(ValueError, match="d twice"):
            PerfectComplex.of({0: 1, 1: 2, 2: 1}, {0: [[1], [0]], 1: [[self.HIDDEN, 5]]})
        # five columns, so d twice is tested by packed rows
        PerfectComplex.of({0: 5, 1: 2, 2: 1}, {0: [[a, -a, 0, 2 * a, a], [b, -b, 0, 2 * b, b]], 1: [[b, -a]]})
        with pytest.raises(ValueError, match="^d twice is nonzero between degrees 0 and 2$"):
            PerfectComplex.of(
                {0: 5, 1: 2, 2: 1},
                {0: [[a, -a, 0, 2 * a, a], [b, -b, 0, 2 * b, b]], 1: [[b + self.HIDDEN, -a]]},
            )

    def test_chain_map_commutation_is_checked_exactly(self):
        a, b = 2**61 - 1, 2**64
        src = PerfectComplex.of({0: 1, 1: 1}, {0: [[a]]})
        dst = PerfectComplex.of({0: 1, 1: 1}, {0: [[b]]})
        ChainMap.of(src, dst, {0: [[a]], 1: [[b]]})
        with pytest.raises(ValueError, match="not a chain map at degree 0"):
            # d f - f d = b (a + 1) - b a = 2^64
            ChainMap.of(src, dst, {0: [[a + 1]], 1: [[b]]})
        with pytest.raises(ValueError, match="not a chain map at degree 0"):
            # d f - f d = b a - (b + HIDDEN) a
            ChainMap.of(src, dst, {0: [[a]], 1: [[b + self.HIDDEN]]})


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

    def test_lookups_leave_equality_and_hash_alone(self):
        def build():
            c = tensor_chain(mult_complex(2), mult_complex(6, -1))
            return c, ChainMap.of(c, c, {n: identity(r) for n, r in c.ranks})

        (c, f), (c_fresh, f_fresh) = build(), build()
        # the first lookups keep a dict on c and f, outside their fields
        assert c.rank(0) == 2 and c.rank(5) == 0
        assert c.diff_of.get(-1) == IntMatrix.of([[6], [2]])
        assert c.diff_of.get(5) is None
        assert f.component_of.get(0) == identity(2)
        assert f.component_of.get(5) is None
        assert c == c_fresh and hash(c) == hash(c_fresh) and repr(c) == repr(c_fresh)
        assert f == f_fresh and hash(f) == hash(f_fresh) and repr(f) == repr(f_fresh)

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

    def test_odd_shifts_negate_the_differentials(self):
        # (shift^k C)^n = C^{n+k} with differential (-1)^k d; homology cannot
        # see the sign, so it is pinned on the matrices
        c = tensor_chain(mult_complex(2), mult_complex(3, -1))
        diffs = dict(c.diffs)
        assert len(diffs) == 2
        for k in (1, -1, 3):
            assert dict(shift(c, k).diffs) == {n - k: d.neg() for n, d in diffs.items()}
        for k in (2, -2):
            assert dict(shift(c, k).diffs) == {n - k: d for n, d in diffs.items()}

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

    def test_matches_kronecker_block_oracle(self):
        rng = random.Random(29)
        zero = PerfectComplex.of({})
        both_differentials = 0
        for max_cells in (1, 2, 3, 4):
            for _ in range(30):
                a, _ = random_complex(rng, max_cells=max_cells)
                b, _ = random_complex(rng, max_cells=max_cells)
                for pair in ((a, b), (b, a), (a, zero), (zero, b)):
                    assert tensor_chain(*pair) == naive_tensor_chain(*pair)
                # a shift by one puts each block of a in a degree of the other
                # parity, so the Koszul sign is taken both ways
                odd = shift(a, 1)
                assert tensor_chain(odd, b) == naive_tensor_chain(odd, b)
                both_differentials += bool(a.diffs and b.diffs)
        assert both_differentials >= 20


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

    # Squares that fail to commute where only d.f, only f.d, or both have
    # two present factors; the error names the lowest failing degree.
    @pytest.mark.parametrize(
        "src, dst, maps, degree",
        [
            # degree 0 has neither product; at degree 1 f_2 is absent
            (
                PerfectComplex.of({0: 1, 1: 1}),
                PerfectComplex.of({0: 1, 1: 1, 2: 1}, {1: [[3]]}),
                {0: [[1]], 1: [[1]]},
                1,
            ),
            # d_B^0 is absent; degree 1 fails too, by d.f alone
            (
                PerfectComplex.of({0: 1, 1: 1}, {0: [[5]]}),
                PerfectComplex.of({1: 1, 2: 1}, {1: [[1]]}),
                {1: [[1]]},
                0,
            ),
            (mult_complex(2, -1), mult_complex(4, -1), {-1: [[1]], 0: [[1]]}, -1),
        ],
        ids=["only-left", "only-right", "both"],
    )
    def test_rejects_a_square_that_fails_to_commute(self, src, dst, maps, degree):
        with pytest.raises(ValueError, match=f"^not a chain map at degree {degree}: d.f != f.d$"):
            ChainMap.of(src, dst, maps)

    def test_random_chain_maps_have_their_planted_homology(self):
        for seed in range(400):
            f, h_src, h_dst, h_cone = random_chain_map(random.Random(seed))
            assert homology(f.src) == h_src, seed
            assert homology(f.dst) == h_dst, seed
            assert homology(cone(f)) == h_cone, seed
            assert f.components, seed

    def test_random_chain_maps_pinned(self):
        # a change to the draws, their order, the block layout of the
        # target or the shears changes these maps or their homology
        h = hashlib.sha256()
        for seed in range(400):
            rng = random.Random(seed)
            h.update(repr((random_chain_map(rng), rng.getstate())).encode())
        assert h.hexdigest() == "3b4a33e39e6490139eb21226ead223610fe610dad9120f134a6f33cea11f7c6c"

    @pytest.mark.parametrize(
        "sizes, digest",
        [
            # the sizes verify draws
            ((3, 4), "0a13054b0bd6d1ffb5a707c3ed943976e33c0387d2ee90db2616b24a5bb8ebd3"),
            # more cells than verify draws: a degree may pass rank 4
            ((6,), "622f1f0caa3879fe5d0a630442ad9d9c7f061f2b864f840096fae3ecd069f59e"),
        ],
        ids=["verify-sizes", "six-cells"],
    )
    def test_random_complexes_pinned(self, sizes, digest):
        # a change to the draws, their order or the cell layout changes
        # these complexes, their homology or the generator state after them
        h = hashlib.sha256()
        for max_cells in sizes:
            for seed in range(400):
                rng = random.Random(seed)
                c, expected = random_complex(rng, max_cells=max_cells)
                h.update(repr((c, expected, rng.getstate())).encode())
        assert h.hexdigest() == digest

    def test_random_complex_gives_up_past_the_entry_bound(self):
        class Topmost(random.Random):
            """Every draw at the top of its range: each cell multiplies by 9
            from degree 1 to 2, and each shear doubles a row."""

            def random(self):
                return 0.99

            def randint(self, a, b):
                return b

            def choice(self, seq):
                return max(seq)

        with pytest.raises(RuntimeError, match="^failed to sample a complex within the entry bound$"):
            within(5, lambda: random_complex(Topmost(0)))

    def test_random_cones_are_complexes(self):
        rng = random.Random(13)
        for _ in range(40):
            f, *_ = random_chain_map(rng)
            cone(f)  # construction validates d twice = 0

    def test_direct_sum_homology(self):
        a, b = mult_complex(4), shift(unit_complex(), 1)
        assert homology(direct_sum(a, b)) == homology(a).plus(homology(b))

    def test_matches_block_oracle(self):
        rng = random.Random(31)
        zero = PerfectComplex.of({})
        for _ in range(120):
            f, *_ = random_chain_map(rng)
            assert cone(f) == naive_cone(f)
            a, b = f.src, f.dst
            for src, dst in ((a, b), (b, a), (a, zero), (zero, b), (zero, zero)):
                # a map with no components at all
                f0 = ChainMap.of(src, dst, {})
                assert cone(f0) == naive_cone(f0)

    def test_direct_sum_matches_block_oracle(self):
        catalogue = compact_catalogue()
        for a in catalogue:
            for b in catalogue:
                assert direct_sum(a, b) == naive_direct_sum(a, b)

    def test_scalar_cone_is_the_cone_of_n(self):
        u = unit_complex()
        for n in range(-30, 31):
            assert scalar_cone(n) == cone(ChainMap.of(u, u, {0: [[n]]}))
