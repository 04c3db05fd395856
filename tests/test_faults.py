"""Faults that verify records must catch.

Each row puts one fault into the library and runs one record's check alone
(or all of ``verify``, for the sigma-tau probes), and asserts that the
record fails.  The first table puts its faults into ``homalg``: the
expected side of each of its records is the homology that ``randgen`` knows
by construction of its random complexes and chain maps, which no Smith
form computes, so a fault in ``homology`` reaches only the side it
computes.  The rows after it fault ``balmer``'s membership probes,
``verify``'s view of homology, ``localize_point``, the support that
``balmer`` reads off an object's blocks, the torsion factoriser's
exponents, ``modcalc._products``, the table of tensor and Tor of two
blocks, ``Module.plus``, the localisation idempotent ``l_v``, the
interning of the prime sets that the set algebra builds, the two
primitives of that algebra, ``intersect`` and ``complement``, in
``PrimeSet`` and in ``PointSet``, the primes of a catalogue's spectrum, and
the Smith forms that ``check_snf`` is handed.  Every row starts and ends
with no interned prime set linked to its complement.  The last test holds
every record of ``verify`` to a fault row.
"""

import json

import pytest

from ttsupport import balmer, homalg, modcalc, verify, znum
from ttsupport.cli import MIN_CASES, main
from ttsupport.homalg import IntMatrix, SNFResult
from ttsupport.modcalc import Cyclic, GradedModule, Module
from ttsupport.supportdata import Catalogue, FiniteSpace, SupportDatum
from ttsupport.znum import PointSet, PrimeSet, SpclSubset

# the verify checks that some row below makes fail, filled in by fault_row
COVERED = set()


def fault_row(*checks):
    """Mark a test as a fault row of the verify checks it makes fail."""

    def mark(test):
        COVERED.update(checks)
        return test

    return mark


@pytest.fixture(autouse=True)
def cold_complements():
    # an interned PrimeSet keeps its complement for the process: start every
    # row from none linked, so that each complement is built again under the
    # fault, and keep no link made under it.  PointSet and SpclSubset keep
    # theirs on the instances a row makes and drops.
    def clear():
        for s in znum._PRIMESETS.values():
            object.__setattr__(s, "_not", None)

    clear()
    yield
    clear()


@pytest.fixture
def cold_gamma_point():
    # gamma_point keeps its values for the process: start from none made
    # before the fault, and keep none made under it
    balmer.gamma_point.cache_clear()
    yield
    balmer.gamma_point.cache_clear()


REAL_TORSION_CYCLICS = homalg._torsion_cyclics
REAL_SMITH_FACTORS = homalg.smith_factors


def without_three_primary(factor):
    return tuple(c for c in REAL_TORSION_CYCLICS(factor) if c.p != 3)


def without_last_factor(m):
    return REAL_SMITH_FACTORS(m)[:-1]


def exponents_flattened(factor):
    # Z/9 read as Z/3: every support stays as it was
    return tuple(Cyclic.torsion(c.p, 1) for c in REAL_TORSION_CYCLICS(factor))


# row id -> (the homalg function replaced, the fault put in its place)
FAULTS = {
    "_torsion_cyclics": ("_torsion_cyclics", without_three_primary),
    "exponents_flattened": ("_torsion_cyclics", exponents_flattened),
    "smith_factors": ("smith_factors", without_last_factor),
}

# homology-oracle: homology(c) against the cells' homology itself;
# shift-homology: homology(shift(c, k)) against the cells' homology shifted;
# tensor-commutes and kunneth-chain-oracle: homology(tensor_chain(a, b))
# against the Kunneth product of the cells' homology (tensor-commutes also
# with b, a); triangle-subadditivity: homology(cone(f)) against the cone
# homology planted with the chain map, before any support is compared
RECORDS = {
    "homalg.homology-oracle": verify.check_homology_oracle,
    "homalg.shift-homology": verify.check_shift_homology,
    "homalg.tensor-commutes": verify.check_tensor_commutes,
    "modcalc.kunneth-chain-oracle": verify.check_kunneth_chain_oracle,
    "balmer.triangle-subadditivity": verify.check_triangle_subadditivity,
}


@fault_row(*RECORDS.values())
@pytest.mark.parametrize("record", sorted(RECORDS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_record_fails_under_homology_fault(monkeypatch, fault, record):
    monkeypatch.setattr(homalg, *FAULTS[fault])
    rec = RECORDS[record](verify.VerifyContext(42, 300, 100))
    assert rec.name == record
    assert not rec.passed
    if record == "balmer.triangle-subadditivity":
        assert rec.detail.startswith("cone homology ")


@fault_row(verify.check_sigma_tau)
@pytest.mark.parametrize("probe", ["thick_membership", "tau_loc"])
def test_sigma_tau_fails_on_a_wrong_membership_probe(capsys, monkeypatch, probe):
    monkeypatch.setattr(balmer, probe, lambda *args: True)
    code = main(["--format", "json", "verify", "--cases", str(MIN_CASES), "--primes-bound", "30"])
    out = capsys.readouterr().out
    assert code == 1
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["17.balmer.sigma-tau-roundtrips"]
    # the one probe is thick_membership, which decides through tau_loc
    assert failed[0]["detail"] == (
        "membership of catalogue[0] in thick([4, 7]) disagrees with subset code {(2), (3)}"
    )


@fault_row(verify.check_sigma_tau)
def test_sigma_tau_fails_when_a_round_trip_raises(monkeypatch):
    # prime_to_point raises when its probe disagrees with its structure;
    # the record fails and names the exception, and verify goes on
    def disagreeing(v):
        raise AssertionError("probe recovered (0), structure says (2)")

    monkeypatch.setattr(balmer, "prime_to_point", disagreeing)
    record = verify.check_sigma_tau(verify.VerifyContext(42, MIN_CASES, 30))
    assert not record.passed
    assert record.detail == (
        "phi-inverse of phi((2)) gives AssertionError('probe recovered (0), structure says (2)')"
    )


@fault_row(verify.check_supp_agreement)
def test_supp_agreement_fails_when_homology_drops_torsion(monkeypatch):
    # supp_object and the pointwise probes both read the wrong homology,
    # so only the support of the homology known from the cells can tell
    real = verify.homology

    def torsion_free(c):
        h = real(c)
        return GradedModule.of(
            {n: [b for b in h.module_in(n).cyclics() if b.kind != "torsion"] for n in h.degrees()}
        )

    monkeypatch.setattr(verify, "homology", torsion_free)
    record = verify.check_supp_agreement(verify.VerifyContext(42, MIN_CASES, 30))
    assert not record.passed
    assert record.detail.startswith("abstract vs homological support differ")


@fault_row(verify.check_supp_agreement)
def test_supp_agreement_fails_when_localize_point_ignores_torsion(monkeypatch):
    # homology over Z has only Z and Z/p^k blocks, so ignoring torsion
    # is the blind spot of localize_point that this check can see
    real = modcalc.localize_point

    def blind(x, m):
        return real(x, Module(tuple(cm for cm in m.parts if cm[0].kind != "torsion")))

    monkeypatch.setattr(modcalc, "localize_point", blind)
    record = verify.check_supp_agreement(verify.VerifyContext(42, MIN_CASES, 30))
    assert not record.passed
    assert record.detail.startswith("pointwise probes disagree")


REAL_SUPP_BLOCKS = modcalc.supp_blocks


@fault_row(verify.check_zero_detection)
def test_zero_detection_fails_when_supports_skip_free_blocks(monkeypatch):
    # supp_object reads its blocks through supp_blocks, and x.is_zero()
    # reads no support, so an object with a free block shows the fault
    def without_free(blocks):
        return REAL_SUPP_BLOCKS(c for c in blocks if c.kind != "free")

    monkeypatch.setattr(balmer, "supp_blocks", without_free)
    record = verify.check_zero_detection(verify.VerifyContext(42, MIN_CASES, 30))
    assert not record.passed
    assert record.detail.startswith("zero detection failed on {2: Z[1/11,1/13] + 2*Z[1/17]}")


@fault_row(verify.check_ltg)
def test_local_to_global_fails_when_localize_point_ignores_prufer(monkeypatch):
    # supp_object reads a Prufer family's support off its block, not through
    # the probe; ten cases draw no Prufer block, so 30.  supp-agreement still
    # passes under this fault: it probes localize_point only on the homology
    # of random complexes, which has no Prufer blocks
    real = balmer.localize_point

    def blind(x, m):
        return real(x, Module(tuple(cm for cm in m.parts if cm[0].kind != "prufer")))

    monkeypatch.setattr(balmer, "localize_point", blind)
    record = verify.check_ltg(verify.VerifyContext(42, 30, 100))
    assert not record.passed
    assert record.detail.startswith("{every (p) except p in {5, 7}} != the localisations at (2)")


@fault_row(verify.check_closed_forms)
def test_closed_forms_fails_when_homology_lowers_an_exponent(monkeypatch):
    # the tower step reads Z/p^k off the homology of cone(Z --p^k--> Z),
    # so a homology that finds Z/p^(k-1) fails it
    def lowered(factor):
        return tuple(
            Cyclic.torsion(p, e - 1) for p, e in sorted(znum.factorint(factor).items()) if e > 1
        )

    monkeypatch.setattr(homalg, "_torsion_cyclics", lowered)
    record = verify.check_closed_forms(verify.VerifyContext(42, MIN_CASES, 30))
    assert record.name == "balmer.closed-forms" and not record.passed
    assert record.detail.startswith("truncation step 2^1 has homology")


REAL_PRODUCTS = modcalc._products


def first_of_a_torsion_pair(a, b):
    # Z/p^j x Z/p^k is Z/p^min(j,k); this fault answers with its first block
    if a.kind == b.kind == "torsion" and a.p == b.p:
        return a, a
    return REAL_PRODUCTS(a, b)


def smaller_prime_of_a_torsion_pair(a, b):
    # Z/p x Z/q is zero for primes p != q; this fault answers with the block
    # of the smaller prime
    if a.kind == b.kind == "torsion" and a.p != b.p:
        return min(a, b, key=lambda c: c.p), None
    return REAL_PRODUCTS(a, b)


def without_prufer_tor(a, b):
    tensor, tor = REAL_PRODUCTS(a, b)
    return tensor, None if a.kind == b.kind == "prufer" else tor


# table-symmetry compares tensor_mod and tor_mod of (a, b) with those of
# (b, a), and kunneth-laws kunneth(x, y) with kunneth(y, x): the fault answers
# with its first argument, so swapping them moves the wrong answer to the
# other side; idempotent-laws compares kunneth(g, g) with g = gamma_v(v),
# whose Prufer family is built in closed form, and only Tor keeps it in g x g;
# supp-laws compares the support of kunneth(x, y) with the meet of the
# supports of x and y, which are read off their own blocks with no product
PRODUCT_FAULTS = [
    (first_of_a_torsion_pair, verify.check_table_symmetry, 10, "tensor not symmetric at"),
    (first_of_a_torsion_pair, verify.check_kunneth_laws, 100, "commutativity failed on"),
    (without_prufer_tor, verify.check_idempotent_laws, MIN_CASES, "gamma not idempotent at"),
    (smaller_prime_of_a_torsion_pair, verify.check_supp_laws, MIN_CASES,
     "product support not inside intersection on"),
]


@fault_row(*(check for _, check, _, _ in PRODUCT_FAULTS))
@pytest.mark.parametrize(
    "fault, check, cases, detail",
    PRODUCT_FAULTS,
    ids=["table-symmetry", "kunneth-laws", "idempotent-laws", "supp-laws"],
)
def test_record_fails_under_a_block_product_fault(monkeypatch, fault, check, cases, detail):
    monkeypatch.setattr(modcalc, "_products", fault)
    record = check(verify.VerifyContext(42, cases, 30))
    assert not record.passed
    assert record.detail.startswith(detail)


REAL_L_V = balmer.l_v


def l_v_twice(v):
    # l_V(1) is one block Z[S^-1]; this fault returns the block twice
    l = REAL_L_V(v)
    return l.plus(l)


def l_v_inverting_one_prime_fewer(v):
    # l_V(1) inverts every prime of V; this fault leaves V's least prime out
    if v.is_all:
        return REAL_L_V(v)
    least = PrimeSet.of(v.closed.up_to(50)[:1])
    return REAL_L_V(SpclSubset.closed_points(v.closed.difference(least)))


# idempotent-laws compares kunneth(l, l) with l: the expected side holds the
# doubled block twice, but the product of two doubled blocks holds it four
# times.  It compares kunneth(g, l) with the constant 0, and g = gamma_V(1) is
# built from V in closed form, so the Prufer group of the prime that the
# faulty l leaves uninverted survives the product; l itself stays idempotent.
L_V_FAULTS = [
    (l_v_twice, "l not idempotent at closed points of {}"),
    (l_v_inverting_one_prime_fewer, "gamma x l nonzero at closed points of all primes"),
]


@fault_row(verify.check_idempotent_laws)
@pytest.mark.parametrize("fault, detail", L_V_FAULTS, ids=[f.__name__ for f, _ in L_V_FAULTS])
def test_idempotent_laws_fails_under_a_wrong_localisation_idempotent(monkeypatch, fault, detail):
    monkeypatch.setattr(balmer, "l_v", fault)
    record = verify.check_idempotent_laws(verify.VerifyContext(42, MIN_CASES, 30))
    assert record.name == "balmer.idempotent-laws" and not record.passed
    assert record.detail == detail


@fault_row(verify.check_supp_laws)
def test_supp_laws_fails_when_plus_drops_its_left_summand(monkeypatch):
    # the sum law compares the support of x.plus(y) with the union of the
    # supports of x and y, each read off its own blocks with no sum formed
    monkeypatch.setattr(Module, "plus", lambda self, other: other)
    record = verify.check_supp_laws(verify.VerifyContext(42, 30, 100))
    assert record.name == "modcalc.supp-laws" and not record.passed
    assert record.detail.startswith("sum law failed on")


def uninterned(cls, finite, primes):
    # the set algebra's result built anew on every call, as if its table
    # were skipped: equal in value to the interned set, but another object
    out = object.__new__(PrimeSet)
    listed = frozenset(primes)
    object.__setattr__(out, "finite", finite)
    object.__setattr__(out, "primes", tuple(sorted(listed)))
    object.__setattr__(out, "listed", listed)
    object.__setattr__(out, "_not", None)
    return out


# Equality of prime sets is identity.  The fault reaches only the results of
# union, intersect, complement and the empty and full sets, which go through
# PrimeSet._checked; each record compares one with a set the validating
# constructors intern: spcl-lattice-laws a join with its random inputs,
# point-functors V(x) minus Z(x) with the singleton PrimeSet.of([p]), and
# gamma-uniqueness a pair's difference with that same singleton.
INTERNING_FAULTS = [
    (verify.check_spcl_subset_lattice, "join-comm on"),
    (verify.check_point_functors, "V\\(Z meet V) at (0)"),
    (verify.check_gamma_uniqueness,
     "pair (closed points of {2}; closed points of {}) does not isolate (2)"),
]


@fault_row(*(check for check, _ in INTERNING_FAULTS))
@pytest.mark.parametrize(
    "check, detail",
    INTERNING_FAULTS,
    ids=["spcl-lattice-laws", "point-functors", "gamma-uniqueness"],
)
def test_record_fails_when_the_set_algebra_skips_interning(
    monkeypatch, cold_gamma_point, check, detail
):
    monkeypatch.setattr(PrimeSet, "_checked", classmethod(uninterned))
    record = check(verify.VerifyContext(42, 10, 30))
    assert not record.passed
    assert record.detail.startswith(detail)


def test_no_interned_set_keeps_a_complement_from_outside_the_table(monkeypatch, cold_gamma_point):
    # under the interning fault every complement is built outside the table;
    # a set from outside it, kept past the fault, is complemented after it
    with monkeypatch.context() as fault:
        fault.setattr(PrimeSet, "_checked", classmethod(uninterned))
        for check, _ in INTERNING_FAULTS:
            check(verify.VerifyContext(42, 10, 30))
        stray = PrimeSet.none()
    assert stray.complement() is PrimeSet.all_primes()
    table = znum._PRIMESETS
    assert stray not in table.values()
    assert [s for s in table.values() if s._not is not None and s._not is not table.get(
        (s._not.finite, s._not.listed))] == []


REAL_INTERSECT = PrimeSet.intersect
REAL_COMPLEMENT = PrimeSet.complement


def meet_of_cofinites_excluding_too_little(self, other):
    # all primes but L1 met with all primes but L2 is all primes but L1 | L2;
    # this fault excludes only L1 & L2
    if not self.finite and not other.finite:
        return PrimeSet._checked(False, self.listed & other.listed)
    return REAL_INTERSECT(self, other)


def complement_dropping_two_from_its_list(self):
    # the complement lists the same primes; this fault drops 2 from the list
    return PrimeSet._checked(not self.finite, self.listed - {2})


def complement_without_two(self):
    # this fault leaves the prime 2 out of every complement
    out = REAL_COMPLEMENT(self)
    return PrimeSet._checked(out.finite, out.listed - {2} if out.finite else out.listed | {2})


def meet_keeping_the_left_generic_flag(self, other):
    # the generic point lies in a meet only when both operands hold it;
    # this fault keeps the left operand's flag
    return PointSet(self.generic, self.closed.intersect(other.closed))


def complement_keeping_the_generic_flag(self):
    # the complement holds the generic point exactly when the set does not;
    # this fault keeps the flag
    return PointSet(self.generic, self.closed.complement())


# PrimeSet.intersect and complement are the primitives of the set algebra:
# union, difference and leq are written through them; PointSet's union and
# leq are written through its own two, which read PrimeSet's, and
# SpclSubset's lattice through PointSet's.
# primeset-bruteforce: the model applies Python's set operations to the
#   members each input lists up to the bound (up_to), which calls neither;
# separation: the fault reaches both sides, but with other operands:
#   l_V(1) x X unites the finite sets of primes two free blocks invert, the
#   expected side meets supp X with the complement of V, and for V at
#   {3, 5, 7} the two answers differ;
# localization-triangles: gamma_V(1) x l_V(1) at V = {2} takes the Prufer
#   family {2} minus the inverted {2} through the complement, and the
#   expected side is the constant 0;
# local-to-global: gamma_(2) x X is compared with supp X, which supp_object
#   reads off X's blocks in one pass with no set operation;
# residue-lemma: Q x Z[1/T] unites all primes with T, and the expected
#   block Q is Cyclic.rationals(), built in closed form;
# sigma-tau-roundtrips: sigma(tau(W)) is read off the generators' blocks in
#   one pass, but the membership probe and prime_to_point decide through
#   leq, and the expected side is the localisation at each point; a probe
#   that disagrees with its structure is a failed record, not a crash;
# spcl-lattice-laws: the expected sides are the random inputs and the
#   constant top and bottom, built by their constructors;
# supp-laws: the sum law's left side, the support of x + y, is read off its
#   blocks in one pass, and only the union of the summands' supports goes
#   through the algebra;
# point-functors: V(x) minus Z(x) is compared with PointSet.singleton(x).
SET_ALGEBRA_FAULTS = [
    (PrimeSet, "intersect", meet_of_cofinites_excluding_too_little,
     verify.check_primeset_bruteforce, "union({3, 19, 23}, {}): [] != [3, 19, 23]"),
    (PrimeSet, "intersect", meet_of_cofinites_excluding_too_little,
     verify.check_separation, "l separation failed: V=closed points of {3, 5, 7}"),
    (PrimeSet, "complement", complement_dropping_two_from_its_list,
     verify.check_localization_triangles, "closed points of {2}: triangle.gamma-tensor-l-vanishes"),
    (PrimeSet, "complement", complement_dropping_two_from_its_list, verify.check_ltg,
     "0 != {(2)}"),
    (PrimeSet, "complement", complement_without_two, verify.check_residue, "Z_(2) != Q"),
    (PrimeSet, "complement", complement_dropping_two_from_its_list, verify.check_sigma_tau,
     "membership of catalogue[3] in thick([4, 7]) disagrees with subset code {(2), (3)}"),
    (PointSet, "intersect", meet_keeping_the_left_generic_flag,
     verify.check_spcl_subset_lattice, "top on ("),
    (PointSet, "intersect", meet_keeping_the_left_generic_flag, verify.check_supp_laws,
     "sum law failed on ("),
    (PointSet, "complement", complement_keeping_the_generic_flag,
     verify.check_point_functors, "V\\(Z meet V) at (0): {}"),
    (PointSet, "complement", complement_keeping_the_generic_flag,
     verify.check_spcl_subset_lattice, "top on ("),
]


@fault_row(*(check for _, _, _, check, _ in SET_ALGEBRA_FAULTS))
@pytest.mark.parametrize(
    "cls, name, fault, check, detail",
    SET_ALGEBRA_FAULTS,
    ids=[
        "primeset-bruteforce",
        "separation",
        "localization-triangles",
        "local-to-global",
        "residue-lemma",
        "sigma-tau-roundtrips",
        "pointset-intersect-spcl-lattice-laws",
        "pointset-intersect-supp-laws",
        "pointset-complement-point-functors",
        "pointset-complement-spcl-lattice-laws",
    ],
)
def test_record_fails_under_a_set_algebra_fault(
    monkeypatch, cold_gamma_point, cls, name, fault, check, detail
):
    monkeypatch.setattr(cls, name, fault)
    record = check(verify.VerifyContext(42, MIN_CASES, 100))
    assert not record.passed
    assert record.detail.startswith(detail)


def every_proper_ideal_prime(cat):
    # a proper ideal is prime only when it holds no product of two objects
    # outside it; this fault takes every proper ideal as prime
    n = cat.size
    primes = [p for p in cat.ideals if len(p) < n]
    order = [(p, q) for p in primes for q in primes if q <= p]
    sigma = [frozenset(p for p in primes if i not in p) for i in range(n)]
    return SupportDatum.of(FiniteSpace.of(primes, order), sigma)


# model5 counts the spectrum's points against the worked example's constant
# 2; random-catalogues checks the support axioms, which check_axioms reads
# off the catalogue's tensor, sum and triangle tables, not the spectrum
SPECTRUM_FAULTS = [
    (verify.check_model5, "expected 2 primes, got 3"),
    (verify.check_random_catalogues, "axioms failed on a random catalogue"),
]


@fault_row(*(check for check, _ in SPECTRUM_FAULTS))
@pytest.mark.parametrize("check, detail", SPECTRUM_FAULTS, ids=["model5", "random-catalogues"])
def test_record_fails_when_every_proper_ideal_is_prime(monkeypatch, check, detail):
    # a plain property: a cached_property set on a made class has no name to cache under
    monkeypatch.setattr(Catalogue, "spectrum", property(every_proper_ideal_prime))
    record = check(verify.VerifyContext(42, MIN_CASES, 30))
    assert not record.passed
    assert record.detail.startswith(detail)


REAL_SNF = homalg.snf


def scaled(m, k, rows):
    """m with each of the given rows multiplied by k."""
    return IntMatrix(m.rows, m.cols, tuple(
        tuple(k * x for x in row) if i in rows else row for i, row in enumerate(m.entries)
    ))


def u_first_row_negated(r):
    # u * m * v is d with its first row negated
    return SNFResult(scaled(r.u, -1, {0}), r.d, r.v, r.invariant_factors)


def u_and_d_doubled(r):
    # u * m * v = d still holds, but det u is 2^n
    return SNFResult(scaled(r.u, 2, range(r.u.rows)), scaled(r.d, 2, range(r.d.rows)), r.v,
                     r.invariant_factors)


def factors_reversed(r):
    return SNFResult(r.u, r.d, r.v, r.invariant_factors[::-1])


def last_factor_doubled(r):
    f = r.invariant_factors
    return SNFResult(r.u, r.d, r.v, f[:-1] + tuple(2 * x for x in f[-1:]))


def last_factor_dropped(r):
    return SNFResult(r.u, r.d, r.v, r.invariant_factors[:-1])


# Each fault wraps snf's result as verify sees it; snf's own closing check
# that u * m * v = d runs before the wrapper, so it cannot stop the fault.
# The expected side of check_snf is _minor_gcds and determinant, and neither
# calls snf.
SNF_FAULTS = [
    (u_first_row_negated, "UMV != D for ((-6, 9), (1, -4), (-9, -4), (1, 9))"),
    (u_and_d_doubled, "transforms not unimodular for ((-6, 9), (1, -4), (-9, -4), (1, 9))"),
    (factors_reversed, "divisibility chain broken: (2, 1)"),
    (last_factor_doubled, "minor oracle: prod d_1..d_2 = 2 != 1"),
    (last_factor_dropped, "rank disagrees with minors for ((-6, 9), (1, -4), (-9, -4), (1, 9))"),
]


@fault_row(verify.check_snf)
@pytest.mark.parametrize(
    "fault, detail", SNF_FAULTS, ids=[fault.__name__ for fault, _ in SNF_FAULTS]
)
def test_snf_fails_under_a_wrong_smith_form(monkeypatch, fault, detail):
    monkeypatch.setattr(verify, "snf", lambda m: fault(REAL_SNF(m)))
    record = verify.check_snf(verify.VerifyContext(42, MIN_CASES, 30))
    assert record.name == "homalg.snf" and not record.passed
    assert record.detail == detail


def test_every_record_has_a_fault_row():
    assert [check.__name__ for check in verify.CHECKS if check not in COVERED] == []
    assert COVERED <= set(verify.CHECKS)
