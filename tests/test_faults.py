"""Faults that verify records must catch.

Each row puts one fault into the library and runs one record's check alone
(or all of ``verify``, for the sigma-tau probes), and asserts that the
record fails.  The first table puts its faults into ``homalg``: the
expected side of each of its records is the homology that ``randgen`` knows
from the cells of its random complexes, which no Smith form computes, so a
fault in ``homology`` reaches only the side it computes.  The rows after it
fault ``balmer``'s membership probes, ``verify``'s view of homology,
``modcalc.localize_point``, the torsion factoriser's exponents,
``modcalc._products``, the table of tensor and Tor of two blocks,
``Module.plus``, and the interning of the prime sets that the set algebra
builds.
"""

import json

import pytest

from ttsupport import balmer, homalg, modcalc, verify, znum
from ttsupport.cli import MIN_CASES, main
from ttsupport.modcalc import Cyclic, GradedModule, Module
from ttsupport.znum import PrimeSet

REAL_TORSION_CYCLICS = homalg._torsion_cyclics
REAL_SMITH_FACTORS = homalg.smith_factors


def without_three_primary(factor):
    return tuple(c for c in REAL_TORSION_CYCLICS(factor) if c.p != 3)


def without_last_factor(m):
    return REAL_SMITH_FACTORS(m)[:-1]


FAULTS = {
    "_torsion_cyclics": without_three_primary,
    "smith_factors": without_last_factor,
}

# shift-homology: homology(shift(c, k)) against the cells' homology shifted;
# tensor-commutes and kunneth-chain-oracle: homology(tensor_chain(a, b))
# against the Kunneth product of the cells' homology (tensor-commutes also
# with b, a); triangle-subadditivity: the cone's support through homology
# against the ends' supports from their cells
RECORDS = {
    "homalg.shift-homology": verify.check_shift_homology,
    "homalg.tensor-commutes": verify.check_tensor_commutes,
    "modcalc.kunneth-chain-oracle": verify.check_kunneth_chain_oracle,
    "balmer.triangle-subadditivity": verify.check_triangle_subadditivity,
}


@pytest.mark.parametrize("record", sorted(RECORDS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_record_fails_under_homology_fault(monkeypatch, fault, record):
    monkeypatch.setattr(homalg, fault, FAULTS[fault])
    rec = RECORDS[record](verify.VerifyContext(42, 300, 100))
    assert rec.name == record
    assert not rec.passed


@pytest.mark.parametrize("probe", ["thick_membership", "tau_loc"])
def test_sigma_tau_fails_on_a_wrong_membership_probe(capsys, monkeypatch, probe):
    monkeypatch.setattr(balmer, probe, lambda *args: True)
    code = main(["--format", "json", "verify", "--cases", str(MIN_CASES), "--primes-bound", "30"])
    out = capsys.readouterr().out
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert failed == ["17.balmer.sigma-tau-roundtrips"]


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
# (10 cases draw three pairs, none of which shows this fault, so 30)
PRODUCT_FAULTS = [
    (first_of_a_torsion_pair, verify.check_table_symmetry, 10, "tensor not symmetric at"),
    (first_of_a_torsion_pair, verify.check_kunneth_laws, 100, "commutativity failed on"),
    (without_prufer_tor, verify.check_idempotent_laws, 10, "gamma not idempotent at"),
    (smaller_prime_of_a_torsion_pair, verify.check_supp_laws, 30,
     "product support not inside intersection on"),
]


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


@pytest.mark.parametrize(
    "check, detail",
    INTERNING_FAULTS,
    ids=["spcl-lattice-laws", "point-functors", "gamma-uniqueness"],
)
def test_record_fails_when_the_set_algebra_skips_interning(monkeypatch, check, detail):
    monkeypatch.setattr(PrimeSet, "_checked", classmethod(uninterned))
    record = check(verify.VerifyContext(42, 10, 30))
    assert not record.passed
    assert record.detail.startswith(detail)
