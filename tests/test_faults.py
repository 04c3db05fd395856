"""Faults that verify records must catch.

Each row puts one fault into the library and runs one record's check alone
(or all of ``verify``, for the sigma-tau probes), and asserts that the
record fails.  The first table puts its faults into ``homalg``: the
expected side of each of its records is the homology that ``randgen`` knows
from the cells of its random complexes, which no Smith form computes, so a
fault in ``homology`` reaches only the side it computes.  The rows after it
fault ``balmer``'s membership probes, ``verify``'s view of homology,
``modcalc.localize_point`` and the torsion factoriser's exponents.
"""

import json

import pytest

from ttsupport import balmer, homalg, modcalc, verify, znum
from ttsupport.cli import MIN_CASES, main
from ttsupport.modcalc import Cyclic, GradedModule, Module

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
