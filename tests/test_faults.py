"""Faults in homalg that verify records must catch.

Each row puts one fault into ``homalg`` and runs one record's check alone.
The expected side of each record is the homology that ``randgen`` knows
from the cells of its random complexes, which no Smith form computes, so a
fault in ``homology`` reaches only the side it computes.
"""

import pytest

from ttsupport import homalg, verify

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
# kunneth-chain-oracle: homology(tensor_chain(a, b)) against the Kunneth
# product of the cells' homology; triangle-subadditivity: the cone's support
# through homology against the ends' supports from their cells
RECORDS = {
    "homalg.shift-homology": verify.check_shift_homology,
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
