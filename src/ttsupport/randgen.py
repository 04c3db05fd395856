"""Seeded generators of random test data for the verification suites.

Random perfect complexes are built as direct sums of elementary cells
(free summands and two-term multiplication cells) mixed by unimodular basis
shears, so their homology is known by construction; a random chain map is a
multiple of the inclusion of one such complex into its sum with another,
sheared the same way, so the homology of its source, target and cone is
known by construction too.  Everything is driven by an explicit
``random.Random`` so runs reproduce byte for byte.
"""

from __future__ import annotations

import random
from itertools import chain

from .balmer import gamma_v, l_v
from .homalg import ChainMap, PerfectComplex, _Z, direct_sum, scalar_cone, shift, unit_complex
from .modcalc import Cyclic, GradedModule, Module, kunneth
from .znum import PrimeSet, SpclSubset

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

__all__ = [
    "SMALL_PRIMES",
    "random_primeset",
    "random_spcl",
    "random_cyclic",
    "random_module",
    "random_graded",
    "random_engineered_graded",
    "random_complex",
    "random_chain_map",
    "compact_catalogue",
]


def random_primeset(rng: random.Random, primes: tuple[int, ...] = SMALL_PRIMES) -> PrimeSet:
    """At most three of primes, as a finite or a cofinite set."""
    picked = rng.sample(primes, rng.randint(0, 3))
    return PrimeSet.of(picked, finite=rng.random() < 0.5)


def random_spcl(rng: random.Random) -> SpclSubset:
    if rng.random() < 0.15:
        return SpclSubset.whole_space()
    return SpclSubset.closed_points(random_primeset(rng))


def random_cyclic(rng: random.Random) -> Cyclic:
    roll = rng.random()
    if roll < 0.34:
        key = ("free", random_primeset(rng))
    elif roll < 0.72:
        key = ("torsion", None, rng.choice(SMALL_PRIMES), rng.randint(1, 4))
    else:
        fam = random_primeset(rng)
        if fam.is_empty():
            fam = PrimeSet.of([rng.choice(SMALL_PRIMES)])
        key = ("prufer", fam)
    return Cyclic(*key)


def random_module(rng: random.Random) -> Module:
    """At most three cyclic parts, each of multiplicity one or two."""
    return Module.of((random_cyclic(rng), rng.randint(1, 2)) for _ in range(rng.randint(0, 3)))


def random_graded(rng: random.Random) -> GradedModule:
    """Modules in at most three of the degrees -3..3."""
    degrees = rng.sample(range(-3, 4), rng.randint(0, 3))
    return GradedModule.of({n: random_module(rng) for n in degrees})


def random_engineered_graded(rng: random.Random) -> GradedModule:
    """Objects produced by computations that often collapse to zero:
    tensors of blocks with disjoint loci, fully localised torsion, and the
    acyclisation/localisation product for one subset."""
    roll = rng.random()
    if roll < 0.15:
        p, q = rng.sample(list(SMALL_PRIMES), 2)
        return kunneth(
            GradedModule.of({rng.randint(-2, 2): [Cyclic.torsion(p, rng.randint(1, 3))]}),
            GradedModule.of({rng.randint(-2, 2): [Cyclic.torsion(q, rng.randint(1, 3))]}),
        )
    if roll < 0.3:
        v = random_spcl(rng)
        return kunneth(gamma_v(v), l_v(v))
    if roll < 0.4:
        s = random_primeset(rng)
        x = GradedModule.of({0: [Cyclic.prufer(s)]} if not s.is_empty() else {})
        return kunneth(x, GradedModule.of({0: [Cyclic.rationals()]}))
    return random_graded(rng)


def _primary_parts(m: int) -> list[Cyclic]:
    out = []
    m = abs(m)
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append(Cyclic.torsion(p, e))
        p += 1
    if m > 1:
        out.append(Cyclic.torsion(m, 1))
    return out


# Shape of random_complex: degrees _LO.._HI, differential entries of absolute
# value at most _ENTRY_BOUND, and at most _SHEARS basis shears.
_LO, _HI = -2, 2
_ENTRY_BOUND = 9
_SHEARS = 3
_NONZERO_ENTRIES = tuple(x for x in range(-_ENTRY_BOUND, _ENTRY_BOUND + 1) if x != 0)
_SHEAR_FACTORS = (-2, -1, 1, 2)
# the homology blocks of a multiplication cell, by its entry
_CELL_PARTS = {m: tuple(_primary_parts(m)) for m in _NONZERO_ENTRIES}


def _shear(rng: random.Random, rank: int, cols: tuple, rows: tuple) -> None:
    """One random unimodular basis change of a free module of the given rank:
    column j += s * column i of each matrix in cols, the maps out of it, and
    the inverse, row i -= s * row j, of each matrix in rows, the maps into
    it.  Matrices are lists of row lists, changed in place; None is skipped.
    """
    if rank < 2:
        return
    i, j = rng.sample(range(rank), 2)
    s = rng.choice(_SHEAR_FACTORS)
    for m in cols:
        if m is not None:
            for row in m:
                row[j] += s * row[i]
    for m in rows:
        if m is not None:
            m[i] = [x - s * y for x, y in zip(m[i], m[j])]


def random_complex(rng: random.Random, max_cells: int = 4) -> tuple[PerfectComplex, GradedModule]:
    """A bounded complex of at most max_cells cells, with known homology.

    Returns the complex and its homology (computed from the cell structure,
    independently of any Smith-form machinery).
    """
    for _ in range(64):
        ranks: dict[int, int] = {}
        mults = []  # (d, dst, src, m): entry m of d^d at row dst, column src
        counts: dict[int, dict[Cyclic, int]] = {}  # homology blocks by degree
        # a cell takes the next free slot in each degree it occupies
        for _ in range(rng.randint(1, max_cells)):
            if rng.random() < 0.35:
                d = rng.randint(_LO, _HI)
                ranks[d] = ranks.get(d, 0) + 1
                here = counts.setdefault(d, {})
                here[_Z] = here.get(_Z, 0) + 1
            else:
                d = rng.randint(_LO, _HI - 1)
                src, dst = ranks.get(d, 0), ranks.get(d + 1, 0)
                m = rng.choice(_NONZERO_ENTRIES)
                ranks[d], ranks[d + 1] = src + 1, dst + 1
                mults.append((d, dst, src, m))
                parts = _CELL_PARTS[m]
                if parts:
                    here = counts.setdefault(d + 1, {})
                    for c in parts:
                        here[c] = here.get(c, 0) + 1
        mats = {d: [[0] * ranks[d] for _ in range(ranks[d + 1])] for d in ranks if d + 1 in ranks}
        for d, dst, src, m in mults:
            mats[d][dst][src] = m
        degrees = list(ranks)
        for _ in range(rng.randint(0, _SHEARS)):
            d = rng.choice(degrees)
            _shear(rng, ranks[d], (mats.get(d),), (mats.get(d - 1),))
        every_row = chain.from_iterable(mats.values())
        if all(-_ENTRY_BOUND <= min(row) and max(row) <= _ENTRY_BOUND for row in every_row):
            complex_ = PerfectComplex.of(ranks, mats)
            expected = GradedModule(tuple((d, Module._of_counts(counts[d])) for d in sorted(counts)))
            return complex_, expected
    raise RuntimeError("failed to sample a complex within the entry bound")


def random_chain_map(
    rng: random.Random,
) -> tuple[ChainMap, GradedModule, GradedModule, GradedModule]:
    """A chain map f: A -> B, with the homology of A, of B and of cone(f).

    A and B' are random complexes of at most two cells, B is A + B', and f
    is n times the inclusion of A for a nonzero n; random shears then change
    the basis of B, acting on d_B and on the rows of f.  So H(A) is known
    from A's cells, H(B) = H(A) + H(B'), and, as the cone of n on A is
    A x cone(n), H(cone f) = kunneth(H(A), Z/n) + H(B').  Returns
    (f, H(A), H(B), H(cone f)); no homology is computed.
    """
    a, ha = random_complex(rng, 2)
    other, h_other = random_complex(rng, 2)
    n = rng.choice(_NONZERO_ENTRIES)
    b = direct_sum(a, other)
    ranks = dict(b.ranks)
    mats = {d: [list(row) for row in m.entries] for d, m in b.diffs}
    # A's basis comes first in each degree of B
    maps = {d: [[n if i == j else 0 for j in range(r)] for i in range(ranks[d])] for d, r in a.ranks}
    degrees = b.degrees()
    for _ in range(rng.randint(0, _SHEARS)):
        d = rng.choice(degrees)
        _shear(rng, ranks[d], (mats.get(d),), (mats.get(d - 1), maps.get(d)))
    f = ChainMap.of(a, PerfectComplex.of(ranks, mats), maps)
    h_cone = kunneth(ha, GradedModule.of({0: _CELL_PARTS[n]})).plus(h_other)
    return f, ha, ha.plus(h_other), h_cone


def compact_catalogue() -> list[PerfectComplex]:
    """Twenty perfect complexes with varied supports, for membership probes."""
    u = unit_complex()
    out = [
        u,
        shift(u, 1),
        shift(u, -2),
        scalar_cone(2),
        scalar_cone(3),
        scalar_cone(4),
        scalar_cone(5),
        scalar_cone(6),
        scalar_cone(9),
        scalar_cone(30),
        shift(scalar_cone(2), 2),
        shift(scalar_cone(7), -1),
        direct_sum(scalar_cone(2), scalar_cone(3)),
        direct_sum(scalar_cone(4), shift(scalar_cone(2), 1)),
        direct_sum(u, scalar_cone(5)),
        direct_sum(scalar_cone(7), scalar_cone(11)),
        scalar_cone(13),
        direct_sum(shift(u, 1), scalar_cone(6)),
        direct_sum(scalar_cone(25), scalar_cone(2)),
        PerfectComplex.of({}),
    ]
    assert len(out) == 20
    return out
