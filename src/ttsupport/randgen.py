"""Seeded generators of random test data for the verification suites.

Random perfect complexes are built as direct sums of elementary cells
(free summands and two-term multiplication cells) mixed by unimodular basis
shears, so their homology is known by construction; random chain maps are
sampled from the integer solution lattice of the chain-map equations.
Everything is driven by an explicit ``random.Random`` so runs reproduce
byte for byte.
"""

from __future__ import annotations

import random
from itertools import chain

from .balmer import gamma_v, l_v
from .homalg import ChainMap, IntMatrix, PerfectComplex, direct_sum, scalar_cone, shift, snf, unit_complex
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


# Every prime set and block that random_primeset and random_cyclic have
# drawn, keyed by the draw: at most 352 prime sets and 352 free, 40 torsion
# and 351 Prufer blocks.  Holding them keeps a repeated draw from rebuilding,
# re-validating and re-interning a value that has died since it was drawn.
_DRAWN: dict = {}


def random_primeset(rng: random.Random) -> PrimeSet:
    """At most three of SMALL_PRIMES, as a finite or a cofinite set."""
    picked = rng.sample(SMALL_PRIMES, rng.randint(0, 3))
    key = (rng.random() < 0.5, frozenset(picked))
    out = _DRAWN.get(key)
    if out is None:
        out = _DRAWN[key] = PrimeSet.of(picked, finite=key[0])
    return out


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
    out = _DRAWN.get(key)
    if out is None:
        out = _DRAWN[key] = Cyclic(*key)
    return out


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
_Z = Cyclic.free(PrimeSet.none())
# the homology blocks of a multiplication cell, by its entry
_CELL_PARTS = {m: tuple(_primary_parts(m)) for m in _NONZERO_ENTRIES}


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
            r = ranks[d]
            if r < 2:
                continue
            i, j = rng.sample(range(r), 2)
            s = rng.choice(_SHEAR_FACTORS)
            # basis change at degree d: columns of d^d, rows of d^{d-1}
            if d in mats:
                for row in mats[d]:
                    row[j] += s * row[i]
            if d - 1 in mats:
                rows = mats[d - 1]
                rows[i] = [x - s * y for x, y in zip(rows[i], rows[j])]
        every_row = chain.from_iterable(mats.values())
        if all(-_ENTRY_BOUND <= min(row) and max(row) <= _ENTRY_BOUND for row in every_row):
            complex_ = PerfectComplex.of(ranks, mats)
            expected = GradedModule(tuple((d, Module._of_counts(counts[d])) for d in sorted(counts)))
            return complex_, expected
    raise RuntimeError("failed to sample a complex within the entry bound")


def random_chain_map(rng: random.Random, a: PerfectComplex, b: PerfectComplex) -> ChainMap:
    """A random integer chain map a -> b, sampled from the solution lattice
    of the commutation equations via Smith normal form."""
    degrees = sorted(set(a.degrees()) | set(b.degrees()))
    layout = []  # (degree, rows, cols, offset)
    offset = 0
    for n in degrees:
        r, c = b.rank(n), a.rank(n)
        if r and c:
            layout.append((n, r, c, offset))
            offset += r * c
    nvars = offset
    if nvars == 0:
        return ChainMap.of(a, b, {})
    pos = {n: (c, off) for n, r, c, off in layout}
    rows: list[list[int]] = []
    for n in degrees:
        # d_B^n . f_n - f_{n+1} . d_A^n = 0, one row per target entry; an
        # absent differential adds no term
        db, da = b.diff_of.get(n), a.diff_of.get(n)
        left = pos.get(n) if db is not None else None
        right = pos.get(n + 1) if da is not None else None
        if left is None and right is None:
            continue
        da_cols = list(zip(*da.entries)) if right is not None else None
        for i in range(b.rank(n + 1)):
            for j in range(a.rank(n)):
                # f_n and f_{n+1} have disjoint variables and each term its
                # own variable, so no terms cancel: a zero row has none
                row = [0] * nvars
                if left is not None:
                    c, off = left
                    for k, x in enumerate(db.entries[i]):
                        row[off + k * c + j] = x
                if right is not None:
                    c, off = right
                    for k, x in enumerate(da_cols[j]):
                        row[off + i * c + k] = -x
                if any(row):
                    rows.append(row)
    if not rows:
        sol = [rng.randint(-2, 2) for _ in range(nvars)]
    else:
        res = snf(IntMatrix.of(rows))
        rank = len(res.invariant_factors)
        sol = [0] * nvars
        # the columns of v past the rank are a basis of the solution lattice
        for vec in list(zip(*res.v.entries))[rank:]:
            coeff = rng.randint(-2, 2)
            if coeff:
                sol = [x + coeff * y for x, y in zip(sol, vec)]
    maps = {n: [sol[off + i * c : off + (i + 1) * c] for i in range(r)] for n, r, c, off in layout}
    return ChainMap.of(a, b, maps)


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
