"""Finite catalogues with a known spectrum, and their oracles.

A catalogue here is the lattice of up-sets of a random finite poset P: the
objects are the up-sets, tensor is intersection, each up-set has the smaller
ones as summands, and (a, a | b, b) is a triangle for every pair.  Its thick
tensor-ideals are the families {c : c <= U}, one for each up-set U, and its
primes are the families {c : p not in c}, one for each point p of P; the
support of an object c is therefore the set of points in c.  The expected
command output follows from P alone.  Nothing here calls the program under
test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The uniqueness search in catalogue-universal runs while (points ** points)
# stays under its limit; seven points keep every catalogue on that side.
MAX_POINTS = 7


def _up_sets(npts: int, above: list[set[int]]) -> list[frozenset[int]]:
    out = []
    for combo in range(1 << npts):
        s = frozenset(p for p in range(npts) if combo >> p & 1)
        if all(above[x] <= s for x in s):
            out.append(s)
    return out


def random_poset(rng: random.Random, n_up_sets: int) -> tuple[int, list[set[int]]]:
    """A random poset on at most MAX_POINTS points with exactly n_up_sets
    up-sets, as (number of points, strict up-closure of each point)."""
    tries = 100_000  # bounded, unlike a retry loop that can spin forever
    for _ in range(tries):
        npts = rng.randint(2, MAX_POINTS)
        if not npts + 1 <= n_up_sets <= 1 << npts:
            continue
        density = rng.uniform(0.1, 0.7)
        above = [{y for y in range(x + 1, npts) if rng.random() < density} for x in range(npts)]
        for x in reversed(range(npts)):  # transitive closure, top down
            for y in list(above[x]):
                above[x] |= above[y]
        if len(_up_sets(npts, above)) == n_up_sets:
            return npts, above
    raise RuntimeError(f"no poset with {n_up_sets} up-sets found in {tries} tries")


@dataclass(frozen=True)
class CatalogueSpec:
    npts: int
    up_sets: tuple[frozenset[int], ...]  # the object with index i is up_sets[i]
    names: tuple[str, ...]

    def to_json(self) -> dict:
        n = self.names
        index = {s: i for i, s in enumerate(self.up_sets)}
        return {
            "objects": list(n),
            "zero": n[index[frozenset()]],
            "unit": n[index[frozenset(range(self.npts))]],
            "shift": {x: x for x in n},
            "tensor": {n[i]: {n[j]: n[index[a & b]] for j, b in enumerate(self.up_sets)}
                       for i, a in enumerate(self.up_sets)},
            "summands": [[n[i], n[j]] for i, a in enumerate(self.up_sets)
                         for j, b in enumerate(self.up_sets) if b < a],
            "triangles": [[n[i], n[index[a | b]], n[j]] for i, a in enumerate(self.up_sets)
                          for j, b in enumerate(self.up_sets)],
        }

    def prime_at(self, p: int) -> frozenset[int]:
        """The prime of point p: the objects that omit p."""
        return frozenset(i for i, s in enumerate(self.up_sets) if p not in s)

    def primes(self) -> list[frozenset[int]]:
        """One prime per point, in the command's order: by size, then by the
        sorted object indices."""
        return sorted(map(self.prime_at, range(self.npts)), key=lambda q: (len(q), sorted(q)))

    def _names(self, prime: frozenset[int]) -> list[str]:
        return [self.names[i] for i in sorted(prime)]

    def _label(self, prime: frozenset[int]) -> str:
        return "{" + ", ".join(self._names(prime)) + "}"

    def expected_spc(self) -> dict:
        return {
            "primes": [self._names(q) for q in self.primes()],
            "supports": {self.names[i]: sorted(self._label(self.prime_at(p)) for p in s)
                         for i, s in enumerate(self.up_sets)},
        }

    def expected_universal(self) -> dict:
        primes = self.primes()
        names = ["axiom.a.unit", "axiom.a.zero", "axiom.b.summands", "axiom.c.shift",
                 "axiom.d.triangles", "axiom.e.tensor", "advisory.empty-support-nonzero"]
        names += [f"universal.prime[{self._label(q)}]" for q in primes]
        names += [f"universal.support-identity[{x}]" for x in self.names]
        names.append("universal.unique")
        return {
            "map": {self._label(q): self._names(q) for q in primes},
            "passed": True,
            "checks": [{"name": x, "status": "pass"} for x in names],
        }


EXPECTED_CLASSIFY = (
    "classify.counts",
    "classify.tau-sigma-identity",
    "classify.sigma-tau-identity",
    "classify.sigma-onto",
    "classify.order-isomorphism",
)


def random_catalogue(rng: random.Random, n_objects: int) -> CatalogueSpec:
    npts, above = random_poset(rng, n_objects)
    ups = _up_sets(npts, above)
    rng.shuffle(ups)
    return CatalogueSpec(npts, tuple(ups), tuple(f"x{i}" for i in range(len(ups))))
