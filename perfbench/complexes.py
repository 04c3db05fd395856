"""Dense perfect complexes with known homology, and their oracles.

A complex is built in a split model basis and then scrambled: the differential
in degree n is P[n+1] * D[n] * P[n]^-1, where D[n] carries a known divisibility
chain and each P[n] is a random unimodular matrix.  The expected homology, the
expected derived tensor with a Koszul complex Z --m--> Z and the expected
invariant factors all follow from the chains by arithmetic on Z and Z/p^k.
Nothing in this module calls the program under test.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

# Torsion primes; invariant factors are products of these, so the oracle
# knows every factorisation without factoring anything.
TORSION_PRIMES = (2, 3, 5, 7)

# A Mersenne prime; products and determinants are checked modulo it.
CHECK_PRIME = (1 << 61) - 1


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def unimodular_pair(rng: random.Random, n: int, steps: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random P in GL(n, Z) and its inverse: a product of transvections,
    then a signed permutation of the rows."""
    p, q = identity(n), identity(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # P <- (I + c e_ij) P  and  Q <- Q (I - c e_ij), so Q stays P^-1.
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in q:
            row[j] -= c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    # Row i of S*P is signs[i] * row perm[i] of P; column c of Q*S^-1 is
    # signs[c] * column perm[c] of Q.
    p = [[signs[i] * x for x in p[perm[i]]] for i in range(n)]
    q = [[signs[c] * row[perm[c]] for c in range(n)] for row in q]
    return p, q


Factor = dict[int, int]  # prime -> exponent


def value(f: Factor) -> int:
    out = 1
    for p, k in f.items():
        out *= p**k
    return out


def divisibility_chain(rng: random.Random, length: int, torsion: int) -> list[Factor]:
    """Invariant factors e_1 | e_2 | ... | e_length, the last `torsion` of
    them nontrivial, each step multiplying by at most one small prime."""
    chain: list[Factor] = []
    current: Factor = {}
    for i in range(length):
        if i >= length - torsion:
            current = dict(current)
            p = rng.choice(TORSION_PRIMES)
            current[p] = current.get(p, 0) + 1
        chain.append(current)
    return chain


@dataclass(frozen=True)
class ComplexSpec:
    """A scrambled complex in degrees 0..len(free)-1 with known structure.

    free[n] is the free rank of H^n and chains[n] the invariant factors of
    the differential out of degree n."""

    free: tuple[int, ...]
    chains: tuple[tuple[Factor, ...], ...]
    diffs: tuple[list[list[int]], ...]

    @property
    def ranks(self) -> list[int]:
        out = []
        for n, f in enumerate(self.free):
            below = len(self.chains[n - 1]) if n > 0 else 0
            here = len(self.chains[n]) if n < len(self.chains) else 0
            out.append(below + f + here)
        return out

    def to_json(self) -> dict:
        return {
            "ranks": {str(n): r for n, r in enumerate(self.ranks)},
            "differentials": {
                str(n): [[str(x) for x in row] for row in d] for n, d in enumerate(self.diffs)
            },
        }


def random_complex(
    rng: random.Random, free: list[int], chain_lengths: list[int], torsion: list[int]
) -> ComplexSpec:
    """Degrees 0..len(free)-1; the differential out of degree n has rank
    chain_lengths[n], of which torsion[n] invariant factors exceed 1."""
    chains = [divisibility_chain(rng, a, t) for a, t in zip(chain_lengths, torsion)]
    spec = ComplexSpec(tuple(free), tuple(tuple(c) for c in chains), ())
    ranks = spec.ranks
    pairs = [unimodular_pair(rng, r, 3 * r) for r in ranks]
    diffs = []
    for n, chain in enumerate(chains):
        # Model basis of C^n: [image of d^(n-1) | free homology | source of d^n].
        src0 = ranks[n] - len(chain)
        model = [[0] * ranks[n] for _ in range(ranks[n + 1])]
        for k, f in enumerate(chain):
            model[k][src0 + k] = value(f)
        diffs.append(matmul(matmul(pairs[n + 1][0], model), pairs[n][1]))
    return ComplexSpec(spec.free, spec.chains, tuple(diffs))


def koszul_json(m: int) -> dict:
    """Z --m--> Z in degrees -1 and 0; its homology is Z/m in degree 0."""
    return {"ranks": {"-1": 1, "0": 1}, "differentials": {"-1": [[str(m)]]}}


# --- the module oracle -------------------------------------------------------
#
# A finitely generated abelian group is (free rank, Counter of (p, k) -> mult).

Group = tuple[int, Counter]

_FREE_JSON = {"kind": "free", "invert": {"mode": "finite", "primes": []}}


def homology_groups(spec: ComplexSpec) -> dict[int, Group]:
    """H^n = Z^free[n] + the torsion of the chain into degree n."""
    out = {}
    for n, f in enumerate(spec.free):
        tors: Counter = Counter()
        if n > 0:
            for factor in spec.chains[n - 1]:
                for p, k in factor.items():
                    tors[(p, k)] += 1
        out[n] = (f, tors)
    return out


def tensor_koszul_groups(h: dict[int, Group], m: int) -> dict[int, Group]:
    """H^j(X (x)^L Z/m) = H^j(X) (x) Z/m  +  Tor(H^(j+1)(X), Z/m)."""
    vm = _factor_small(m)
    out = {}
    for j in range(min(h) - 1, max(h) + 1):
        tors: Counter = Counter()
        free_j, tors_j = h.get(j, (0, Counter()))
        for p, k in vm.items():
            tors[(p, k)] += free_j  # Z (x) Z/p^k
        for (p, k), mult in tors_j.items():  # Z/p^k (x) Z/m
            if p in vm:
                tors[(p, min(k, vm[p]))] += mult
        _, tors_up = h.get(j + 1, (0, Counter()))
        for (p, k), mult in tors_up.items():  # Tor(Z/p^k, Z/m)
            if p in vm:
                tors[(p, min(k, vm[p]))] += mult
        out[j] = (0, tors)
    return out


def _factor_small(m: int) -> Factor:
    out: Factor = {}
    for p in TORSION_PRIMES:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m != 1:
        raise ValueError("Koszul parameter must be a product of TORSION_PRIMES")
    return out


def graded_json(groups: dict[int, Group]) -> dict:
    """The README's graded-module format, in its canonical order: free blocks
    first, then Z/p^k sorted by (p, k), each repeated by multiplicity."""
    out = {}
    for n in sorted(groups):
        free, tors = groups[n]
        items = [_FREE_JSON] * free
        for (p, k) in sorted(tors):
            items += [{"kind": "torsion", "p": str(p), "k": k}] * tors[(p, k)]
        if items:
            out[str(n)] = items
    return out


# --- the Smith normal form oracle -------------------------------------------


def _det_mod(m: list[list[int]], p: int) -> int:
    a = [[x % p for x in row] for row in m]
    n, det = len(a), 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def snf_problems(m: list[list[int]], chain: tuple[Factor, ...], u, d, v, factors) -> list[str]:
    """Why (u, d, v, factors) is not a Smith form of m with this chain, or []."""
    rows, cols = len(m), len(m[0])
    want = tuple(value(f) for f in chain)
    problems = []
    if tuple(factors) != want:
        problems.append(f"invariant factors {tuple(factors)} != {want}")
    diag = [[want[i] if i == j and i < len(want) else 0 for j in range(cols)] for i in range(rows)]
    if [list(r) for r in d] != diag:
        problems.append("d is not the diagonal of the expected chain")
    p = CHECK_PRIME

    def red(x):
        return [[e % p for e in row] for row in x]

    if red(matmul(red(matmul(red(u), red(m))), red(v))) != red(diag):
        problems.append("u*m*v != d modulo 2^61-1")
    for name, x in (("u", u), ("v", v)):
        if _det_mod([list(r) for r in x], p) not in (1, p - 1):
            problems.append(f"det {name} is not a unit modulo 2^61-1")
    return problems
