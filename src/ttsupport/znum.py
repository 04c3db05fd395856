"""Primes and factorisation, prime sets, points of Spec Z, and
specialisation-closed subsets.

Primality is decided by a proven test below a stated bound, and integers
are factorised under a fixed work budget; what falls past either is
refused with ValueError rather than guessed or left running.

Finite and cofinite sets of rational primes are the computable fragment of
Spec Z used by the rest of the toolkit: localisation loci, torsion loci and
specialisation-closed subsets are all built from them.  Every value here is
immutable and every operation is pure, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Iterable

__all__ = [
    "is_prime",
    "factorint",
    "primes_up_to",
    "PrimeSet",
    "SpecZPoint",
    "GENERIC",
    "SpclSubset",
    "PointSet",
    "v_of_point",
    "z_of_point",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with the witness set below is a proven deterministic test for
# every n under this bound.  Above it no proven test is implemented, so
# is_prime refuses what small divisors do not settle rather than guess or
# run for days.
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

# Below this bound primality is a lookup in a table sieved at import.
_TABLE_BOUND = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Exact for every n below ``_MR_PROVEN_BOUND``.  At or above it, n with no
    prime factor up to 37 raises ValueError: no proven test covers it.
    """
    if n < _TABLE_BOUND:
        return n in _PRIME_TABLE
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    if n < _MR_PROVEN_BOUND:
        return all(_is_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    raise _beyond_proven(n)


def _beyond_proven(n: int) -> ValueError:
    return ValueError(
        f"{n} is too large to test for primality: the proven test covers "
        f"numbers below {_MR_PROVEN_BOUND}"
    )


def _is_strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round to base a, for odd n > a."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, by sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, b in enumerate(sieve) if b]


_TABLE_PRIMES = tuple(primes_up_to(_TABLE_BOUND - 1))
_PRIME_TABLE = frozenset(_TABLE_PRIMES)

# Pollard-Brent rho takes at most this many steps of its map in one call of
# factorint, summed over every cofactor it splits.  That finds prime factors
# up to about 2^40, and refuses a 140-bit product of two 70-bit primes after
# about 3 s on a 2-core Xeon.
_RHO_BUDGET = 1 << 22
# Rho does not start on a cofactor wider than this: its steps, and the
# probable-prime test before them, grow in cost with the width.
_RHO_MAX_BITS = 256


def factorint(n: int) -> dict[int, int]:
    """Prime factorisation of n as {prime: exponent}, as sympy.factorint
    gives it: {} for 1, {0: 1} for 0, and -1 as a factor of negative n.

    Trial division removes the primes below 2^16.  Each cofactor below
    ``_MR_PROVEN_BOUND`` is settled by ``is_prime``, and a composite one is
    split by Pollard-Brent rho.  A cofactor at or above the bound gets one
    strong probable-prime test: a composite goes on to rho, and one that
    looks prime raises ``is_prime``'s ValueError, as no proven test covers
    it.  Rho takes at most ``_RHO_BUDGET`` steps in all and starts on no
    cofactor wider than ``_RHO_MAX_BITS``; past either, ValueError.
    """
    if n == 0:
        return {0: 1}
    factors: dict[int, int] = {}
    if n < 0:
        factors[-1] = 1
        n = -n
    for p in _TABLE_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 1
            n //= p
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    if n > 1:
        _split_cofactor(n, factors)
    return factors


def _split_cofactor(n: int, factors: dict[int, int]) -> None:
    """Add to factors the prime factors of n > 1 that trial division left:
    n is prime or has no prime factor below 2^16."""
    budget = _RHO_BUDGET
    pending = [n]
    while pending:
        m = pending.pop()
        if m < _MR_PROVEN_BOUND:
            if is_prime(m):
                factors[m] = factors.get(m, 0) + 1
                continue
        elif m.bit_length() > _RHO_MAX_BITS:
            raise ValueError(
                f"cannot factor {n}: its cofactor {m} has no prime factor "
                f"below {_TABLE_BOUND} and is wider than {_RHO_MAX_BITS} bits"
            )
        elif _is_strong_probable_prime(m, 2):
            raise _beyond_proven(m)
        d, budget = _rho(m, budget)
        if d is None:
            what = str(m) if m == n else f"its cofactor {m}"
            raise ValueError(
                f"cannot factor {n}: Pollard-Brent rho found no factor of "
                f"{what} within its budget of {_RHO_BUDGET} steps"
            )
        pending += (d, m // d)


def _rho(n: int, budget: int) -> tuple[int | None, int]:
    """A proper factor of the odd composite n, or None, by Pollard-Brent
    rho (Brent 1980) on x -> x^2 + c, and the steps left of budget.

    Brent's cycle search doubles its stride r; the differences x - y are
    multiplied together and share one gcd per batch of 128 steps.  A batch
    whose gcd overshoots to n is replayed one step at a time; when even
    that gives n, the next c is tried.
    """
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, g, q = 2, 1, 1, 1
        while g == 1:
            x = y
            if budget < 2 * r:
                return None, budget
            budget -= 2 * r
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, budget


@dataclass(frozen=True)
class PrimeSet:
    """A finite or cofinite set of rational primes, in canonical form.

    ``finite=True`` means the set is exactly ``primes``; ``finite=False``
    means the set is all primes except ``primes``.  The listed primes are
    strictly increasing and individually verified prime, so equality of
    canonical forms is equality of the underlying sets.
    """

    finite: bool
    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        prev = 1
        for p in self.primes:
            if p <= prev:
                raise ValueError(f"prime list not strictly increasing at {p}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p

    @classmethod
    def of(cls, primes: Iterable[int] = (), finite: bool = True) -> "PrimeSet":
        return cls(finite, tuple(sorted(set(primes))))

    @classmethod
    def _checked(cls, finite: bool, primes: Iterable[int]) -> "PrimeSet":
        """Canonical form of primes taken from sets already validated: the
        set algebra below builds its results here, without re-testing each
        prime.  Outside input goes through the validating constructors."""
        out = object.__new__(cls)
        object.__setattr__(out, "finite", finite)
        object.__setattr__(out, "primes", tuple(sorted(primes)))
        return out

    @classmethod
    def cofinite(cls, excluded: Iterable[int] = ()) -> "PrimeSet":
        return cls.of(excluded, finite=False)

    @classmethod
    def none(cls) -> "PrimeSet":
        return cls(True, ())

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls(False, ())

    @property
    def mode(self) -> str:
        return "finite" if self.finite else "cofinite"

    def is_empty(self) -> bool:
        return self.finite and not self.primes

    def is_all(self) -> bool:
        return not self.finite and not self.primes

    def contains(self, n: int) -> bool:
        if not is_prime(n):
            return False
        i = bisect_left(self.primes, n)
        listed = i < len(self.primes) and self.primes[i] == n
        return listed if self.finite else not listed

    def union(self, other: "PrimeSet") -> "PrimeSet":
        a, b = set(self.primes), set(other.primes)
        if self.finite and other.finite:
            return PrimeSet._checked(True, a | b)
        if self.finite:
            return PrimeSet._checked(False, b - a)
        if other.finite:
            return PrimeSet._checked(False, a - b)
        return PrimeSet._checked(False, a & b)

    def intersect(self, other: "PrimeSet") -> "PrimeSet":
        a, b = set(self.primes), set(other.primes)
        if self.finite and other.finite:
            return PrimeSet._checked(True, a & b)
        if self.finite:
            return PrimeSet._checked(True, a - b)
        if other.finite:
            return PrimeSet._checked(True, b - a)
        return PrimeSet._checked(False, a | b)

    def complement(self) -> "PrimeSet":
        return PrimeSet._checked(not self.finite, self.primes)

    def difference(self, other: "PrimeSet") -> "PrimeSet":
        return self.intersect(other.complement())

    def leq(self, other: "PrimeSet") -> bool:
        """Subset order on the underlying sets."""
        return self.intersect(other) == self

    def up_to(self, bound: int) -> list[int]:
        """Member primes <= bound."""
        if self.finite:
            return [p for p in self.primes if p <= bound]
        excluded = set(self.primes)
        return [p for p in primes_up_to(bound) if p not in excluded]

    def sort_key(self) -> tuple:
        return (0 if self.finite else 1, self.primes)

    def __str__(self) -> str:
        body = "{" + ", ".join(str(p) for p in self.primes) + "}"
        if self.finite:
            return body
        return "all primes" if not self.primes else f"all primes except {body}"

    def to_json(self) -> dict:
        return {"mode": self.mode, "primes": [str(p) for p in self.primes]}

    @classmethod
    def from_json(cls, data: object, where: str = "primeset") -> "PrimeSet":
        if not isinstance(data, dict):
            raise ValueError(f"{where}: expected an object")
        mode = data.get("mode")
        if mode not in ("finite", "cofinite"):
            raise ValueError(f"{where}.mode: expected 'finite' or 'cofinite'")
        raw = data.get("primes", [])
        if not isinstance(raw, list):
            raise ValueError(f"{where}.primes: expected a list")
        primes = []
        for i, item in enumerate(raw):
            try:
                primes.append(int(item))
            except (TypeError, ValueError):
                raise ValueError(f"{where}.primes[{i}]: not an integer") from None
        try:
            return cls.of(primes, finite=(mode == "finite"))
        except ValueError as exc:
            raise ValueError(f"{where}.primes: {exc}") from None


@dataclass(frozen=True)
class SpecZPoint:
    """A point of Spec Z: the generic point (zero ideal) or a closed point (p)."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"closed point needs a prime, got {self.p}")

    @classmethod
    def generic(cls) -> "SpecZPoint":
        return cls(None)

    @classmethod
    def closed(cls, p: int) -> "SpecZPoint":
        return cls(p)

    @property
    def is_generic(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "(0)" if self.p is None else f"({self.p})"


GENERIC = SpecZPoint.generic()


@dataclass(frozen=True)
class SpclSubset:
    """A specialisation-closed subset of Spec Z.

    ``closed=None`` is the whole space (the only specialisation-closed set
    containing the generic point, whose closure is everything); otherwise the
    set is the closed points {(p) : p in closed}.
    """

    closed: PrimeSet | None = None

    @classmethod
    def whole_space(cls) -> "SpclSubset":
        return cls(None)

    @classmethod
    def closed_points(cls, primes: PrimeSet) -> "SpclSubset":
        return cls(primes)

    @classmethod
    def empty(cls) -> "SpclSubset":
        return cls(PrimeSet.none())

    @property
    def is_all(self) -> bool:
        return self.closed is None

    def join(self, other: "SpclSubset") -> "SpclSubset":
        if self.is_all or other.is_all:
            return SpclSubset(None)
        return SpclSubset(self.closed.union(other.closed))

    def meet(self, other: "SpclSubset") -> "SpclSubset":
        if self.is_all:
            return other
        if other.is_all:
            return self
        return SpclSubset(self.closed.intersect(other.closed))

    def leq(self, other: "SpclSubset") -> bool:
        if other.is_all:
            return True
        if self.is_all:
            return False
        return self.closed.leq(other.closed)

    def contains_point(self, x: SpecZPoint) -> bool:
        if self.is_all:
            return True
        if x.is_generic:
            return False
        return self.closed.contains(x.p)

    def point_set(self) -> "PointSet":
        if self.is_all:
            return PointSet(True, PrimeSet.all_primes())
        return PointSet(False, self.closed)

    def complement(self) -> "PointSet":
        if self.is_all:
            return PointSet(False, PrimeSet.none())
        return PointSet(True, self.closed.complement())

    def __str__(self) -> str:
        if self.is_all:
            return "Spec Z"
        return f"closed points of {self.closed}"

    def to_json(self) -> dict:
        if self.is_all:
            return {"kind": "all"}
        return {"kind": "closed", "primes": self.closed.to_json()}

    @classmethod
    def from_json(cls, data: object, where: str = "subset") -> "SpclSubset":
        if not isinstance(data, dict):
            raise ValueError(f"{where}: expected an object")
        kind = data.get("kind")
        if kind == "all":
            return cls(None)
        if kind == "closed":
            return cls(PrimeSet.from_json(data.get("primes"), f"{where}.primes"))
        raise ValueError(f"{where}.kind: expected 'all' or 'closed'")


@dataclass(frozen=True)
class PointSet:
    """An arbitrary representable subset of Spec Z.

    Unlike :class:`SpclSubset` this need not be specialisation closed; it is
    the value type for supports and for subset codes of localising
    subcategories: a generic-point flag plus a finite/cofinite set of closed
    points.
    """

    generic: bool
    closed: PrimeSet

    @classmethod
    def empty(cls) -> "PointSet":
        return cls(False, PrimeSet.none())

    @classmethod
    def singleton(cls, x: SpecZPoint) -> "PointSet":
        if x.is_generic:
            return cls(True, PrimeSet.none())
        return cls(False, PrimeSet.of([x.p]))

    def is_empty(self) -> bool:
        return not self.generic and self.closed.is_empty()

    def is_everything(self) -> bool:
        return self.generic and self.closed.is_all()

    def contains(self, x: SpecZPoint) -> bool:
        if x.is_generic:
            return self.generic
        return self.closed.contains(x.p)

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(self.generic or other.generic, self.closed.union(other.closed))

    def intersect(self, other: "PointSet") -> "PointSet":
        return PointSet(self.generic and other.generic, self.closed.intersect(other.closed))

    def complement(self) -> "PointSet":
        return PointSet(not self.generic, self.closed.complement())

    def leq(self, other: "PointSet") -> bool:
        if self.generic and not other.generic:
            return False
        return self.closed.leq(other.closed)

    def __str__(self) -> str:
        if self.is_empty():
            return "{}"
        if self.is_everything():
            return "all of Spec Z"
        parts = []
        if self.generic:
            parts.append("(0)")
        if not self.closed.is_empty():
            if self.closed.finite:
                parts.extend(f"({p})" for p in self.closed.primes)
            elif self.closed.is_all():
                parts.append("every (p)")
            else:
                missing = ", ".join(str(p) for p in self.closed.primes)
                parts.append(f"every (p) except p in {{{missing}}}")
        return "{" + ", ".join(parts) + "}"

    def to_json(self) -> dict:
        return {"generic": self.generic, "closed": self.closed.to_json()}

    @classmethod
    def from_json(cls, data: object, where: str = "points") -> "PointSet":
        if not isinstance(data, dict):
            raise ValueError(f"{where}: expected an object")
        generic = data.get("generic")
        if not isinstance(generic, bool):
            raise ValueError(f"{where}.generic: expected a boolean")
        return cls(generic, PrimeSet.from_json(data.get("closed"), f"{where}.closed"))


def v_of_point(x: SpecZPoint) -> SpclSubset:
    """Closure of the point: V(x)."""
    if x.is_generic:
        return SpclSubset.whole_space()
    return SpclSubset.closed_points(PrimeSet.of([x.p]))


def z_of_point(x: SpecZPoint) -> SpclSubset:
    """The points whose closure misses x: Z(x) = {y : x not in V(y)}.

    Together with V(x) this isolates the point:
    V(x) minus (Z(x) meet V(x)) is exactly {x}.
    """
    if x.is_generic:
        return SpclSubset.closed_points(PrimeSet.all_primes())
    return SpclSubset.closed_points(PrimeSet.cofinite([x.p]))
