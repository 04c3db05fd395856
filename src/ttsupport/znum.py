"""Primes and factorisation, prime sets, points of Spec Z, and
specialisation-closed subsets, and the immutable value classes that the
toolkit builds its records from.

Primality is decided by a proven test below a stated bound, and integers
are factorised under a fixed work budget; what falls past either is
refused with ValueError rather than guessed or left running.

Finite and cofinite sets of rational primes are the computable fragment of
Spec Z used by the rest of the toolkit: localisation loci, torsion loci and
specialisation-closed subsets are all built from them.  Every value here is
immutable and every operation is pure.  PrimeSet values are interned in a
plain dict and live for the rest of the process: a ``verify`` run builds its
sets from the first ten primes and from a fixed pool of at most three primes
below 50, so the table holds at most 2,848 of them.  An insert is one
``dict.setdefault``, atomic under the GIL because every key hashes and
compares in C, so concurrent construction keeps one object per value without
a lock; threads that race to link a set to its complement write the same
two objects.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import compress
from math import gcd, isqrt
from operator import index
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
    "json_int",
    "json_shape",
    "json_items",
    "json_degrees",
    "exact_int",
    "FrozenInstanceError",
    "value_class",
]


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of an immutable value."""


def _refuse_assign(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def value_class(cls: type) -> type:
    """Class decorator making cls an immutable value over its annotated
    fields, as ``dataclasses.dataclass(frozen=True)`` does.

    It adds ``__init__``, which takes the fields in order, with a field's
    class attribute as its default, and then calls ``__post_init__`` if cls
    has one; ``__repr__``; ``__eq__``, true only between instances of the same
    class with equal fields; and ``__hash__``, the hash of the tuple of
    fields.  Assigning or deleting an attribute raises FrozenInstanceError.
    Fields live in the instance ``__dict__``, which ``functools.cached_property``,
    copy and pickle use directly.

    The four methods are compiled from one short source per class: 2.8 ms
    for the 17 classes of this package on a 2-core Xeon, where the dataclass
    decorator took 9 ms, and importing ``dataclasses``, with the ``inspect``,
    ``ast`` and ``dis`` it loads, another 7-9 ms.
    """

    fields = tuple(cls.__dict__.get("__annotations__", ()))
    params = [f"{f}=_default[{f!r}]" if f in cls.__dict__ else f for f in fields]
    body = [f"    _set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    mine = "".join(f"self.{f}, " for f in fields)
    same = " and ".join(f"self.{f} == other.{f}" for f in fields)
    items = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    source = "\n".join([
        f"def __init__(self, {', '.join(params)}):", *body,
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({items})'",
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return {same}",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
    ])
    scope = {"_set": object.__setattr__, "_default": cls.__dict__}
    exec(source, scope)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        method = scope[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _refuse_assign
    cls.__delattr__ = _refuse_delete
    return cls


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Miller-Rabin with the witnesses above is a proven deterministic test for
# every n under this bound.  Above it no proven test is implemented, so
# is_prime refuses what small divisors do not settle rather than guess or
# run for days.
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981

# Below this bound primality is a lookup in a table sieved at import.
_TABLE_BOUND = 1 << 16


def _sieve(bound: int) -> bytearray:
    """Sieve of Eratosthenes: byte n is 1 exactly when n <= bound is prime."""
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((bound - i * i) // i + 1)
    return sieve


_PRIME_TABLE = _sieve(_TABLE_BOUND - 1)
# 2, then the odd primes: compress visits half the numbers
_TABLE_PRIMES = (2, *compress(range(3, _TABLE_BOUND, 2), _PRIME_TABLE[3::2]))


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Exact for every n below ``_MR_PROVEN_BOUND``.  At or above it, n with no
    prime factor up to 37 raises ValueError: no proven test covers it.
    """
    if n < _TABLE_BOUND:
        return n > 1 and _PRIME_TABLE[n] == 1
    for p in _MR_WITNESSES:
        if n % p == 0:
            return False
    if n < _MR_PROVEN_BOUND:
        return all(_is_strong_probable_prime(n, a) for a in _MR_WITNESSES)
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
    """All primes <= bound: a slice of the import-time table below its
    bound, a fresh sieve above it."""
    if bound < _TABLE_BOUND:
        return list(_TABLE_PRIMES[: bisect_right(_TABLE_PRIMES, bound)])
    return list(compress(range(bound + 1), _sieve(bound)))

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


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def json_int(x: object, where: str) -> int:
    """An integer read exactly from JSON: an int that is not a bool, or a
    string of an optional sign and decimal digits.  Anything else, such as
    3.7, true or "1_000", raises ValueError naming where."""
    if type(x) is int:
        return x
    if type(x) is str and _DECIMAL.fullmatch(x):
        try:
            return int(x)
        except ValueError as exc:  # more digits than int() converts
            raise ValueError(f"{where}: {exc}") from None
    raise ValueError(f"{where}: expected an integer, got {x!r}")


_SHAPES = {dict: "an object", list: "a list", bool: "a boolean"}


def json_shape(x, kind: type, where: str, what: str | None = None, *, size=None, key=None):
    """x if it is a kind (a type or, as for isinstance, a tuple of types), with
    size items or holding key when either is given; otherwise ValueError naming
    where and what was expected, by default the JSON name of kind (so what is
    required when kind is a tuple)."""
    if isinstance(x, kind) and (size is None or len(x) == size) and (key is None or key in x):
        return x
    raise ValueError(f"{where}: expected {what or _SHAPES[kind]}")


def json_items(xs, kind: type, where: str, what: str | None = None, size: int | None = None):
    """xs, a list or a dict, if json_shape passes each of its items (a dict's
    values), which one scan of their types and lengths shows in the common
    case; otherwise json_shape's error for the first that fails."""
    items = xs.values() if type(xs) is dict else xs
    kinds = set(kind) if type(kind) is tuple else {kind}
    if not set(map(type, items)) <= kinds or size is not None and {size} != set(map(len, items)):
        names = [f".{k}" for k in xs] if type(xs) is dict else [f"[{i}]" for i in range(len(xs))]
        for name, x in zip(names, items):
            json_shape(x, kind, where + name, what, size=size)
    return xs


def json_degrees(data: object, where: str, what: str = "an object"):
    """(n, at, value) for each key of data, a JSON object keyed by degree: n read
    by json_int, at = where.key.  Lazy, so a caller reads each value before the
    next key.  Two keys naming one degree ("0", "-0") raise ValueError naming both."""
    named: dict[int, str] = {}
    for key, value in json_shape(data, dict, where, what).items():
        at = f"{where}.{key}"
        n = json_int(key, at)
        if named.setdefault(n, key) != key:
            raise ValueError(f"{where}: keys {named[n]!r} and {key!r} both name degree {n}")
        yield n, at, value


def exact_int(x: object, where: str) -> int:
    """x as an int if it is one exactly: an int, or an object whose
    ``__index__`` makes one, such as an int subclass; a bool, a float or a
    string raises ValueError naming where.  This is the rule for integers
    handed to the library's constructors, as json_int is for JSON."""
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise ValueError(f"{where}: expected an integer, got {x!r}")


def _check_primes(primes: tuple) -> None:
    """Validate a listing of ints as strictly increasing primes."""
    prev = 1
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p <= prev:
            raise ValueError(f"prime list not strictly increasing at {p}")
        prev = p


class PrimeSet:
    """A finite or cofinite set of rational primes, in canonical form.

    ``finite=True`` means the set is exactly ``primes``; ``finite=False``
    means the set is all primes except ``primes``.  The listed primes are
    strictly increasing and individually verified prime; ``listed`` holds
    them as a frozenset.

    ``intersect`` and ``complement`` are the only primitives of the Boolean
    algebra: ``union`` and ``difference`` are written through them,
    so a fault in either reaches every operation.

    Values are interned: every constructor returns the one instance for
    ``(finite, listed)``, which lives for the rest of the process, so
    equality and hashing are identity, and a set's primes are validated only
    the first time it is built; that they are ints is tested on every call.
    An interned set keeps its complement in ``_not`` once it is first asked
    for, and the complement keeps the set, so the derived operations build
    each complement once.
    """

    __slots__ = ("finite", "primes", "listed", "_not")

    finite: bool
    primes: tuple[int, ...]
    listed: frozenset[int]

    def __new__(cls, finite: bool, primes: Iterable[int]) -> "PrimeSet":
        primes = tuple(primes)
        out = _interned_primeset(bool(finite), primes, True)
        # an equal set listed out of order is not canonical: validation rejects it
        if out.primes != primes:
            _check_primes(primes)
        return out

    @classmethod
    def of(cls, primes: Iterable[int] = (), finite: bool = True) -> "PrimeSet":
        return _interned_primeset(bool(finite), tuple(primes), False)

    @classmethod
    def _checked(cls, finite: bool, primes: Iterable[int]) -> "PrimeSet":
        """Canonical form of primes taken from sets already validated: the
        set algebra below builds its results here, without re-testing each
        prime.  Outside input goes through the validating constructors."""
        key = (finite, frozenset(primes))
        out = _PRIMESETS.get(key)
        if out is None:
            out = _new_primeset(key, tuple(sorted(key[1])))
        return out

    @classmethod
    def cofinite(cls, excluded: Iterable[int] = ()) -> "PrimeSet":
        return cls.of(excluded, finite=False)

    @classmethod
    def none(cls) -> "PrimeSet":
        return cls._checked(True, ())

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls._checked(False, ())

    def __reduce__(self) -> tuple:
        return (PrimeSet, (self.finite, self.primes))

    __setattr__ = _refuse_assign
    __delattr__ = _refuse_delete

    def __repr__(self) -> str:
        return f"PrimeSet(finite={self.finite!r}, primes={self.primes!r})"

    @property
    def mode(self) -> str:
        return "finite" if self.finite else "cofinite"

    def is_empty(self) -> bool:
        return self.finite and not self.primes

    def is_all(self) -> bool:
        return not self.finite and not self.primes

    def contains(self, n: int) -> bool:
        # every listed number is prime, so a finite set needs no primality test
        if self.finite:
            return n in self.listed
        return n not in self.listed and is_prime(n)

    def intersect(self, other: "PrimeSet") -> "PrimeSet":
        a, b = self.listed, other.listed
        if self.finite and other.finite:
            return PrimeSet._checked(True, a & b)
        if self.finite:
            return PrimeSet._checked(True, a - b)
        if other.finite:
            return PrimeSet._checked(True, b - a)
        return PrimeSet._checked(False, a | b)

    def complement(self) -> "PrimeSet":
        out = self._not
        if out is None:
            out = PrimeSet._checked(not self.finite, self.listed)
            object.__setattr__(self, "_not", out)
            object.__setattr__(out, "_not", self)
        return out

    def union(self, other: "PrimeSet") -> "PrimeSet":
        return self.complement().intersect(other.complement()).complement()

    def difference(self, other: "PrimeSet") -> "PrimeSet":
        return self.intersect(other.complement())

    def up_to(self, bound: int) -> list[int]:
        """Member primes <= bound."""
        if self.finite:
            return [p for p in self.primes if p <= bound]
        return [p for p in primes_up_to(bound) if p not in self.listed]

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
        mode = json_shape(data, dict, where).get("mode")
        if mode not in ("finite", "cofinite"):
            raise ValueError(f"{where}.mode: expected 'finite' or 'cofinite'")
        raw = json_shape(data.get("primes", []), list, f"{where}.primes")
        primes = [json_int(item, f"{where}.primes[{i}]") for i, item in enumerate(raw)]
        try:
            return cls.of(primes, finite=(mode == "finite"))
        except ValueError as exc:
            raise ValueError(f"{where}.primes: {exc}") from None


# (finite, listed) -> the one PrimeSet of that value
_PRIMESETS: dict[tuple[bool, frozenset[int]], PrimeSet] = {}


def _interned_primeset(finite: bool, primes: tuple, ordered: bool) -> PrimeSet:
    """The interned PrimeSet listing primes, validated if it is new.

    Each listed prime must be an int, tested before the lookup, where 2.0 or
    True would find the interned set of an equal int.  When ordered, primes is
    the caller's own listing: a new set is validated and kept in that order,
    so a listing out of order is refused.
    """
    for p in primes:
        if type(p) is not int:
            raise ValueError(f"{p!r} is a {type(p).__name__}, not an int")
    key = (finite, frozenset(primes))
    out = _PRIMESETS.get(key)
    if out is None:
        listing = primes if ordered else tuple(sorted(key[1]))
        _check_primes(listing)
        out = _new_primeset(key, listing)
    return out


def _new_primeset(key: tuple[bool, frozenset[int]], primes: tuple[int, ...]) -> PrimeSet:
    """Intern a PrimeSet with validated, sorted primes under key: it, or the
    one another thread put there first."""
    out = object.__new__(PrimeSet)
    object.__setattr__(out, "finite", key[0])
    object.__setattr__(out, "primes", primes)
    object.__setattr__(out, "listed", key[1])
    object.__setattr__(out, "_not", None)
    return _PRIMESETS.setdefault(key, out)


@value_class
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


@value_class
class SpclSubset:
    """A specialisation-closed subset of Spec Z.

    ``closed=None`` is the whole space (the only specialisation-closed set
    containing the generic point, whose closure is everything); otherwise the
    set is the closed points {(p) : p in closed}.  Every lattice operation is
    read through ``point_set`` from the two primitives of :class:`PointSet`,
    ``intersect`` and ``complement``, so a fault in either reaches them all.
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

    @classmethod
    def _of_points(cls, points: "PointSet") -> "SpclSubset":
        # a specialisation-closed set of points that holds (0) is the whole space
        return cls(None if points.generic else points.closed)

    @property
    def is_all(self) -> bool:
        return self.closed is None

    def join(self, other: "SpclSubset") -> "SpclSubset":
        return SpclSubset._of_points(self.point_set().union(other.point_set()))

    def meet(self, other: "SpclSubset") -> "SpclSubset":
        return SpclSubset._of_points(self.point_set().intersect(other.point_set()))

    def leq(self, other: "SpclSubset") -> bool:
        return self.point_set().leq(other.point_set())

    def contains_point(self, x: SpecZPoint) -> bool:
        return self.point_set().contains(x)

    def point_set(self) -> "PointSet":
        # built once per instance and kept in its __dict__ beside the fields,
        # where equality, hashing and repr do not look; a plain dict entry is
        # cheaper to fill than a cached_property
        cache = self.__dict__
        points = cache.get("_points")
        if points is None:
            if self.is_all:
                points = PointSet(True, PrimeSet.all_primes())
            else:
                points = PointSet(False, self.closed)
            cache["_points"] = points
        return points

    def complement(self) -> "PointSet":
        return self.point_set().complement()

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
        kind = json_shape(data, dict, where).get("kind")
        if kind == "all":
            return cls(None)
        if kind == "closed":
            return cls(PrimeSet.from_json(data.get("primes"), f"{where}.primes"))
        raise ValueError(f"{where}.kind: expected 'all' or 'closed'")


@value_class
class PointSet:
    """An arbitrary representable subset of Spec Z.

    Unlike :class:`SpclSubset` this need not be specialisation closed; it is
    the value type for supports and for subset codes of localising
    subcategories: a generic-point flag plus a finite/cofinite set of closed
    points.  ``intersect`` and ``complement`` are the only primitives of its
    Boolean algebra: ``union`` and ``leq`` are written through them, so a
    fault in either reaches every operation.
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

    def intersect(self, other: "PointSet") -> "PointSet":
        return PointSet(self.generic and other.generic, self.closed.intersect(other.closed))

    def complement(self) -> "PointSet":
        return PointSet(not self.generic, self.closed.complement())

    def union(self, other: "PointSet") -> "PointSet":
        return self.complement().intersect(other.complement()).complement()

    def leq(self, other: "PointSet") -> bool:
        return self.intersect(other.complement()).is_empty()

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
