"""Closed calculus of cyclic modules over Z with exact tensor/Tor tables.

The calculus knows three kinds of building block: localisations Z[T^-1]
(``free``, T the set of inverted primes, so Z itself is free with T empty and
Q is free with every prime inverted), primary torsion Z/p^k (``torsion``),
and sums of Prufer groups indexed by a prime set (``prufer``).  Finite direct
sums of these are closed under tensor and Tor, which is what makes derived
tensor products of formal objects computable degree by degree:

>>> X = GradedModule.of({0: [Cyclic.torsion(2, 1)]})
>>> print(kunneth(X, X))
{-1: Z/2, 0: Z/2}
>>> print(kunneth(GradedModule.of({0: [Cyclic.free()]}), X))
{0: Z/2}

Canonical forms are unique and blocks are interned, one object per canonical
form that lives for the rest of the process (a ``verify`` run leaves about
4,150), so identity is isomorphism: the block types listed above have no
isomorphisms across kinds or parameters, and multiplicities of
indecomposables in a finite direct sum are determined (Krull-Schmidt-style
uniqueness, taken as given for this module class), so modules are equal
exactly when they list the same blocks with the same multiplicities.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .znum import (
    PointSet,
    PrimeSet,
    SpecZPoint,
    _refuse_assign,
    _refuse_delete,
    exact_int,
    is_prime,
    json_degrees,
    json_int,
    json_shape,
    value_class,
)

__all__ = [
    "Cyclic",
    "Module",
    "GradedModule",
    "tensor_mod",
    "tor_mod",
    "kunneth",
    "supp_cyclic",
    "supp_blocks",
    "supp_mod",
]

_KIND_ORDER = {"free": 0, "torsion": 1, "prufer": 2}

# A torsion order from this bound up prints as p^k: Python converts no more
# digits by default, and p^k from a file can be too large to compute at all.
_PRINT_BOUND = 10**4300
_PRINT_BITS = _PRINT_BOUND.bit_length()


def _check_cyclic(kind: str, primes: PrimeSet | None, p: int | None, k: int | None) -> None:
    if kind == "free":
        if type(primes) is not PrimeSet or p is not None or k is not None:
            raise ValueError("free block takes exactly a prime set")
    elif kind == "torsion":
        if primes is not None or p is None or k is None:
            raise ValueError("torsion block takes a prime and an exponent")
        if type(p) is not int or type(k) is not int:
            raise ValueError("torsion block takes an integer prime and exponent")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("torsion exponent must be >= 1")
    elif kind == "prufer":
        if type(primes) is not PrimeSet or p is not None or k is not None:
            raise ValueError("prufer block takes exactly a prime set")
        if primes.is_empty():
            raise ValueError("empty prufer family is forbidden; omit the block")
    else:
        raise ValueError(f"unknown kind {kind!r}")


class Cyclic:
    """One indecomposable block of the calculus.

    kind "free":    Z[T^-1] where T = ``primes`` (inverted primes).
    kind "torsion": Z/p^k.
    kind "prufer":  the sum of Prufer groups Z(p^oo) for p in ``primes``;
                    the empty family is forbidden (normalise to absence).

    Blocks are interned: every constructor returns the one block for
    ``(kind, primes, p, k)``, which lives for the rest of the process, so
    equality and hashing are identity, and a block is validated, and its
    sort key computed, only the first time it is built; that p and k are
    ints is tested on every call.
    """

    __slots__ = ("kind", "primes", "p", "k", "_sort_key")

    kind: str
    primes: PrimeSet | None
    p: int | None
    k: int | None

    def __new__(
        cls, kind: str, primes: PrimeSet | None = None, p: int | None = None, k: int | None = None
    ) -> "Cyclic":
        if not (p is None or type(p) is int) or not (k is None or type(k) is int):
            # 2.0 or True would find the interned block of an equal int before
            # validation; _check_cyclic refuses such a field whatever the kind
            _check_cyclic(kind, primes, p, k)
        return _interned_cyclic((kind, primes, p, k))

    @classmethod
    def free(cls, inverted: PrimeSet | None = None) -> "Cyclic":
        primes = PrimeSet.none() if inverted is None else inverted
        return _interned_cyclic(("free", primes, None, None))

    @classmethod
    def torsion(cls, p: int, k: int) -> "Cyclic":
        if type(p) is not int or type(k) is not int:
            _check_cyclic("torsion", None, p, k)  # refuses them, as in __new__
        return _interned_cyclic(("torsion", None, p, k))

    @classmethod
    def prufer(cls, family: PrimeSet) -> "Cyclic":
        return _interned_cyclic(("prufer", family, None, None))

    @classmethod
    def rationals(cls) -> "Cyclic":
        return cls.free(PrimeSet.all_primes())

    def __reduce__(self) -> tuple:
        return (Cyclic, (self.kind, self.primes, self.p, self.k))

    __setattr__ = _refuse_assign
    __delattr__ = _refuse_delete

    def __repr__(self) -> str:
        return f"Cyclic(kind={self.kind!r}, primes={self.primes!r}, p={self.p!r}, k={self.k!r})"

    def sort_key(self) -> tuple:
        return self._sort_key

    def __str__(self) -> str:
        if self.kind == "free":
            if self.primes.is_empty():
                return "Z"
            if self.primes.is_all():
                return "Q"
            if self.primes.finite:
                return "Z[" + ",".join(f"1/{p}" for p in self.primes.primes) + "]"
            return "Z_(" + ",".join(str(p) for p in self.primes.primes) + ")"
        if self.kind == "torsion":
            p, k = self.p, self.k
            # p^k >= 2^(k (b - 1)) for p of b bits: the first test bounds the second
            if k * (p.bit_length() - 1) < _PRINT_BITS and (q := p**k) < _PRINT_BOUND:
                return f"Z/{q}"
            return f"Z/{p}^{k}"
        if self.primes.is_all():
            return "Q/Z"
        if self.primes.finite:
            return "+".join(f"Z({p}^oo)" for p in self.primes.primes)
        missing = ",".join(str(p) for p in self.primes.primes)
        return f"Z(p^oo: p not in {{{missing}}})"

    def to_json(self) -> dict:
        if self.kind == "free":
            return {"kind": "free", "invert": self.primes.to_json()}
        if self.kind == "torsion":
            return {"kind": "torsion", "p": str(self.p), "k": self.k}
        return {"kind": "prufer", "primes": self.primes.to_json()}

    @classmethod
    def from_json(cls, data: object, where: str = "cyclic") -> "Cyclic":
        kind = json_shape(data, dict, where).get("kind")
        if kind == "torsion":
            p, k = json_int(data.get("p"), f"{where}.p"), json_int(data.get("k"), f"{where}.k")
            key = (kind, None, p, k)
        elif kind == "free" or kind == "prufer":
            field = "invert" if kind == "free" else "primes"
            key = (kind, PrimeSet.from_json(data.get(field), f"{where}.{field}"), None, None)
        else:
            raise ValueError(f"{where}.kind: expected 'free', 'torsion' or 'prufer'")
        try:
            return _interned_cyclic(key)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


# (kind, primes, p, k) -> the one Cyclic of that value; a PrimeSet field
# hashes by identity, so every key hashes and compares in C, and setdefault
# below keeps one block per key under concurrent inserts
_CYCLICS: dict[tuple, Cyclic] = {}


def _interned_cyclic(key: tuple) -> Cyclic:
    """The interned block for key = (kind, primes, p, k), validated if new."""
    try:
        out = _CYCLICS.get(key)
    except TypeError:  # an unhashable field, which validation rejects
        out = None
    if out is None:
        kind, primes, p, k = key
        _check_cyclic(kind, primes, p, k)
        out = object.__new__(Cyclic)
        object.__setattr__(out, "kind", kind)
        object.__setattr__(out, "primes", primes)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "k", k)
        if kind == "torsion":
            sort_key = (1, p, k)
        else:
            sort_key = (0 if kind == "free" else 2, *primes.sort_key())
        object.__setattr__(out, "_sort_key", sort_key)
        out = _CYCLICS.setdefault(key, out)
    return out


@value_class
class Module:
    """Finite multiset of cyclic blocks, canonically ordered."""

    parts: tuple[tuple[Cyclic, int], ...]

    @classmethod
    def of(cls, items: Iterable[Cyclic | tuple[Cyclic, int]]) -> "Module":
        counts: dict[Cyclic, int] = {}
        for item in items:
            if isinstance(item, tuple):
                c, mult = item
                if type(mult) is not int:
                    mult = exact_int(mult, f"multiplicity of {c}")
            else:
                c, mult = item, 1
            if mult < 0:
                raise ValueError("negative multiplicity")
            if mult:
                counts[c] = counts.get(c, 0) + mult
        return cls._of_counts(counts)

    @classmethod
    def _of_counts(cls, counts: Mapping[Cyclic, int]) -> "Module":
        """The canonical form of positive multiplicities keyed by block."""
        if len(counts) < 2:
            return cls(tuple(counts.items()))
        return cls(tuple(sorted(counts.items(), key=lambda cm: cm[0]._sort_key)))

    @classmethod
    def zero(cls) -> "Module":
        return cls(())

    def is_zero(self) -> bool:
        return not self.parts

    def plus(self, other: "Module") -> "Module":
        counts = dict(self.parts)
        for c, m in other.parts:
            counts[c] = counts.get(c, 0) + m
        return Module._of_counts(counts)

    def cyclics(self) -> list[Cyclic]:
        out = []
        for c, mult in self.parts:
            out.extend([c] * mult)
        return out

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        bits = []
        for c, mult in self.parts:
            bits.append(str(c) if mult == 1 else f"{mult}*{c}")
        return " + ".join(bits)


@value_class
class GradedModule:
    """A formal object of D(Z): cohomological degree -> nonzero Module."""

    graded: tuple[tuple[int, Module], ...]

    @classmethod
    def of(cls, data: Mapping[int, Module | Iterable[Cyclic]]) -> "GradedModule":
        if not {int}.issuperset(map(type, data)):
            data = {exact_int(n, "degree"): m for n, m in data.items()}
        out = []
        for n, m in data.items():
            mod = m if isinstance(m, Module) else Module.of(m)
            if not mod.is_zero():
                out.append((n, mod))
        return cls(tuple(sorted(out)))

    @classmethod
    def zero(cls) -> "GradedModule":
        return cls(())

    @classmethod
    def unit(cls) -> "GradedModule":
        return cls.of({0: [Cyclic.free()]})

    def module_in(self, n: int) -> Module:
        for d, m in self.graded:
            if d == n:
                return m
        return Module.zero()

    def degrees(self) -> list[int]:
        return [n for n, _ in self.graded]

    def is_zero(self) -> bool:
        return not self.graded

    def shift(self, k: int) -> "GradedModule":
        return GradedModule(tuple((n - k, m) for n, m in self.graded))

    def plus(self, other: "GradedModule") -> "GradedModule":
        degrees = set(self.degrees()) | set(other.degrees())
        return GradedModule.of(
            {n: self.module_in(n).plus(other.module_in(n)) for n in degrees}
        )

    def __str__(self) -> str:
        if not self.graded:
            return "0"
        return "{" + ", ".join(f"{n}: {m}" for n, m in self.graded) + "}"

    def to_json(self) -> dict:
        return {str(n): [c.to_json() for c in m.cyclics()] for n, m in self.graded}

    @classmethod
    def from_json(cls, data: object, where: str = "object") -> "GradedModule":
        return cls.of({
            n: Module.of(
                Cyclic.from_json(item, f"{at}[{i}]")
                for i, item in enumerate(json_shape(val, list, at, "a list of cyclics"))
            )
            for n, at, val in json_degrees(data, where, "a degree-keyed object")
        })


def _one(c: Cyclic) -> Module:
    """A single block, which is already in canonical form."""
    return Module(((c, 1),))


def _pair(a: Cyclic, b: Cyclic) -> tuple[Cyclic, Cyclic]:
    if _KIND_ORDER[a.kind] <= _KIND_ORDER[b.kind]:
        return a, b
    return b, a


def _products(a: Cyclic, b: Cyclic) -> tuple[Cyclic | None, Cyclic | None]:
    """The tensor product and Tor_1 of two blocks: each one block, or None for zero."""
    x, y = _pair(a, b)
    if x.kind == "free":
        # localisations are flat: Tor_1 is zero
        if y.kind == "free":
            return Cyclic.free(x.primes.union(y.primes)), None
        if y.kind == "torsion":
            return (None if x.primes.contains(y.p) else y), None
        rest = y.primes.difference(x.primes)
        return (None if rest.is_empty() else Cyclic.prufer(rest)), None
    # below, a Prufer factor is divisible, so the tensor product is zero
    if x.kind == "torsion":
        if y.kind == "torsion":
            if x.p != y.p:
                return None, None
            c = x if x.k <= y.k else y
            return c, c
        return None, (x if y.primes.contains(x.p) else None)
    common = x.primes.intersect(y.primes)
    return None, (None if common.is_empty() else Cyclic.prufer(common))


def tensor_mod(a: Cyclic, b: Cyclic) -> Module:
    """Tensor product of two blocks, as a Module (possibly zero)."""
    c = _products(a, b)[0]
    return Module.zero() if c is None else _one(c)


def tor_mod(a: Cyclic, b: Cyclic) -> Module:
    """Tor_1 of two blocks, as a Module (possibly zero)."""
    c = _products(a, b)[1]
    return Module.zero() if c is None else _one(c)


def kunneth(x: GradedModule, y: GradedModule) -> GradedModule:
    """Derived tensor of formal objects.

    H^n(X x Y) collects the tensors of H^i X and H^j Y with i + j = n and
    the Tor terms with i + j = n + 1.  Each pair of blocks is multiplied
    once, and a degree gets its count dict only from a nonzero product.
    """
    out: dict[int, dict[Cyclic, int]] = {}
    for i, mi in x.graded:
        for j, mj in y.graded:
            n = i + j
            for a, ma in mi.parts:
                for b, mb in mj.parts:
                    t, tor = _products(a, b)
                    if t is not None:
                        counts = out.setdefault(n, {})
                        counts[t] = counts.get(t, 0) + ma * mb
                    if tor is not None:
                        counts = out.setdefault(n - 1, {})
                        counts[tor] = counts.get(tor, 0) + ma * mb
    graded = [(n, Module._of_counts(counts)) for n, counts in out.items()]
    if len(graded) > 1:
        graded.sort()  # the degrees differ, so no Module is compared
    return GradedModule(tuple(graded))


def supp_cyclic(c: Cyclic) -> PointSet:
    """Support of one block as a subset of Spec Z.

    A localisation Z[T^-1] survives at the generic point and at every closed
    point not inverted; torsion lives at its prime; a Prufer family lives at
    the primes of the family (all torsion, no generic point).
    """
    if c.kind == "free":
        return PointSet(True, c.primes.complement())
    if c.kind == "torsion":
        return PointSet(False, PrimeSet._checked(True, (c.p,)))
    return PointSet(False, c.primes)


def supp_blocks(blocks: Iterable[Cyclic]) -> PointSet:
    """The union of supp_cyclic over the blocks, in one pass over plain sets.

    ``listed`` holds the closed points of the union while it is finite, and
    the closed points it misses once it is cofinite.
    """
    generic = cofinite = False
    listed: set[int] = set()
    for c in blocks:
        if c.kind == "torsion":
            finite, primes = True, (c.p,)
        else:
            # a localisation lives off its inverted primes, a Prufer family on its own
            generic = generic or c.kind == "free"
            finite, primes = c.primes.finite != (c.kind == "free"), c.primes.listed
        if finite:
            if cofinite:
                listed.difference_update(primes)
            else:
                listed.update(primes)
        elif cofinite:
            listed.intersection_update(primes)
        else:
            listed = set(primes).difference(listed)
            cofinite = True
    return PointSet(generic, PrimeSet._checked(not cofinite, listed))


def supp_mod(m: Module) -> PointSet:
    return supp_blocks(c for c, _ in m.parts)


def localize_point(x: SpecZPoint, m: Module) -> bool:
    """Whether m survives localisation at the point: whether some block does.

    This is the localisation oracle for supports, read block by block: a
    block survives exactly on the tt-support that supp_cyclic gives it.  At
    the generic point only the free blocks survive; at (p) a localisation
    Z[T^-1] survives when p is not in T, Z/p^k when it is a p-group, and a
    Prufer family when it holds p.  It is a yes/no answer, not the stalk:
    Z[1/p] does not survive at (p), though its stalk Z[1/p]_(p) is Q.
    """
    if x.is_generic:
        return any(c.kind == "free" for c, _ in m.parts)
    p = x.p
    return any(
        c.p == p if c.kind == "torsion" else c.primes.contains(p) != (c.kind == "free")
        for c, _ in m.parts
    )
