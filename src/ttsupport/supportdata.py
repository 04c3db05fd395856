"""Finite abstract tensor-triangulated models and their spectra.

A catalogue is a finite multiplication table with a shift permutation,
a summand relation and a rotation-closed triangle list.  Thick
tensor-ideals are the closed sets of a closure operator and are listed
output-sensitively by Fast Close-by-One (growing from the closure of zero and
skipping closures that an ancestor's failed test already rules out).  Each
catalogue enumerates them once, on first use, and keeps them: the prime ones
give the spectrum, whose support datum is checked against the five support
axioms, and the terminal-datum map and the ideal/subset lattice bijection are
verified exhaustively against it.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property
from itertools import chain, compress, product
from operator import itemgetter, or_
from typing import Collection, Iterable, Mapping, Sequence

from .report import CheckRecord, Report, check
from .znum import json_items, json_shape, value_class

__all__ = [
    "CatalogueError",
    "Catalogue",
    "FiniteSpace",
    "SupportDatum",
    "enumerate_ideals",
    "enumerate_primes",
    "spc_support",
    "check_axioms",
    "universal_map",
    "thomason_lattice",
    "classify",
    "five_object_model",
    "random_subset_catalogue",
]

MAX_OBJECTS = 24
MAX_IDEALS = 1 << 14

# what a point name of a datum file may be: any JSON value but a list or an object
_SCALARS = (str, int, float, type(None))


class CatalogueError(ValueError):
    pass


@value_class
class Catalogue:
    """Finite model: object names, unit/zero, shift, tensor table,
    summand relation, triangles (closed under rotation (k,l,m) -> (l,m,Sk))."""

    objects: tuple[str, ...]
    zero: int
    unit: int
    shift: tuple[int, ...]
    tensor: tuple[tuple[int, ...], ...]
    summands: frozenset[tuple[int, int]]
    triangles: frozenset[tuple[int, int, int]]

    @classmethod
    def of(
        cls,
        objects: Sequence[str],
        zero: str,
        unit: str,
        tensor: Mapping[str, Mapping[str, str]],
        shift: Mapping[str, str] | None = None,
        summands: Collection[tuple[str, str]] = (),
        triangles: Collection[tuple[str, str, str]] = (),
    ) -> "Catalogue":
        names = tuple(objects)
        if len(set(names)) != len(names):
            raise CatalogueError("objects: duplicate names")
        if len(names) > MAX_OBJECTS:
            raise CatalogueError(f"objects: {len(names)} exceeds the bound {MAX_OBJECTS}")
        index = {name: i for i, name in enumerate(names)}

        def look(name: str, where: str) -> int:
            try:
                return index[name]
            except (KeyError, TypeError):  # TypeError: a name that is a list, say
                raise CatalogueError(f"{where}: unknown object {name!r}") from None

        def known(name) -> bool:
            # the type first: a name that is a list cannot be looked up
            return type(name) is str and name in index

        z = look(zero, "zero")
        u = look(unit, "unit")
        n = len(names)
        shift_map = list(range(n))
        if shift is not None:
            for a, b in shift.items():
                shift_map[look(a, "shift")] = look(b, f"shift.{a}")
        table = []
        for a in names:
            row = tensor.get(a)
            if row is None:
                raise CatalogueError(f"tensor: missing row for {a!r}")
            try:
                table.append(tuple([index[row[b]] for b in names]))
            except (KeyError, TypeError):
                # name the first missing entry or unknown object of the row
                b = next(b for b in names if b not in row or not known(row[b]))
                if b not in row:
                    raise CatalogueError(f"tensor.{a}: missing entry for {b!r}") from None
                raise CatalogueError(f"tensor.{a}.{b}: unknown object {row[b]!r}") from None
        try:
            sm = frozenset((index[a], index[b]) for a, b in summands)
        except (KeyError, TypeError):
            x = next(x for x in chain.from_iterable(summands) if not known(x))
            raise CatalogueError(f"summands: unknown object {x!r}") from None
        # Close the triangle list under rotation; the rotation is forced by
        # the shift table so listing one representative is enough.  Rotation
        # permutes the finite set of triples, so each orbit comes back to its
        # start; it can be longer than 3n when the shift's cycles have a
        # large least common multiple.  Each round rotates the triples the
        # last round added, all at once, and keeps those not yet seen.
        try:
            added = {(index[a], index[b], index[c]) for a, b, c in triangles}
        except (KeyError, TypeError):
            x = next(x for x in chain.from_iterable(triangles) if not known(x))
            raise CatalogueError(f"triangles: unknown object {x!r}") from None
        tri = set(added)
        while added:
            added = {(b, c, shift_map[a]) for a, b, c in added} - tri
            tri |= added
        cat = cls(names, z, u, tuple(shift_map), tuple(table), sm, frozenset(tri))
        cat.validate()
        return cat

    def validate(self) -> None:
        """Raise CatalogueError unless the shift is a permutation fixing
        zero and the tensor table is unital, zero-absorbing, commutative and
        associative.  Unit, zero and commutativity (row i against column i)
        are checked object by object, then associativity, which holds when
        row t[i][j] equals row j looked up in row i for every i and j: n^2
        whole-row comparisons instead of n^3 single cells.  Only on a
        failure is the first offending object, pair or triple sought, so the
        message names the same location as a cell-by-cell scan would.  The
        triangles need no check: Catalogue.of closes them under rotation."""
        n = len(self.objects)
        names = self.objects
        if sorted(self.shift) != list(range(n)):
            raise CatalogueError("shift: not a permutation")
        if self.shift[self.zero] != self.zero:
            raise CatalogueError("shift: must fix zero")
        t = self.tensor
        unit_row, zero_row = t[self.unit], t[self.zero]
        for i, (row, col) in enumerate(zip(t, zip(*t))):
            if unit_row[i] != i or row[self.unit] != i:
                raise CatalogueError(f"tensor: unit not neutral at {names[i]}")
            if zero_row[i] != self.zero or row[self.zero] != self.zero:
                raise CatalogueError(f"tensor: zero not absorbing at {names[i]}")
            if row != col:
                j = next(j for j in range(n) if row[j] != col[j])
                raise CatalogueError(f"tensor: not commutative at ({names[i]}, {names[j]})")
        # With one object the unit check has forced t == ((0,),), and
        # itemgetter of a single index would return a scalar, not a row.
        if n == 1:
            return
        through = [itemgetter(*row) for row in t]  # through[j](r): row j looked up in r
        if [t[x] for row in t for x in row] != [g(row) for row in t for g in through]:
            i, j, k = next(
                (i, j, k)
                for i, j, k in product(range(n), repeat=3)
                if t[t[i][j]][k] != t[i][t[j][k]]
            )
            raise CatalogueError(f"tensor: not associative at ({names[i]}, {names[j]}, {names[k]})")

    @property
    def size(self) -> int:
        return len(self.objects)

    @cached_property
    def ideals(self) -> tuple[frozenset[int], ...]:
        """The thick tensor-ideals, enumerated on first use."""
        return tuple(enumerate_ideals(self))

    @cached_property
    def spectrum(self) -> "SupportDatum":
        """The spectrum with its universal support: points are the primes,
        specialisation is reverse inclusion, and an object is supported at the
        primes that omit it.

        An ideal p holds the product of each of the n^2 - (n - |p|)^2 pairs
        with a member in p; it is prime when it is proper and holds no other
        product, so when the pairs whose product lies in p number exactly
        that many."""
        n = self.size
        hits = Counter(chain.from_iterable(self.tensor))  # pairs with each product
        primes = [
            p
            for p in self.ideals
            if len(p) < n and sum(map(hits.__getitem__, p)) == n * n - (n - len(p)) ** 2
        ]
        order = [(p, q) for p in primes for q in primes if q <= p]
        sigma = [frozenset(p for p in primes if i not in p) for i in range(n)]
        return SupportDatum.of(FiniteSpace.of(primes, order), sigma)

    def names_of(self, subset: frozenset[int]) -> tuple[str, ...]:
        return tuple(self.objects[i] for i in sorted(subset))

    def to_json(self) -> dict:
        return {
            "objects": list(self.objects),
            "zero": self.objects[self.zero],
            "unit": self.objects[self.unit],
            "shift": {self.objects[i]: self.objects[s] for i, s in enumerate(self.shift)},
            "tensor": {
                self.objects[i]: {
                    self.objects[j]: self.objects[self.tensor[i][j]] for j in range(self.size)
                }
                for i in range(self.size)
            },
            "summands": sorted([self.objects[a], self.objects[b]] for a, b in self.summands),
            "triangles": sorted(
                [self.objects[a], self.objects[b], self.objects[c]]
                for a, b, c in self.triangles
            ),
        }

    @classmethod
    def from_json(cls, data: object, where: str = "catalogue") -> "Catalogue":
        try:
            json_shape(data, dict, where)
            for key in ("objects", "zero", "unit", "tensor"):
                if key not in data:
                    raise ValueError(f"{where}.{key}: missing")
            objects = json_shape(data["objects"], list, f"{where}.objects", "a list of object names")
            # Catalogue.of rejects any other name that is not a string as unknown
            json_items(objects, str, f"{where}.objects", "an object name")
            shift = data.get("shift")
            if shift is not None:
                json_shape(shift, dict, f"{where}.shift")
            at = f"{where}.tensor"
            tensor = json_items(json_shape(data["tensor"], dict, at), dict, at)
            summands, triangles = (
                json_items(
                    json_shape(data.get(key, []), list, f"{where}.{key}"),
                    list, f"{where}.{key}", f"a {shape} of object names", arity,
                )
                for key, arity, shape in (("summands", 2, "pair"), ("triangles", 3, "triple"))
            )
            return cls.of(objects, data["zero"], data["unit"], tensor, shift, summands, triangles)
        except CatalogueError as exc:
            raise CatalogueError(f"{where}.{exc}") from None
        except ValueError as exc:  # a shape, whose message names its location
            raise CatalogueError(str(exc)) from None


def _members(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@value_class
class FiniteSpace:
    """Finite space whose specialisation order is held only as up-set
    bitmasks: bit j of up[i] is set when points[j] lies above points[i], in
    its closure (so bit i is set too)."""

    points: tuple
    up: tuple[int, ...]

    @cached_property
    def index(self) -> dict:
        """index[x] is the position of the point x."""
        return {x: i for i, x in enumerate(self.points)}

    @classmethod
    def of(cls, points: Sequence, order: Iterable[tuple]) -> "FiniteSpace":
        """The space on points in which x <= y for each pair (x, y) of order."""
        pts = tuple(points)
        index = {x: i for i, x in enumerate(pts)}
        if len(index) != len(pts):
            dup = next(x for i, x in enumerate(pts) if index[x] != i)
            raise ValueError(f"points: duplicate point {dup!r}")
        up = [1 << i for i in range(len(pts))]
        for x, y in order:
            if x not in index or y not in index:
                raise ValueError(f"order: unknown point in pair ({x}, {y})")
            up[index[x]] |= 1 << index[y]
        for i, above in enumerate(up):
            for j in _members(above & ~(1 << i)):
                if up[j] >> i & 1:
                    raise ValueError(f"order: not antisymmetric at ({pts[i]}, {pts[j]})")
        # x <= y needs up[y] within up[x]
        for i, above in enumerate(up):
            for j in _members(above):
                missing = up[j] & ~above
                if missing:
                    z = pts[missing.bit_length() - 1]
                    raise ValueError(f"order: not transitive at ({pts[i]}, {pts[j]}, {z})")
        return cls(pts, tuple(up))

    def is_spcl_closed(self, subset: frozenset) -> bool:
        """Whether subset, a set of points, holds every point above each of
        its members."""
        inside = above = 0
        for x in subset:
            i = self.index[x]
            inside |= 1 << i
            above |= self.up[i]
        return not above & ~inside


@value_class
class SupportDatum:
    """A space together with a specialisation-closed subset for each object."""

    space: FiniteSpace
    sigma: tuple[frozenset, ...]

    @classmethod
    def of(cls, space: FiniteSpace, sigma: Sequence[Iterable]) -> "SupportDatum":
        values = tuple(frozenset(s) for s in sigma)
        for i, s in enumerate(values):
            for x in s:
                if x not in space.index:
                    raise ValueError(f"sigma[{i}]: {x} is not a point of the space")
            if not space.is_spcl_closed(s):
                raise ValueError(f"sigma[{i}]: value is not specialisation closed")
        return cls(space, values)

    @classmethod
    def from_json(cls, data: object, objects: Sequence, where: str = "datum") -> "SupportDatum":
        """The datum of a JSON file for a catalogue of the given objects: point
        names, order pairs [x, y] (y in the closure of x), and sigma."""
        json_shape(data, dict, where)
        for key in ("points", "sigma"):
            if key not in data:
                raise ValueError(f"{where}: {key}: missing")
        try:
            points = json_shape(data["points"], list, "points", "a list of point names")
            json_items(points, _SCALARS, "points", "a point name")
            order = json_shape(data.get("order", []), list, "order", "a list of point-name pairs")
            json_items(order, list, "order", "a pair of point names", 2)
            for i, pair in enumerate(order):
                json_items(pair, _SCALARS, f"order[{i}]", "a point name")
            space = FiniteSpace.of(points, order)
            sigma = json_shape(data["sigma"], dict, "sigma")
            for name in objects:
                if name not in sigma:
                    raise ValueError(f"sigma missing object {name!r}")
            values = {name: sigma[name] for name in objects}
            json_items(values, list, "sigma", "a list of point names")
            for name, value in values.items():
                json_items(value, _SCALARS, f"sigma.{name}", "a point name")
            return cls.of(space, values.values())
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


def _ideal_closure(c: Catalogue):
    """The closure operator whose fixed points are the thick tensor-ideals,
    on bitmasks.  close(mask, extra) takes a closed mask and returns the
    smallest closed mask containing it and extra; only the newly added bits
    are examined, each once."""
    n = c.size
    bits = [1 << i for i in range(n)]
    # unary[i]: what i alone forces in: its shift, its summands and every
    # product k * i (column i, which is row i: the table is commutative)
    unary = [
        bits[s] | sum(map(bits.__getitem__, set(row))) for s, row in zip(c.shift, c.tensor)
    ]
    for a, b in c.summands:
        unary[a] |= bits[b]
    # partners[a][b]: third vertices t of the triangles (a, b, t)
    partners = [[0] * n for _ in range(n)]
    for a, b, t in c.triangles:
        partners[a][b] |= bits[t]
    # pairs[a]: (1 << b, thirds) for each b with thirds, the third vertices
    # of the triangles (a, b, t) and (b, a, t), forced in once a and b both
    # are: row a of partners OR its column a, which leaves the diagonal as it
    # is.  The triangle set is closed under rotation, so "two out of three"
    # needs only the first two vertices of each triangle as a pair.
    pairs = []
    for row, col in zip(partners, zip(*partners)):
        both = list(map(or_, row, col))
        pairs.append(tuple(compress(zip(bits, both), both)))

    def close(mask: int, extra: int) -> int:
        todo = extra & ~mask
        mask |= todo
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            add = unary[i]
            for bit, third in pairs[i]:
                if mask & bit:
                    add |= third
            add &= ~mask
            mask |= add
            todo |= add
        return mask

    return close


def enumerate_ideals(c: Catalogue) -> list[frozenset[int]]:
    """All thick tensor-ideals, sorted by size and then by members.

    They are the closed sets of _ideal_closure, listed by Fast Close-by-One
    (Kuznetsov 1993; Outrata and Vychodil 2012).  From a closed set C, each
    object j >= start outside C gives D = close(C | {j}), which is kept and
    grown from j + 1 only when it adds no object below j.  A D that adds one
    is remembered as failed[j] and handed to every child of C: a child's
    closure with j contains D, so it fails too whenever D has an object below
    j outside the child, and is skipped without being computed.  Each closed
    set is reached exactly once, so the cost is O(#ideals * size * closure)
    rather than O(2^size).  Raises CatalogueError on finding more than
    MAX_IDEALS."""
    n = c.size
    close = _ideal_closure(c)
    base = close(0, 1 << c.zero)
    masks = [base]
    stack = [(base, 0, [0] * n)]
    while stack:
        closed, start, failed = stack.pop()
        children = []
        passed_down = failed
        for j in range(start, n):
            bit = 1 << j
            if closed & bit:
                continue
            below = bit - 1
            if failed[j] & below & ~closed:
                continue
            grown = close(closed, bit)
            if grown & below == closed & below:
                children.append((grown, j + 1))
            else:
                if passed_down is failed:
                    passed_down = list(failed)
                passed_down[j] = grown
        for grown, nxt in children:
            masks.append(grown)
            if len(masks) > MAX_IDEALS:
                raise CatalogueError(
                    f"ideals: more than the bound of {MAX_IDEALS} thick tensor-ideals"
                )
            stack.append((grown, nxt, passed_down))
    found = [frozenset(_members(m)) for m in masks]
    found.sort(key=lambda s: (len(s), sorted(s)))
    return found


def enumerate_primes(c: Catalogue) -> list[frozenset[int]]:
    return list(c.spectrum.space.points)


def spc_support(c: Catalogue) -> SupportDatum:
    """c.spectrum, the catalogue's spectrum with its universal support."""
    return c.spectrum


def check_axioms(d: SupportDatum, c: Catalogue) -> Report:
    """The five support axioms, read off the catalogue tables.

    Sums are encoded by the summand relation (each summand supported inside
    its sum) together with the triangle containments, which give the reverse
    inclusion for listed split triangles.  Each support is read as a bitmask
    over the points, so the containments and the tensor identity (a whole
    row at a time) are integer operations.
    """
    s = d.sigma
    everything = frozenset(d.space.points)
    index = d.space.index
    m = [sum(1 << index[x] for x in support) for support in s]
    records = [
        check("axiom.a.unit", s[c.unit] == everything, set(s[c.unit]), set(everything)),
        check("axiom.a.zero", s[c.zero] == frozenset(), set(s[c.zero]), set()),
    ]
    bad = sorted((a, b) for a, b in c.summands if m[b] & ~m[a])
    records.append(
        check(
            "axiom.b.summands",
            not bad,
            "; ".join(f"{c.objects[a]} !>= {c.objects[b]}" for a, b in bad),
            "containment",
        )
    )
    bad = [i for i in range(c.size) if m[c.shift[i]] != m[i]]
    records.append(
        check(
            "axiom.c.shift",
            not bad,
            ", ".join(c.objects[i] for i in bad),
            "shift-invariance",
        )
    )
    bad_tri = sorted((a, b, t) for a, b, t in c.triangles if m[b] & ~(m[a] | m[t]))
    records.append(
        check(
            "axiom.d.triangles",
            not bad_tri,
            "; ".join(
                f"({c.objects[a]},{c.objects[b]},{c.objects[t]})" for a, b, t in bad_tri
            ),
            "subadditivity",
        )
    )
    # the pairs (i, j) that fail, sought only in the rows i that fail
    bad_pairs = [
        (i, j)
        for i, (row, mi) in enumerate(zip(c.tensor, m))
        if [m[x] for x in row] != [mi & mj for mj in m]
        for j, x in enumerate(row)
        if m[x] != mi & m[j]
    ]
    records.append(
        check(
            "axiom.e.tensor",
            not bad_pairs,
            "; ".join(f"({c.objects[i]},{c.objects[j]})" for i, j in bad_pairs[:4]),
            "intersection",
        )
    )
    advisory = [
        c.objects[i]
        for i in range(c.size)
        if i != c.zero and not s[i]
    ]
    records.append(
        CheckRecord(
            "advisory.empty-support-nonzero",
            not advisory,
            f"nonzero objects with empty support: {', '.join(advisory)}" if advisory else "",
            advisory=True,
        )
    )
    return Report.of(records)


def point_label(x, c: Catalogue) -> str:
    """Readable name for a point of a support datum's space; prime ideals
    are shown by their member objects."""
    if isinstance(x, frozenset):
        return "{" + ", ".join(c.names_of(x)) + "}"
    return str(x)


@value_class
class UniversalMapResult:
    mapping: tuple[tuple[object, frozenset[int]], ...]
    report: Report

    def apply(self, x) -> frozenset[int]:
        return dict(self.mapping)[x]


def universal_map(d: SupportDatum, c: Catalogue) -> UniversalMapResult:
    """The canonical comparison with the spectrum c.spectrum: x goes to the
    objects not supported at x.  Verifies the image is prime, the support
    identity, and that no other map satisfies it."""
    spc = c.spectrum
    primes = spc.space.points
    prime_set = set(primes)
    supp = spc.sigma
    records = []
    mapping = []
    for x in d.space.points:
        fx = frozenset(i for i in range(c.size) if x not in d.sigma[i])
        mapping.append((x, fx))
        records.append(
            check(
                f"universal.prime[{point_label(x, c)}]",
                fx in prime_set,
                sorted(c.objects[i] for i in fx),
                "a prime of the catalogue",
            )
        )
    fdict = dict(mapping)
    for i in range(c.size):
        preimage = frozenset(x for x in d.space.points if fdict[x] in supp[i])
        records.append(
            check(
                f"universal.support-identity[{c.objects[i]}]",
                preimage == d.sigma[i],
                set(preimage),
                set(d.sigma[i]),
            )
        )
    # The support identity constrains each point on its own, so the maps that
    # satisfy it are all choices of one candidate prime per point.
    solutions = 1
    match = True
    for x in d.space.points:
        candidates = [
            p for p in primes
            if all((p in supp[i]) == (x in d.sigma[i]) for i in range(c.size))
        ]
        solutions *= len(candidates)
        match = match and all(p == fdict[x] for p in candidates)
    records.append(check("universal.unique", solutions == 1 and match, solutions, 1))
    return UniversalMapResult(tuple(mapping), Report.of(records))


def thomason_lattice(s: FiniteSpace) -> list[frozenset]:
    """All specialisation-closed subsets of a finite space.

    Splits on one undecided point at a time: either it is left out, and so
    is every point that specialises to it, or it is taken in with its
    closure.
    Both choices are always open, so every branch ends in a distinct subset
    and the cost grows with the number of subsets, not with 2^points."""
    pts, ups = s.points, s.up
    downs = [0] * len(pts)  # the transpose of ups: the points below each point
    for i, above in enumerate(ups):
        for j in _members(above):
            downs[j] |= 1 << i
    out = []
    stack = [(0, (1 << len(pts)) - 1)]
    while stack:
        inside, undecided = stack.pop()
        if not undecided:
            out.append(frozenset(p for i, p in enumerate(pts) if inside >> i & 1))
            continue
        i = (undecided & -undecided).bit_length() - 1
        stack.append((inside, undecided & ~downs[i]))
        stack.append((inside | ups[i], undecided & ~ups[i]))
    out.sort(key=lambda x: (len(x), sorted(map(repr, x))))
    return out


def classify(c: Catalogue) -> Report:
    """Verify the lattice bijection between thick tensor-ideals and
    specialisation-closed subsets of the spectrum.

    The bijection holds for radical ideals (Balmer 2005), and every ideal of
    c.ideals is compared, so a catalogue with a non-radical ideal fails here.
    On {0, U, a, b} with a * a = a * b = b * b = 0, classify.counts reads
    5 != 2 and classify.tau-sigma-identity misses {0}, {0, a} and {0, b};
    check_axioms flags a and b there under advisory.empty-support-nonzero."""
    # The ideals come from the scan, never from the supports, so the checks
    # below compare two independent constructions.
    ideals = c.ideals
    subsets = thomason_lattice(c.spectrum.space)
    supp = c.spectrum.sigma

    def sigma_of(ideal: frozenset[int]) -> frozenset:
        out: frozenset = frozenset()
        for i in ideal:
            out |= supp[i]
        return out

    def tau_of(subset: frozenset) -> frozenset[int]:
        return frozenset(i for i in range(c.size) if supp[i] <= subset)

    sigmas = [sigma_of(i) for i in ideals]
    records = [
        check("classify.counts", len(ideals) == len(subsets), len(ideals), len(subsets)),
    ]
    bad = [i for i, s in zip(ideals, sigmas) if tau_of(s) != i]
    records.append(
        check(
            "classify.tau-sigma-identity",
            not bad,
            [sorted(c.objects[k] for k in b) for b in bad[:3]],
            "every ideal hit",
        )
    )
    bad_sub = [v for v in subsets if sigma_of(tau_of(v)) != v]
    records.append(
        check(
            "classify.sigma-tau-identity",
            not bad_sub,
            [sorted(map(repr, b)) for b in bad_sub[:3]],
            "every subset hit",
        )
    )
    image = set(sigmas)
    records.append(
        check("classify.sigma-onto", image == set(subsets), len(image), len(subsets))
    )
    # Order preservation both ways on all comparable pairs.
    pairs = list(zip(ideals, sigmas))
    mono = all((sa <= sb) == (a <= b) for a, sa in pairs for b, sb in pairs)
    records.append(check("classify.order-isomorphism", mono))
    return Report.of(records)


def five_object_model() -> Catalogue:
    """The two-point worked example: unit decomposes as A + B, with A and B
    orthogonal idempotent objects.  Both sum decompositions are recorded as
    triangles, so the ideal lattice is the four specialisation-closed
    subsets of a discrete two-point space."""
    names = ["0", "U", "A", "B", "S"]
    tensor = {
        "0": {"0": "0", "U": "0", "A": "0", "B": "0", "S": "0"},
        "U": {"0": "0", "U": "U", "A": "A", "B": "B", "S": "S"},
        "A": {"0": "0", "U": "A", "A": "A", "B": "0", "S": "A"},
        "B": {"0": "0", "U": "B", "A": "0", "B": "B", "S": "B"},
        "S": {"0": "0", "U": "S", "A": "A", "B": "B", "S": "S"},
    }
    return Catalogue.of(
        names,
        zero="0",
        unit="U",
        tensor=tensor,
        summands=[("S", "A"), ("S", "B"), ("U", "A"), ("U", "B")],
        triangles=[("A", "S", "B"), ("A", "U", "B")],
    )


# random_subset_catalogue draws posets on 2 to this many points.
MAX_POSET_POINTS = 6


def random_subset_catalogue(rng: random.Random, n_objects: int) -> Catalogue:
    """A random valid catalogue: the lattice of specialisation-closed subsets
    of a random finite poset, with intersection as tensor, unions as
    triangles and containments as summands.

    The poset comes from one randomised depth-first search.  Posets on
    0..k-1, numbered along a linear extension, are kept as their lists of
    up-sets (bitmasks), starting from the one-point poset.  A new top point
    k whose strict down-set is the complement of an up-set w has the up-sets
    u <= w (k left out) and u | k for every old u.  A new point only adds
    up-sets, so the search pushes, in shuffled order, only the extensions
    with at most n_objects of them, and stops at the first poset on 2 or
    more points with exactly n_objects.

    Raises ValueError when n_objects exceeds MAX_OBJECTS or when no poset on
    2..MAX_POSET_POINTS points has n_objects up-sets.
    """
    if n_objects > MAX_OBJECTS:
        raise CatalogueError(f"n_objects={n_objects} exceeds the bound {MAX_OBJECTS}")
    stack = [(1, [0, 1])]
    while stack:
        npts, ups = stack.pop()
        if npts >= 2 and len(ups) == n_objects:
            break
        if npts < MAX_POSET_POINTS:
            grown = []
            for w in ups:
                below = [u for u in ups if not u & ~w]
                if len(ups) + len(below) <= n_objects:
                    grown.append((npts + 1, below + [u | 1 << npts for u in ups]))
            rng.shuffle(grown)
            stack.extend(grown)
    else:
        raise ValueError(
            f"n_objects={n_objects}: no poset on 2..{MAX_POSET_POINTS} points has that many up-sets"
        )
    up_sets = [frozenset(_members(u)) for u in ups]
    up_sets.sort(key=lambda s: (len(s), sorted(s)))
    names = ["v" + "".join(str(p) for p in sorted(s)) if s else "empty" for s in up_sets]
    index = {s: names[i] for i, s in enumerate(up_sets)}
    tensor = {
        index[a]: {index[b]: index[a & b] for b in up_sets} for a in up_sets
    }
    summands = [
        (index[a], index[b]) for a in up_sets for b in up_sets if b < a
    ]
    triangles = [
        (index[a], index[a | b], index[b]) for a in up_sets for b in up_sets
    ]
    return Catalogue.of(
        names,
        zero=index[frozenset()],
        unit=index[frozenset(range(npts))],
        tensor=tensor,
        summands=summands,
        triangles=triangles,
    )
