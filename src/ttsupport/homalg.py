"""Exact integer linear algebra and perfect complexes over Z.

Matrices carry arbitrary-precision integers.  Homology reads invariant
factors computed modulo a determinantal divisor, so their entries stay
bounded; Smith normal form with unimodular transforms is exact over Z.
Complexes use the cohomological convention: the differential in degree n
maps C^n to C^{n+1}, and the shift moves degrees down, (shift C)^n = C^{n+1}.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, prod
from operator import lshift, mul
from typing import Iterable, Mapping, Sequence

from .modcalc import Cyclic, GradedModule, Module
from .znum import (
    PrimeSet, exact_int, factorint, json_degrees, json_int, json_items, json_shape, value_class,
)

__all__ = [
    "IntMatrix",
    "SNFResult",
    "xgcd",
    "snf",
    "smith_factors",
    "determinant",
    "PerfectComplex",
    "ChainMap",
    "homology",
    "tensor_chain",
    "cone",
    "shift",
    "direct_sum",
    "unit_complex",
    "scalar_cone",
]


# The total rank that a complex read from a file may have; complexes built
# inside the program are not bounded.  Within it the costliest input is one
# dense 100 x 100 differential, whose Smith factors take 0.81-0.86 s on a
# 2-core Xeon (about 5 s at 150 x 150).  Without a bound, a 43-byte file
# declaring rank 10^8 would run for minutes and print one entry per unit of
# rank.
MAX_RANK = 200


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


_DECIMAL_CHARS = frozenset("+-0123456789")


def _json_row(row: list, where: str) -> tuple[int, ...]:
    """json_int of each entry of a matrix row; where[j] names a bad entry j.

    A row of strings made of signs and digits alone, as to_json writes it,
    costs one int() per entry: without spaces or underscores int() accepts
    exactly json_int's decimal form, and raises on anything else.
    """
    try:
        if _DECIMAL_CHARS.issuperset("".join(row)):
            return tuple(map(int, row))
    except (TypeError, ValueError):  # not all strings, or not all decimals
        pass
    return tuple(json_int(x, f"{where}[{j}]") for j, x in enumerate(row))


@value_class
class IntMatrix:
    """Dense row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.entries)}")
        if not {self.cols}.issuperset(map(len, self.entries)):
            i, row = next((i, row) for i, row in enumerate(self.entries) if len(row) != self.cols)
            raise ValueError(f"row {i} has {len(row)} entries, expected {self.cols}")

    @classmethod
    def of(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        """The matrix of rows, each an iterable of integers.

        Rows of ints are taken as they are, after one type scan; otherwise
        each entry is converted by ``__index__``, so an int subclass is read
        as its value, and a bool, float or string raises ValueError naming
        its row and column.
        """
        data = tuple(map(tuple, rows))
        if not {int}.issuperset(map(type, chain.from_iterable(data))):
            data = tuple(
                tuple(exact_int(x, f"row {i}, column {j}") for j, x in enumerate(row))
                for i, row in enumerate(data)
            )
        ncols = len(data[0]) if data else 0
        return cls(len(data), ncols, data)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def neg(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(-x for x in row) for row in self.entries))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = list(zip(*other.entries)) if other.entries else [()] * other.cols
        return IntMatrix(
            self.rows,
            other.cols,
            tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in self.entries),
        )

    def to_json(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, data: object, rows: int, cols: int, where: str = "matrix") -> "IntMatrix":
        if len(json_shape(data, list, where, "a list of rows")) != rows:
            raise ValueError(f"{where}: expected {rows} rows, got {len(data)}")
        json_items(data, list, where, f"a row of {cols} entries", cols)
        return cls(rows, cols, tuple([_json_row(r, f"{where}[{i}]") for i, r in enumerate(data)]))


def _as_matrix(mat: IntMatrix | Iterable[Iterable[int]], what: str, n: int) -> IntMatrix:
    """mat as an IntMatrix; a bad entry raises ValueError naming what it
    is and its degree n."""
    if isinstance(mat, IntMatrix):
        return mat
    try:
        return IntMatrix.of(mat)
    except ValueError as exc:
        raise ValueError(f"{what} at degree {n}: {exc}") from None


@value_class
class SNFResult:
    """Smith normal form data: u * m * v = d with u, v unimodular.

    The diagonal of d is the divisibility chain; invariant_factors lists its
    nonzero (positive) entries, each dividing the next.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    invariant_factors: tuple[int, ...]


def snf(m: IntMatrix) -> SNFResult:
    """Smith normal form with transforms: u*m*v = d, both unimodular.

    One elimination runs on the rows of [m | I] and on v, held as its
    columns: vt[j] is column j of v (Cohen, *A Course in Computational
    Algebraic Number Theory*, 2.4).  Row operations act on whole rows of
    [m | I], so they carry u along; a column operation on columns j1, j2 of
    m acts on vt[j1] and vt[j2] in the same way, so it carries v along.

    At step t the rows above t are zero past column t, so a column
    operation touches only rows t and below, and while column t is zero
    below the pivot a divisible column step touches row t alone.
    """
    nrows, ncols = m.rows, m.cols
    a = [list(row) + [int(i == k) for k in range(nrows)] for i, row in enumerate(m.entries)]
    vt = [[int(j == k) for k in range(ncols)] for j in range(ncols)]
    absent = float("inf")  # the pivot-search key of a zero entry
    limit = min(nrows, ncols)
    for t in range(limit):
        # Minimal-absolute-value pivot, the first in row-major order; it keeps
        # intermediate entries tame.  No entry is less than 1 in absolute value.
        least = absent
        for i in range(t, nrows):
            keys = [abs(x) or absent for x in a[i][t:ncols]]
            k = min(keys)
            if k < least:
                least, pi, pj = k, i, t + keys.index(k)
                if k == 1:
                    break
        if least == absent:
            break
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for r in a[t:]:
                r[t], r[pj] = r[pj], r[t]
            vt[t], vt[pj] = vt[pj], vt[t]
        while True:
            # Clear column t below the pivot with row operations.
            for i in range(t + 1, nrows):
                top, row = a[t], a[i]
                p, q = top[t], row[t]
                if not q:
                    continue
                if q % p == 0:
                    f = -(q // p)
                    a[i] = [x + f * y for x, y in zip(row, top)]
                else:
                    g, x, y = xgcd(p, q)
                    pg, qg = p // g, q // g
                    a[t] = [x * s + y * w for s, w in zip(top, row)]
                    a[i] = [-qg * s + pg * w for s, w in zip(top, row)]
            top = a[t]
            if any(top[t + 1 : ncols]):
                # Clear row t right of the pivot with column operations.
                # Column t is zero below the pivot until an xgcd step.
                clean = True
                for j in range(t + 1, ncols):
                    p, q = top[t], top[j]
                    if not q:
                        continue
                    if q % p == 0:
                        f = -(q // p)
                        if clean:
                            top[j] = 0
                        else:
                            for r in a[t:]:
                                r[j] += f * r[t]
                        vt[j] = [x + f * y for x, y in zip(vt[j], vt[t])]
                    else:
                        g, x, y = xgcd(p, q)
                        pg, qg = p // g, q // g
                        for r in a[t:]:
                            s, w = r[t], r[j]
                            r[t] = x * s + y * w
                            r[j] = -qg * s + pg * w
                        c1, c2 = vt[t], vt[j]
                        vt[t] = [x * s + y * w for s, w in zip(c1, c2)]
                        vt[j] = [-qg * s + pg * w for s, w in zip(c1, c2)]
                        clean = False
                if not clean and any(a[i][t] for i in range(t + 1, nrows)):
                    continue
            # Pivot must divide the rest of the submatrix for the chain.
            pivot = top[t]
            if pivot == 1 or pivot == -1:  # a unit divides everything
                break
            bad = next(
                (i for i in range(t + 1, nrows) if any(x % pivot for x in a[i][t + 1 : ncols])),
                None,
            )
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(top, a[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    d = IntMatrix(nrows, ncols, tuple(tuple(r[:ncols]) for r in a))
    u = IntMatrix(nrows, nrows, tuple(tuple(r[ncols:]) for r in a))
    v = IntMatrix(ncols, ncols, tuple(zip(*vt)))
    if u.mul(m).mul(v) != d:
        raise AssertionError("smith normal form internal check failed")
    return SNFResult(u, d, v, tuple(a[i][i] for i in range(limit) if a[i][i]))


def _product_is_zero(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether a.b is zero, stopping at its first nonzero row.

    Past four columns of b each row of a.b is tested with one product
    (Kronecker substitution): row t of b is packed into the integer
    P_t = sum over c of b[t][c] * 2^(w*c), so row i of a gives
    S_i = sum over t of a[i][t] * P_t = sum over c of (a.b)[i][c] * 2^(w*c).
    Every entry of a.b has absolute value at most a.cols * max|a| * max|b|,
    which w makes less than 2^(w-1).  Base-2^w digits in (-2^(w-1), 2^(w-1))
    are unique, so S_i = 0 exactly when row i of a.b is zero: the lowest
    nonzero digit x would have to be divisible by 2^w.  The test is exact.
    Up to four columns the entries are summed one by one, which is faster.
    """
    if b.cols <= 4:
        cols = list(zip(*b.entries))
        return not any(sum(map(mul, row, col)) for row in a.entries for col in cols)
    top_a = max(map(abs, chain.from_iterable(a.entries)), default=0)
    top_b = max(map(abs, chain.from_iterable(b.entries)), default=0)
    w = (a.cols * top_a * top_b).bit_length() + 1
    shifts = range(0, w * b.cols, w)
    packed = [sum(map(lshift, row, shifts)) for row in b.entries]
    return not any(sum(map(mul, row, packed)) for row in a.entries)


def _rank_and_minor(rows: Iterable[Sequence[int]]) -> tuple[int, int]:
    """Rank r and |det| of a nonsingular r x r minor, by one fraction-free
    (Bareiss) pass with row pivoting.

    ``determinant`` stays a separate square-only elimination: it is the
    oracle of verify's check that Smith transforms are unimodular.
    """
    # The nonzero rows not yet taken as pivots, on the columns not yet
    # eliminated; a row that reduces to zero is dropped.
    rest = [row for row in rows if any(row)]
    rank, prev = 0, 1
    while rest:
        for i, row in enumerate(rest):
            if row[0]:
                break
        else:
            rest = [row[1:] for row in rest]
            continue
        top = rest.pop(i)
        p, tail = top[0], top[1:]
        reduced = []
        for row in rest:
            q = row[0]
            row = [(x * p - q * y) // prev for x, y in zip(row[1:], tail)]
            if any(row):
                reduced.append(row)
        rest = reduced
        prev = p
        rank += 1
    return rank, abs(prev)


def smith_factors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors only (no transforms); the path homology takes.

    Entries are kept modulo M = 2D, where D is |det| of a nonsingular r x r
    minor and r the rank (Hafner--McCurley 1991; Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.4).  Each invariant factor
    divides D, so over Z/M it survives as itself, and M stands for a zero
    (2D rather than D, so that a factor equal to D is not taken for one).
    No entry grows past M.

    Thin shapes, most of the calls that homology makes, are answered in
    closed form: a matrix of at most one row or column has the gcd of its
    entries as its one factor (none when that gcd is 0, as for an empty
    matrix), and a 2 x 2 matrix has d1 = gcd of its entries and
    d1 * d2 = |det|.
    """
    if m.rows <= 1 or m.cols <= 1:
        g = gcd(*chain.from_iterable(m.entries))
        return (g,) if g else ()
    if m.rows == m.cols == 2:
        (a, b), (c, d) = m.entries
        g = gcd(a, b, c, d)
        if not g:
            return ()
        det = abs(a * d - b * c)
        return (g, det // g) if det else (g,)
    # The transpose has the same factors; the elimination runs on its rows,
    # so it costs less on the side with fewer of them.
    entries = m.entries if m.rows <= m.cols else tuple(zip(*m.entries))
    rank, det = _rank_and_minor(entries)
    if rank == 0:
        return ()
    mod = 2 * det
    rows = [row for row in ([x % mod for x in r] for r in entries) if any(row)]
    diag = []
    while rows:
        if len(rows) == 1:
            # One row left: over Z/M its only factor is the gcd of its entries.
            diag.append(gcd(mod, *rows[0]))
            break
        # Pivot on the entry of least gcd with M: a unit of Z/M if any.
        least = mod
        for i, row in enumerate(rows):
            for k, x in enumerate(row):
                if x:
                    g = gcd(x, mod)
                    if g < least:
                        least, pi, j = g, i, k
                        if g == 1:
                            break
            if least == 1:
                break
        top = rows.pop(pi)
        p = top[j]
        if least == 1:
            # A unit pivot clears its column in one step: each row subtracts
            # (q / p) times the pivot row over Z/M, which stays as it is.
            inv = pow(p, -1, mod)
            rest = []
            for row in rows:
                f = row[j] * inv % mod
                if f:
                    row = [(x - f * y) % mod for x, y in zip(row, top)]
                    if not any(row):
                        continue
                rest.append(row)
            rows = rest
        else:
            while True:
                # Clear column j with unimodular row operations.
                rest = []
                for row in rows:
                    q = row[j]
                    if q:
                        if q % p == 0:
                            f = q // p
                            row = [(x - f * y) % mod for x, y in zip(row, top)]
                        else:
                            g, s, t = xgcd(p, q)
                            a, b = p // g, q // g
                            top, row = (
                                [(s * x + t * y) % mod for x, y in zip(top, row)],
                                [(a * y - b * x) % mod for x, y in zip(top, row)],
                            )
                            p = g
                        if not any(row):
                            continue
                    rest.append(row)
                rows = rest
                least = gcd(p, mod)
                if least == 1 or not any(x % least for x in top):
                    break
                # The pivot does not divide its row over Z/M: column operations
                # put the gcd there, a proper divisor of the old one, and the
                # column has to be cleared again.
                for k, q in enumerate(top):
                    if q % least:
                        g, s, t = xgcd(p, q)
                        a, b = p // g, q // g
                        for row in rows + [top]:
                            x, y = row[j], row[k]
                            row[j], row[k] = (s * x + t * y) % mod, (a * y - b * x) % mod
                        p = g
                        least = gcd(p, mod)
        # The pivot divides its row and is alone in its column: drop both.
        diag.append(least)
        for row in rows:
            del row[j]
    # diag(a, b) ~ diag(gcd, lcm): fold into a chain, then drop the zeros.
    for i in range(len(diag)):
        for k in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[k])
            diag[i], diag[k] = g, diag[i] // g * diag[k]
    factors = tuple(x for x in diag if x != mod)
    if len(factors) != rank or det % prod(factors):
        raise AssertionError("modular smith form internal check failed")
    return factors


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@value_class
class PerfectComplex:
    """Bounded complex of finite-rank free Z-modules.

    ``ranks`` maps degree n to the rank of C^n; ``diffs`` maps n to the
    matrix of d^n : C^n -> C^{n+1}, of shape ranks[n+1] x ranks[n], and
    holds no zero differential.  d(n+1) . d(n) = 0 is validated at
    construction.
    """

    ranks: tuple[tuple[int, int], ...]
    diffs: tuple[tuple[int, IntMatrix], ...]

    @classmethod
    def of(
        cls,
        ranks: Mapping[int, int],
        differentials: Mapping[int, IntMatrix | Iterable[Iterable[int]]] | None = None,
    ) -> "PerfectComplex":
        if not {int}.issuperset(map(type, chain(ranks, ranks.values()))):
            ranks = {
                exact_int(n, "degree"): exact_int(r, f"rank at degree {n!r}")
                for n, r in ranks.items()
            }
        rk = {n: r for n, r in ranks.items() if r}
        for n, r in rk.items():
            if r < 0:
                raise ValueError(f"rank at degree {n} is negative")
        dd: dict[int, IntMatrix] = {}
        for n, mat in (differentials or {}).items():
            n = exact_int(n, "differential degree")
            m = _as_matrix(mat, "differential", n)
            want = (rk.get(n + 1, 0), rk.get(n, 0))
            if (m.rows, m.cols) != want:
                raise ValueError(
                    f"differential at degree {n} has shape {m.rows}x{m.cols}, expected {want[0]}x{want[1]}"
                )
            if not m.is_zero():
                dd[n] = m
        c = cls(tuple(sorted(rk.items())), tuple(sorted(dd.items())))
        for n, m in dd.items():
            if n + 1 in dd and not _product_is_zero(dd[n + 1], m):
                raise ValueError(f"d twice is nonzero between degrees {n} and {n + 2}")
        return c

    @property
    def lo(self) -> int:
        return self.ranks[0][0] if self.ranks else 0

    @property
    def hi(self) -> int:
        return self.ranks[-1][0] if self.ranks else 0

    @cached_property
    def _rank_of(self) -> dict[int, int]:
        return dict(self.ranks)

    @cached_property
    def diff_of(self) -> dict[int, IntMatrix]:
        """d^n by degree n; a zero differential has no key."""
        return dict(self.diffs)

    def rank(self, n: int) -> int:
        return self._rank_of.get(n, 0)

    def degrees(self) -> list[int]:
        return [n for n, _ in self.ranks]

    def to_json(self) -> dict:
        return {
            "ranks": {str(n): r for n, r in self.ranks},
            "differentials": {str(n): m.to_json() for n, m in self.diffs},
        }

    @classmethod
    def from_json(cls, data: object, where: str = "complex") -> "PerfectComplex":
        json_shape(data, dict, where, "an object with 'ranks'", key="ranks")
        ranks = {}
        total = 0
        for n, at, val in json_degrees(data["ranks"], f"{where}.ranks"):
            ranks[n] = json_int(val, at)
            total += ranks[n]
            if total > MAX_RANK:
                raise ValueError(f"{at}: total rank {total} exceeds the bound {MAX_RANK}")
        diffs = {
            n: IntMatrix.from_json(val, ranks.get(n + 1, 0), ranks.get(n, 0), at)
            for n, at, val in json_degrees(data.get("differentials", {}), f"{where}.differentials")
        }
        try:
            return cls.of(ranks, diffs)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@value_class
class ChainMap:
    """A degreewise map between perfect complexes commuting with d; a zero
    component is left out of ``components``."""

    src: PerfectComplex
    dst: PerfectComplex
    components: tuple[tuple[int, IntMatrix], ...]

    @classmethod
    def of(
        cls,
        src: PerfectComplex,
        dst: PerfectComplex,
        maps: Mapping[int, IntMatrix | Iterable[Iterable[int]]],
    ) -> "ChainMap":
        comps: dict[int, IntMatrix] = {}
        for n, mat in maps.items():
            n = exact_int(n, "component degree")
            m = _as_matrix(mat, "component", n)
            want = (dst.rank(n), src.rank(n))
            if (m.rows, m.cols) != want:
                raise ValueError(f"component at degree {n} has shape {m.rows}x{m.cols}, expected {want}")
            if not m.is_zero():
                comps[n] = m
        for n in sorted(set(src.degrees()) | set(dst.degrees())):
            # d.f_n = f_(n+1).d, multiplying only pairs of present maps
            d, fn = dst.diff_of.get(n), comps.get(n)
            fm, e = comps.get(n + 1), src.diff_of.get(n)
            if d is None or fn is None:
                ok = fm is None or e is None or _product_is_zero(fm, e)
            elif fm is None or e is None:
                ok = _product_is_zero(d, fn)
            else:
                ok = d.mul(fn) == fm.mul(e)
            if not ok:
                raise ValueError(f"not a chain map at degree {n}: d.f != f.d")
        return cls(src, dst, tuple(sorted(comps.items())))

    @cached_property
    def component_of(self) -> dict[int, IntMatrix]:
        """f_n by degree n; a zero component has no key."""
        return dict(self.components)


def unit_complex() -> PerfectComplex:
    """Z concentrated in degree 0 (the tensor unit)."""
    return PerfectComplex.of({0: 1})


def scalar_cone(n: int) -> PerfectComplex:
    """cone(Z --n--> Z): Z in degrees -1 and 0, joined by n; homology Z/n
    in degree 0 for |n| >= 2."""
    return PerfectComplex.of({-1: 1, 0: 1}, {-1: [[n]]})


@lru_cache(maxsize=1024)
def _torsion_cyclics(factor: int) -> tuple[Cyclic, ...]:
    """Primary parts of Z/factor; memoised, as the same factors recur.

    ``znum.factorint`` factors it, or raises ValueError for a factor it
    cannot settle: a prime past the proven primality bound, or a split
    beyond its rho budget.
    """
    return tuple(Cyclic.torsion(p, e) for p, e in sorted(factorint(factor).items()))


_Z = Cyclic.free(PrimeSet.none())


def homology(c: PerfectComplex) -> GradedModule:
    """Cohomology of the complex, in the cyclic-module calculus.

    H^n = ker d^n / im d^{n-1}.  Over Z the image of d^{n-1} sits inside the
    kernel as a full sublattice plus torsion data, so the free rank is
    rank C^n - rank d^n - rank d^{n-1} and the torsion is read off the
    invariant factors of d^{n-1}.
    """
    factors = {n: smith_factors(m) for n, m in c.diffs}
    graded = []
    for n, r in c.ranks:
        below = factors.get(n - 1, ())
        free = r - len(factors.get(n, ())) - len(below)
        counts = {_Z: free} if free else {}
        for f in below:
            if f > 1:
                for t in _torsion_cyclics(f):
                    counts[t] = counts.get(t, 0) + 1
        if counts:
            graded.append((n, Module._of_counts(counts)))
    # c.ranks is sorted by degree, and every module here is nonzero
    return GradedModule(tuple(graded))


def shift(c: PerfectComplex, k: int) -> PerfectComplex:
    """(shift^k C)^n = C^{n+k}, differential scaled by (-1)^k."""
    sign = -1 if k % 2 else 1
    ranks = {n - k: r for n, r in c.ranks}
    diffs = {n - k: (m if sign == 1 else m.neg()) for n, m in c.diffs}
    return PerfectComplex.of(ranks, diffs)


def _put(rows: list[list[int]], r0: int, c0: int, block: Iterable[Sequence[int]]) -> None:
    """Write the rows of a block into rows, with its top left entry at (r0, c0)."""
    for r, row in enumerate(block, r0):
        rows[r][c0 : c0 + len(row)] = row


def tensor_chain(a: PerfectComplex, b: PerfectComplex) -> PerfectComplex:
    """Total tensor complex with the Koszul sign.

    (A x B)^n = sum over i+j=n of A^i x B^j, ordered by increasing i, bases
    row-major; the differential is dA x 1 + (-1)^i 1 x dB on the (i, j) block.
    Each differential is written straight into one zero matrix, at the block
    offsets of its source and target.
    """
    rank_a, rank_b = a._rank_of, b._rank_of
    diff_a, diff_b = a.diff_of, b.diff_of
    lo, hi = a.lo + b.lo, a.hi + b.hi
    # offset[n][i]: where the block A^i x B^(n-i) starts in degree n
    offset: dict[int, dict[int, int]] = {}
    ranks = {}
    for n in range(lo, hi + 1):
        starts, total = {}, 0
        for i, ra in a.ranks:
            rb = rank_b.get(n - i)
            if rb:
                starts[i] = total
                total += ra * rb
        offset[n], ranks[n] = starts, total
    diffs = {}
    for n in range(lo, hi):
        src, dst = offset[n], offset[n + 1]
        if not src or not dst:
            continue
        rows = [[0] * ranks[n] for _ in range(ranks[n + 1])]
        for i, c0 in src.items():
            j = n - i
            ra, rb = rank_a[i], rank_b[j]
            da = diff_a.get(i)
            if da is not None and i + 1 in dst:
                # dA x 1: entry (x, y) of dA on the diagonal of an rb x rb block
                r0 = dst[i + 1]
                for x, row in enumerate(da.entries):
                    for y, v in enumerate(row):
                        if v:
                            for k in range(rb):
                                rows[r0 + x * rb + k][c0 + y * rb + k] = v
            db = diff_b.get(j)
            if db is not None and i in dst:
                # (-1)^i 1 x dB: ra copies of dB down the diagonal
                signed = db.entries if i % 2 == 0 else [[-v for v in row] for row in db.entries]
                for x in range(ra):
                    _put(rows, dst[i] + x * db.rows, c0 + x * rb, signed)
        diffs[n] = IntMatrix(len(rows), ranks[n], tuple(map(tuple, rows)))
    return PerfectComplex.of(ranks, diffs)


def cone(f: ChainMap) -> PerfectComplex:
    """Mapping cone: cone(f)^n = A^{n+1} + B^n, d = [[-dA, 0], [f, dB]].

    A -> B -> cone(f) -> shift(A) is then a distinguished triangle.
    """
    a, b = f.src, f.dst
    degrees = sorted(set(n - 1 for n in a.degrees()) | set(b.degrees()))
    ranks = {n: a.rank(n + 1) + b.rank(n) for n in degrees}
    diffs = {}
    for n in degrees:
        da, fn, db = a.diff_of.get(n + 1), f.component_of.get(n + 1), b.diff_of.get(n)
        if da is None and fn is None and db is None:
            continue
        ra2 = a.rank(n + 2)
        rows = [[0] * ranks[n] for _ in range(ra2 + b.rank(n + 1))]
        if da is not None:
            _put(rows, 0, 0, ([-v for v in row] for row in da.entries))
        if fn is not None:
            _put(rows, ra2, 0, fn.entries)
        if db is not None:
            _put(rows, ra2, a.rank(n + 1), db.entries)
        diffs[n] = IntMatrix(len(rows), ranks[n], tuple(map(tuple, rows)))
    return PerfectComplex.of(ranks, diffs)


def direct_sum(a: PerfectComplex, b: PerfectComplex) -> PerfectComplex:
    """Degreewise direct sum, block-diagonal differential.

    It is the cone of the zero map shift(a, -1) -> b: the cone's degree n is
    shift(a, -1)^(n+1) + b^n = a^n + b^n, and its block -d of shift(a, -1)
    is d of a, as an odd shift negates the differential.
    """
    return cone(ChainMap.of(shift(a, -1), b, {}))
