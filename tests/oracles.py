"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the code paths under test: set
semantics over an explicit prime universe, cofactor-expansion determinants,
kernel-basis homology, a total tensor complex, mapping cones and direct sums
assembled from Kronecker products and block matrices, a Kunneth product that
re-canonicalises after every pair of blocks, supports folded one block at a
time, a cell-by-cell check of catalogue tables, and plain-set enumerations of
catalogue ideals and of the specialisation-closed subsets of a finite space.
"""

from __future__ import annotations

import math
from itertools import combinations

from ttsupport.homalg import ChainMap, IntMatrix, PerfectComplex, snf
from ttsupport.modcalc import GradedModule, Module, supp_cyclic, tensor_mod, tor_mod
from ttsupport.znum import PointSet, PrimeSet, primes_up_to


def primeset_members(ps: PrimeSet, bound: int) -> set[int]:
    """Model of a prime set as an explicit python set over primes <= bound."""
    universe = set(primes_up_to(bound))
    listed = {p for p in ps.primes if p <= bound}
    return listed if ps.finite else universe - listed


def cofactor_det(m: IntMatrix) -> int:
    """Determinant by cofactor expansion; independent of Bareiss and SNF."""
    n = m.rows
    if n != m.cols:
        raise ValueError("square only")
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        if m[0, j] == 0:
            continue
        sub = IntMatrix.of(
            [[m[i, k] for k in range(n) if k != j] for i in range(1, n)]
        )
        total += (-1) ** j * m[0, j] * cofactor_det(sub)
    return total


def gcd_of_minors(m: IntMatrix) -> list[int]:
    """gcd of all k x k minors, k = 1 .. min dim; entry k-1 must equal
    d_1 * ... * d_k for the invariant factors."""
    out = []
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rows in combinations(range(m.rows), k):
            for cols in combinations(range(m.cols), k):
                sub = IntMatrix.of([[m[i, j] for j in cols] for i in rows])
                g = math.gcd(g, cofactor_det(sub))
        out.append(g)
    return out


def kernel_basis(m: IntMatrix) -> list[list[int]]:
    """Integer basis of ker m, as columns, via the column transform of SNF."""
    res = snf(m)
    rank = len(res.invariant_factors)
    return [[res.v[i, j] for i in range(m.cols)] for j in range(rank, m.cols)]


def solve_in_lattice(basis: list[list[int]], v: list[int]) -> list[int]:
    """Coordinates of v in the given integer basis (must exist exactly)."""
    if not basis:
        if any(v):
            raise ValueError("not in span")
        return []
    k = IntMatrix.of([[col[i] for col in basis] for i in range(len(v))])
    res = snf(k)
    w = [sum(res.u[i, j] * v[j] for j in range(len(v))) for i in range(len(v))]
    coords = []
    for i in range(k.cols):
        if i < len(res.invariant_factors):
            d = res.invariant_factors[i]
            if w[i] % d:
                raise ValueError("not in span")
            coords.append(w[i] // d)
        else:
            coords.append(0)
    for i in range(k.cols, len(v)):
        if w[i]:
            raise ValueError("not in span")
    return [sum(res.v[i, j] * coords[j] for j in range(k.cols)) for i in range(k.cols)]


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))


def differential(c: PerfectComplex, n: int) -> IntMatrix:
    """d^n of c, a zero matrix of the right shape where it is absent."""
    d = c.diff_of.get(n)
    return zeros(c.rank(n + 1), c.rank(n)) if d is None else d


def component(f: ChainMap, n: int) -> IntMatrix:
    """f_n, a zero matrix of the right shape where it is absent."""
    m = f.component_of.get(n)
    return zeros(f.dst.rank(n), f.src.rank(n)) if m is None else m


def homology_pair(c: PerfectComplex, n: int) -> tuple[int, list[int]]:
    """(free rank, invariant factors > 1) of H^n, computed from an explicit
    kernel basis; a second derivation independent of the shortcut in use."""
    dn = differential(c, n)
    dprev = differential(c, n - 1)
    basis = kernel_basis(dn)
    k = len(basis)
    cols = []
    for j in range(dprev.cols):
        v = [dprev[i, j] for i in range(dprev.rows)]
        cols.append(solve_in_lattice(basis, v))
    if k == 0:
        return 0, []
    if not cols:
        return k, []
    rel = IntMatrix.of([[col[i] for col in cols] for i in range(k)])
    facs = snf(rel).invariant_factors
    torsion = [f for f in facs if f > 1]
    return k - len(facs), torsion


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def block(
    grid: list[list[IntMatrix | None]],
    row_dims: list[int],
    col_dims: list[int],
) -> IntMatrix:
    """Assemble a block matrix; None blocks are zero."""
    total_r, total_c = sum(row_dims), sum(col_dims)
    data = [[0] * total_c for _ in range(total_r)]
    r0 = 0
    for bi, rdim in enumerate(row_dims):
        c0 = 0
        for bj, cdim in enumerate(col_dims):
            blk = grid[bi][bj]
            if blk is not None:
                if (blk.rows, blk.cols) != (rdim, cdim):
                    raise ValueError(f"block ({bi},{bj}) has wrong shape")
                for i in range(rdim):
                    row = blk.entries[i]
                    dest = data[r0 + i]
                    for j in range(cdim):
                        dest[c0 + j] = row[j]
            c0 += cdim
        r0 += rdim
    return IntMatrix(total_r, total_c, tuple(tuple(r) for r in data))


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product; row-major on both index pairs."""
    rows = [tuple(x * y for x in r1 for y in r2) for r1 in a.entries for r2 in b.entries]
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, tuple(rows))


def naive_tensor_chain(a: PerfectComplex, b: PerfectComplex) -> PerfectComplex:
    """Total tensor complex with the Koszul sign, one block matrix per
    differential: the (i, j) -> (i+1, j) block is dA x 1 and the
    (i, j) -> (i, j+1) block is (-1)^i 1 x dB, each a Kronecker product."""
    if a.is_zero() or b.is_zero():
        return PerfectComplex.of({})

    def blocks(n: int) -> list[tuple[int, int, int, int]]:
        out = []
        for i, ra in a.ranks:
            rb = b.rank(n - i)
            if rb:
                out.append((i, n - i, ra, rb))
        return out

    lo, hi = a.lo + b.lo, a.hi + b.hi
    ranks = {}
    for n in range(lo, hi + 1):
        ranks[n] = sum(ra * rb for _, _, ra, rb in blocks(n))
    diffs = {}
    for n in range(lo, hi):
        src = blocks(n)
        dst = blocks(n + 1)
        if not src or not dst:
            continue
        dst_pos = {(i, j): bi for bi, (i, j, _, _) in enumerate(dst)}
        grid: list[list[IntMatrix | None]] = [[None] * len(src) for _ in dst]
        for sj, (i, j, ra, rb) in enumerate(src):
            da = differential(a, i)
            if not da.is_zero() and (i + 1, j) in dst_pos:
                grid[dst_pos[(i + 1, j)]][sj] = kron(da, identity(rb))
            db = differential(b, j)
            if not db.is_zero() and (i, j + 1) in dst_pos:
                m = kron(identity(ra), db)
                grid[dst_pos[(i, j + 1)]][sj] = m if i % 2 == 0 else m.neg()
        diffs[n] = block(
            grid, [ra * rb for _, _, ra, rb in dst], [ra * rb for _, _, ra, rb in src]
        )
    return PerfectComplex.of(ranks, diffs)


def naive_direct_sum(a: PerfectComplex, b: PerfectComplex) -> PerfectComplex:
    """Degreewise direct sum, block-diagonal differential."""
    degrees = sorted(set(a.degrees()) | set(b.degrees()))
    ranks = {n: a.rank(n) + b.rank(n) for n in degrees}
    diffs = {}
    for n in degrees:
        da, db = differential(a, n), differential(b, n)
        if da.is_zero() and db.is_zero():
            continue
        diffs[n] = block([[da, None], [None, db]], [da.rows, db.rows], [da.cols, db.cols])
    return PerfectComplex.of(ranks, diffs)


def naive_cone(f: ChainMap) -> PerfectComplex:
    """Mapping cone: cone(f)^n = A^{n+1} + B^n, d = [[-dA, 0], [f, dB]]."""
    a, b = f.src, f.dst
    degrees = sorted(set(n - 1 for n in a.degrees()) | set(b.degrees()))
    ranks = {n: a.rank(n + 1) + b.rank(n) for n in degrees}
    diffs = {}
    for n in degrees:
        ra1, rb = a.rank(n + 1), b.rank(n)
        ra2, rb1 = a.rank(n + 2), b.rank(n + 1)
        if ra2 + rb1 == 0 or ra1 + rb == 0:
            continue
        grid = [
            [differential(a, n + 1).neg(), None],
            [component(f, n + 1), differential(b, n)],
        ]
        diffs[n] = block(grid, [ra2, rb1], [ra1, rb])
    return PerfectComplex.of(ranks, diffs)


def naive_supp(x: Module | GradedModule) -> PointSet:
    """Support as a fold of PointSet.union over supp_cyclic, one block at a time."""
    modules = [m for _, m in x.graded] if isinstance(x, GradedModule) else [x]
    out = PointSet.empty()
    for m in modules:
        for c, _ in m.parts:
            out = out.union(supp_cyclic(c))
    return out


def _naive_plus(a: Module, b: Module) -> Module:
    return Module.of(list(a.parts) + list(b.parts))


def naive_bilinear(op, x: Module, y: Module) -> Module:
    """Bilinear extension of a block table, folded one pair at a time."""
    total = Module.zero()
    for a, ma in x.parts:
        for b, mb in y.parts:
            piece = op(a, b)
            if not piece.is_zero():
                total = _naive_plus(total, Module.of((c, m * ma * mb) for c, m in piece.parts))
    return total


def naive_kunneth(x: GradedModule, y: GradedModule) -> GradedModule:
    """Derived tensor of formal objects by the pairwise fold: every block
    pair's tensor and Tor are added into a freshly canonicalised module."""
    out: dict[int, Module] = {}

    def put(n: int, m: Module) -> None:
        if not m.is_zero():
            out[n] = _naive_plus(out.get(n, Module.zero()), m)

    for i, mi in x.graded:
        for j, mj in y.graded:
            put(i + j, naive_bilinear(tensor_mod, mi, mj))
            put(i + j - 1, naive_bilinear(tor_mod, mi, mj))
    return GradedModule.of(out)


def naive_validate(names, zero, unit, shift, table) -> str | None:
    """The CatalogueError message that a catalogue's shift and tensor table,
    given as index lists, must raise, or None when they are valid.  One cell
    or one triple at a time: the shift, then unit, zero and commutativity
    object by object, then associativity triple by triple."""
    n = len(names)
    if sorted(shift) != list(range(n)):
        return "shift: not a permutation"
    if shift[zero] != zero:
        return "shift: must fix zero"
    for i in range(n):
        if table[unit][i] != i or table[i][unit] != i:
            return f"tensor: unit not neutral at {names[i]}"
        if table[zero][i] != zero or table[i][zero] != zero:
            return f"tensor: zero not absorbing at {names[i]}"
        for j in range(n):
            if table[i][j] != table[j][i]:
                return f"tensor: not commutative at ({names[i]}, {names[j]})"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return f"tensor: not associative at ({names[i]}, {names[j]}, {names[k]})"
    return None


def naive_ideals(cat) -> list[frozenset[int]]:
    """All thick tensor-ideals by unoptimised scan over every subset."""
    n = cat.size
    out = []
    for combo in range(1 << n):
        s = {i for i in range(n) if combo >> i & 1}
        if cat.zero not in s:
            continue
        if any(cat.shift[i] not in s for i in s):
            continue
        if any(a in s and b not in s for a, b in cat.summands):
            continue
        ok = True
        for a, b, c in cat.triangles:
            members = sum(x in s for x in (a, b, c))
            if members == 2:
                ok = False
                break
        if not ok:
            continue
        if any(cat.tensor[k][l] not in s for k in range(n) for l in s):
            continue
        out.append(frozenset(s))
    out.sort(key=lambda x: (len(x), sorted(x)))
    return out


def naive_primes(cat) -> list[frozenset[int]]:
    out = []
    for ideal in naive_ideals(cat):
        if len(ideal) == cat.size:
            continue
        prime = all(
            cat.tensor[k][l] not in ideal or k in ideal or l in ideal
            for k in range(cat.size)
            for l in range(cat.size)
        )
        if prime:
            out.append(ideal)
    return out


def naive_thomason_lattice(points, order) -> list[frozenset]:
    """All specialisation-closed subsets of the finite space on points in
    which x <= y for each pair (x, y) of the transitive relation order, by a
    scan over every subset."""
    pts = list(points)
    out = []
    for combo in range(1 << len(pts)):
        subset = frozenset(p for i, p in enumerate(pts) if combo >> i & 1)
        if all(y in subset for x, y in order if x in subset):
            out.append(subset)
    out.sort(key=lambda x: (len(x), sorted(map(repr, x))))
    return out
