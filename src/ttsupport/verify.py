"""The reproducible property suite behind the ``verify`` CLI command.

Every module invariant is a named check producing one record; each check
draws its own seeded generator, so a record depends only on the seed and the
sizes.  Randomised case counts scale with the requested ``cases``.

The checks are independent, so ``run_verify`` shares them with one forked
helper process when that is safe and can help: both processes claim checks
from one pipe, longest first (``CLAIM_ORDER``), and the records are put back
in the order of ``CHECKS``, so the report is the same as when every check
runs in this process, which is what happens otherwise (see
``_helper_can_help``).  Alone, the process runs the checks in claim order
too, so when several checks raise, the first to raise in that order is the
one that reaches the caller.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import sys
from itertools import combinations

from . import balmer, homalg, modcalc, randgen, supportdata, znum
from .homalg import IntMatrix, determinant, homology, snf, tensor_chain
from .modcalc import Cyclic, GradedModule, kunneth
from .randgen import SMALL_PRIMES
from .report import CheckRecord, Report
from .znum import GENERIC, PointSet, PrimeSet, SpclSubset, SpecZPoint, value_class


@value_class
class VerifyContext:
    seed: int
    cases: int
    primes_bound: int

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}:{name}")


def _record(name: str, failures: list[str], cases: int) -> CheckRecord:
    if failures:
        return CheckRecord(name, False, failures[0])
    return CheckRecord(name, True, f"{cases} cases")


# --- znum ---------------------------------------------------------------


def check_primeset_bruteforce(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("primeset")
    bound = ctx.primes_bound
    failures = []
    modes = [(True, True), (True, False), (False, True), (False, False)]
    cases = 0
    for i in range(max(ctx.cases // 4, len(modes) * 3)):  # 3 operations per pair
        fa, fb = modes[i % 4]
        a = randgen.random_primeset(rng)
        b = randgen.random_primeset(rng)
        a = PrimeSet(fa, a.primes)
        b = PrimeSet(fb, b.primes)
        sa = set(a.up_to(bound))
        sb = set(b.up_to(bound))
        for op, result, model in (
            ("union", a.union(b), sa | sb),
            ("intersect", a.intersect(b), sa & sb),
            ("difference", a.difference(b), sa - sb),
        ):
            got = set(result.up_to(bound))
            cases += 1
            if got != model:
                failures.append(f"{op}({a}, {b}): {sorted(got)} != {sorted(model)}")
    return _record("znum.primeset-bruteforce", failures, cases)


def check_spcl_subset_lattice(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("lattice")
    failures = []
    top, bottom = SpclSubset.whole_space(), SpclSubset.empty()
    cases = 0
    for _ in range(max(ctx.cases // 3, 50)):
        a, b, c = (randgen.random_spcl(rng) for _ in range(3))
        checks = [
            ("join-comm", a.join(b) == b.join(a)),
            ("meet-comm", a.meet(b) == b.meet(a)),
            ("join-assoc", a.join(b).join(c) == a.join(b.join(c))),
            ("meet-assoc", a.meet(b).meet(c) == a.meet(b.meet(c))),
            ("absorb-1", a.join(a.meet(b)) == a),
            ("absorb-2", a.meet(a.join(b)) == a),
            ("distributes", a.meet(b.join(c)) == a.meet(b).join(a.meet(c))),
            ("top", a.meet(top) == a and a.join(top) == top),
            ("bottom", a.join(bottom) == a and a.meet(bottom) == bottom),
            ("leq-join", a.leq(a.join(b)) and b.leq(a.join(b))),
        ]
        cases += len(checks)
        failures.extend(f"{name} on ({a}; {b}; {c})" for name, ok in checks if not ok)
    return _record("znum.spcl-lattice-laws", failures, cases)


def check_point_functors(ctx: VerifyContext) -> CheckRecord:
    failures = []
    points = [GENERIC] + [SpecZPoint.closed(p) for p in SMALL_PRIMES]
    for x in points:
        v = znum.v_of_point(x)
        z = znum.z_of_point(x)
        if not v.contains_point(x):
            failures.append(f"{x} not in V({x})")
        if z.contains_point(x):
            failures.append(f"{x} in Z({x})")
        isolated = v.point_set().intersect(z.point_set().complement())
        if isolated != PointSet.singleton(x):
            failures.append(f"V\\(Z meet V) at {x}: {isolated}")
        for y in points:
            if z.contains_point(y) != (not znum.v_of_point(y).contains_point(x)):
                failures.append(f"Z({x}) membership of {y} disagrees with closure test")
    return _record("znum.point-functors", failures, len(points) * (3 + len(points)))


# --- homalg -------------------------------------------------------------


def _minor_gcds(m: IntMatrix) -> list[int]:
    """The gcd of the k x k minors of m for k = 1 .. min(rows, cols).

    Each k x k minor is expanded along its first row over the (k - 1) x (k - 1)
    minors of its other rows; the minors of one size are kept in one dict
    keyed by (row subset, column subset).  Nothing of homalg is called, so
    this oracle stays independent of the Smith form it checks.
    """
    out = []
    rows = m.entries
    minors = {((), ()): 1}
    for k in range(1, min(m.rows, m.cols) + 1):
        larger = {}
        g = 0
        for rs in combinations(range(m.rows), k):
            top, rest = rows[rs[0]], rs[1:]
            for cs in combinations(range(m.cols), k):
                det = 0
                for t, j in enumerate(cs):
                    if top[j]:
                        term = top[j] * minors[rest, cs[:t] + cs[t + 1 :]]
                        det += -term if t % 2 else term
                larger[rs, cs] = det
                g = math.gcd(g, det)
        minors = larger
        out.append(g)
    return out


def check_snf(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("snf")
    failures = []
    cases = 0
    for _ in range(ctx.cases):
        r, c = rng.randint(0, 4), rng.randint(0, 4)
        m = IntMatrix.of([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        res = snf(m)
        cases += 1
        if res.u.mul(m).mul(res.v) != res.d:
            failures.append(f"UMV != D for {m.entries}")
            continue
        if abs(determinant(res.u)) != 1 or abs(determinant(res.v)) != 1:
            failures.append(f"transforms not unimodular for {m.entries}")
        f = res.invariant_factors
        if any(f[i + 1] % f[i] for i in range(len(f) - 1)):
            failures.append(f"divisibility chain broken: {f}")
        gcds = _minor_gcds(m)
        prod = 1
        for i, d in enumerate(f):
            prod *= d
            if prod != gcds[i]:
                failures.append(f"minor oracle: prod d_1..d_{i+1} = {prod} != {gcds[i]}")
        if any(g != 0 for g in gcds[len(f) :]):
            failures.append(f"rank disagrees with minors for {m.entries}")
    for _ in range(max(ctx.cases // 50, 5)):
        m = IntMatrix.of([[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)])
        res = snf(m)
        cases += 1
        if res.u.mul(m).mul(res.v) != res.d:
            failures.append("UMV != D on a 6x6 case")
        f = res.invariant_factors
        if any(f[i + 1] % f[i] for i in range(len(f) - 1)):
            failures.append(f"6x6 divisibility chain broken: {f}")
    return _record("homalg.snf", failures, cases)


def check_homology_oracle(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("homology")
    failures = []
    for _ in range(ctx.cases // 2):
        c, expected = randgen.random_complex(rng)
        got = homology(c)
        if got != expected:
            failures.append(f"{got} != {expected} for ranks {dict(c.ranks)}")
    return _record("homalg.homology-oracle", failures, ctx.cases // 2)


def check_shift_homology(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("shift")
    failures = []
    for _ in range(ctx.cases // 4):
        c, known = randgen.random_complex(rng)
        k = rng.randint(-3, 3)
        lhs = homology(homalg.shift(c, k))
        rhs = known.shift(k)
        if lhs != rhs:
            failures.append(f"shift {k}: {lhs} != {rhs}")
        if homalg.shift(homalg.shift(c, k), -k) != c:
            failures.append(f"shift inverse failed at {k}")
    return _record("homalg.shift-homology", failures, ctx.cases // 4)


def check_tensor_commutes(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("tensor-comm")
    failures = []
    for _ in range(ctx.cases // 10):
        a, ha = randgen.random_complex(rng, max_cells=3)
        b, hb = randgen.random_complex(rng, max_cells=3)
        # both orders against the Kunneth product of the cells' homology
        rhs = kunneth(ha, hb)
        for order, x, y in (("a, b", a, b), ("b, a", b, a)):
            lhs = homology(tensor_chain(x, y))
            if lhs != rhs:
                failures.append(f"tensor({order}): {lhs} != {rhs}")
    return _record("homalg.tensor-commutes", failures, ctx.cases // 10)


# --- modcalc ------------------------------------------------------------


def _generator_cyclics() -> list[Cyclic]:
    return [
        Cyclic.free(PrimeSet.none()),
        Cyclic.free(PrimeSet.of([2])),
        Cyclic.free(PrimeSet.of([3, 5])),
        Cyclic.free(PrimeSet.cofinite([2])),
        Cyclic.rationals(),
        Cyclic.torsion(2, 1),
        Cyclic.torsion(2, 3),
        Cyclic.torsion(3, 2),
        Cyclic.torsion(5, 1),
        Cyclic.prufer(PrimeSet.of([2])),
        Cyclic.prufer(PrimeSet.of([2, 7])),
        Cyclic.prufer(PrimeSet.cofinite([3])),
        Cyclic.prufer(PrimeSet.all_primes()),
    ]


def check_table_symmetry(ctx: VerifyContext) -> CheckRecord:
    gens = _generator_cyclics()
    failures = []
    for a in gens:
        for b in gens:
            if modcalc.tensor_mod(a, b) != modcalc.tensor_mod(b, a):
                failures.append(f"tensor not symmetric at ({a}, {b})")
            if modcalc.tor_mod(a, b) != modcalc.tor_mod(b, a):
                failures.append(f"tor not symmetric at ({a}, {b})")
    return _record("modcalc.table-symmetry", failures, len(gens) ** 2 * 2)


def check_kunneth_laws(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("kunneth-laws")
    unit = GradedModule.unit()
    failures = []
    for _ in range(ctx.cases // 10):
        x = randgen.random_graded(rng)
        y = randgen.random_graded(rng)
        z = randgen.random_graded(rng)
        if kunneth(unit, x) != x:
            failures.append(f"unit law failed on {x}")
        if kunneth(x, y) != kunneth(y, x):
            failures.append(f"commutativity failed on ({x}, {y})")
        if kunneth(kunneth(x, y), z) != kunneth(x, kunneth(y, z)):
            failures.append(f"associativity failed on ({x}, {y}, {z})")
    return _record("modcalc.kunneth-laws", failures, 3 * (ctx.cases // 10))


def check_kunneth_chain_oracle(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("kunneth-chain")
    failures = []
    for _ in range(ctx.cases):
        a, ha = randgen.random_complex(rng, max_cells=3)
        b, hb = randgen.random_complex(rng, max_cells=3)
        lhs = homology(tensor_chain(a, b))
        rhs = kunneth(ha, hb)
        if lhs != rhs:
            failures.append(f"{lhs} != {rhs}")
    return _record("modcalc.kunneth-chain-oracle", failures, ctx.cases)


def check_supp_laws(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("supp-laws")
    failures = []
    cases = 0
    for _ in range(max(ctx.cases // 3, 10)):
        x = randgen.random_module(rng)
        y = randgen.random_module(rng)
        cases += 2
        if modcalc.supp_mod(x.plus(y)) != modcalc.supp_mod(x).union(modcalc.supp_mod(y)):
            failures.append(f"sum law failed on ({x}, {y})")
        # the derived product: degree 0 is x tensor y, degree -1 is Tor(x, y)
        prod_supp = balmer.supp_object(kunneth(GradedModule.of({0: x}), GradedModule.of({0: y})))
        meet = modcalc.supp_mod(x).intersect(modcalc.supp_mod(y))
        if not prod_supp.leq(meet):
            failures.append(f"product support not inside intersection on ({x}, {y})")
        fg = all(
            c.kind == "torsion" or (c.kind == "free" and c.primes.is_empty())
            for m in (x, y)
            for c, _ in m.parts
        )
        if fg and prod_supp != meet:
            failures.append(f"finitely generated equality failed on ({x}, {y})")
    return _record("modcalc.supp-laws", failures, cases)


# --- balmer -------------------------------------------------------------


# idempotent-laws draws at most three of these primes below 50, as a finite
# or a cofinite set: a fixed pool of 1,152 sets, so that a long-lived process
# interns a bounded number of them whatever the seeds
_IDEMPOTENT_PRIMES = tuple(znum.primes_up_to(50))


def check_idempotent_laws(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("idempotent-laws")
    failures = []
    family = [
        SpclSubset.whole_space(),
        SpclSubset.empty(),
        SpclSubset.closed_points(PrimeSet.all_primes()),
    ]
    for _ in range(max(ctx.cases // 2, 50)):
        family.append(SpclSubset.closed_points(randgen.random_primeset(rng, _IDEMPOTENT_PRIMES)))
    for v in family:
        g = balmer.gamma_v(v)
        l = balmer.l_v(v)
        if kunneth(g, g) != g:
            failures.append(f"gamma not idempotent at {v}")
        if kunneth(l, l) != l:
            failures.append(f"l not idempotent at {v}")
        if not kunneth(g, l).is_zero():
            failures.append(f"gamma x l nonzero at {v}")
    return _record("balmer.idempotent-laws", failures, 3 * len(family))


def check_closed_forms(ctx: VerifyContext) -> CheckRecord:
    """Koszul-complex and truncation validation of the idempotent values."""
    failures = []
    cases = 0
    for p in (2, 3, 5, 7):
        v = SpclSubset.closed_points(PrimeSet.of([p]))
        val = balmer.gamma_v(v)
        # degree-0 part vanishes (the unit embeds into its localisation)
        if not val.module_in(0).is_zero():
            failures.append(f"H0 of the Koszul complex at {p} nonzero")
        # tower: cone(Z --p^k--> Z) has homology Z/p^k in degree 0
        for k in range(1, 9):
            cases += 1
            h = homology(homalg.scalar_cone(p**k))
            if h != GradedModule.of({0: [Cyclic.torsion(p, k)]}):
                failures.append(f"truncation step {p}^{k} has homology {h}")
        if val != GradedModule.of({1: [Cyclic.prufer(PrimeSet.of([p]))]}):
            failures.append(f"gamma value at {p} is {val}")
    for excluded in ((), (2,), (2, 5)):
        s = PrimeSet.cofinite(excluded)
        val = balmer.gamma_v(SpclSubset.closed_points(s))
        fam = val.module_in(1)
        for q in znum.primes_up_to(ctx.primes_bound):
            cases += 1
            in_family = any(
                c.kind == "prufer" and c.primes.contains(q) for c, _ in fam.parts
            )
            if in_family != s.contains(q):
                failures.append(f"cofinite gamma at {s}: prime {q} mismatch")
            if not s.contains(q):
                # q stays invertible on every truncation: gcd certificate
                if any(math.gcd(q, p**8) != 1 for p in s.up_to(30)):
                    failures.append(f"invertibility certificate failed at {q}")
    return _record("balmer.closed-forms", failures, cases)


def check_separation(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("separation")
    failures = []
    n = max(ctx.cases // 2, 200)
    for _ in range(n):
        v = randgen.random_spcl(rng)
        x = randgen.random_graded(rng)
        sx = balmer.supp_object(x)
        g = balmer.supp_object(kunneth(balmer.gamma_v(v), x))
        l = balmer.supp_object(kunneth(balmer.l_v(v), x))
        if g != sx.intersect(v.point_set()):
            failures.append(f"gamma separation failed: V={v}, X={x}")
        if l != sx.intersect(v.complement()):
            failures.append(f"l separation failed: V={v}, X={x}")
    return _record("balmer.separation", failures, 2 * n)


def check_zero_detection(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("zero-detect")
    failures = []
    for _ in range(ctx.cases):
        x = randgen.random_engineered_graded(rng)
        if x.is_zero() != balmer.supp_object(x).is_empty():
            failures.append(f"zero detection failed on {x}")
    return _record("balmer.zero-detection", failures, ctx.cases)


def check_gamma_uniqueness(ctx: VerifyContext) -> CheckRecord:
    failures = []
    cases = 0
    for p in (2, 3, 5):
        others = [q for q in SMALL_PRIMES if q != p][:2]
        pairs = [
            (SpclSubset.closed_points(PrimeSet.of([p])), SpclSubset.empty()),
            (
                SpclSubset.closed_points(PrimeSet.of([p] + others)),
                SpclSubset.closed_points(PrimeSet.of(others)),
            ),
            (
                SpclSubset.closed_points(PrimeSet.cofinite(others)),
                SpclSubset.closed_points(PrimeSet.cofinite(others + [p])),
            ),
            (
                SpclSubset.closed_points(PrimeSet.all_primes()),
                SpclSubset.closed_points(PrimeSet.cofinite([p])),
            ),
        ]
        want = balmer.gamma_point(SpecZPoint.closed(p))
        for v, w in pairs:
            cases += 1
            got = kunneth(balmer.gamma_v(v), balmer.l_v(w))
            isolated = v.point_set().intersect(w.point_set().complement())
            if isolated != PointSet.singleton(SpecZPoint.closed(p)):
                failures.append(f"pair ({v}; {w}) does not isolate ({p})")
            elif got != want:
                failures.append(f"pair ({v}; {w}) gives {got}, expected {want}")
    cases += 1
    got = kunneth(
        balmer.gamma_v(SpclSubset.whole_space()),
        balmer.l_v(SpclSubset.closed_points(PrimeSet.all_primes())),
    )
    if got != balmer.gamma_point(GENERIC):
        failures.append("generic pair mismatch")
    return _record("balmer.gamma-uniqueness", failures, cases)


def check_triangle_subadditivity(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("triangles")
    failures = []
    n = ctx.cases // 3
    for _ in range(n):
        # the homology of all three terms is planted; only the cone's is
        # read through homology, and its support from what that reads
        f, ha, hb, hc = randgen.random_chain_map(rng)
        got = homology(homalg.cone(f))
        if got != hc:
            failures.append(f"cone homology {got} != {hc}")
        sa, sb, sc = balmer.supp_object(ha), balmer.supp_object(hb), balmer.supp_object(got)
        if not sc.leq(sa.union(sb)):
            failures.append(f"supp(cone) escapes union: {sc} vs {sa} u {sb}")
        if not sb.leq(sa.union(sc)):
            failures.append(f"supp(middle) escapes union: {sb} vs {sa} u {sc}")
    return _record("balmer.triangle-subadditivity", failures, 2 * n)


def check_sigma_tau(ctx: VerifyContext) -> CheckRecord:
    failures = []
    cases = 0
    first_six = SMALL_PRIMES[:6]
    for generic in (False, True):
        for r in range(len(first_six) + 1):
            for combo in combinations(first_six, r):
                for finite in (True, False):
                    w = PointSet(generic, PrimeSet.of(combo, finite=finite))
                    cases += 1
                    if balmer.sigma_of_tau(w) != w:
                        failures.append(f"sigma(tau(W)) != W at {w}")
    catalogue = randgen.compact_catalogue()
    # membership by the localisation at each point, not supp_object: (0) and
    # p <= 13 cover the catalogue's primes
    probe = [GENERIC] + [SpecZPoint.closed(p) for p in first_six]
    entries = []
    for y in catalogue:
        h = homology(y)
        mods = [h.module_in(n) for n in h.degrees()]
        where = [x for x in probe if any(modcalc.localize_point(x, m) for m in mods)]
        entries.append((y, where))
    rng = ctx.rng("sigma-tau")
    for _ in range(20):
        # the same draws as sampling the catalogue itself
        picks = rng.sample(range(len(catalogue)), rng.randint(1, 4))
        gens = [catalogue[i] for i in picks]
        code = balmer.sigma_loc([homology(g) for g in gens])
        tail = f"in thick({picks}) disagrees with subset code {code}"
        for k, (y, where) in enumerate(entries):
            cases += 1
            inside = all(code.contains(x) for x in where)
            if balmer.thick_membership(y, gens) != inside:
                failures.append(f"membership of catalogue[{k}] {tail}")
    for x in [SpecZPoint.closed(p) for p in (2, 3, 5, 7)] + [GENERIC]:
        cases += 1
        try:
            back = balmer.prime_to_point(balmer.point_to_prime(x).defining)
        except (AssertionError, balmer.NotPrimeError) as err:
            back = repr(err)
        if back != x:
            failures.append(f"phi-inverse of phi({x}) gives {back}")
    return _record("balmer.sigma-tau-roundtrips", failures, cases)


def check_residue(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("residue")
    failures = []
    cases = 0
    points = [SpecZPoint.closed(2), SpecZPoint.closed(3), GENERIC]
    n = max(ctx.cases // 2, 200)
    for i in range(n):
        x = points[i % 3]
        if rng.random() < 0.4:
            obj = kunneth(balmer.gamma_point(x), randgen.random_graded(rng))
        else:
            obj = randgen.random_graded(rng)
        rep = balmer.residue_check(x, obj)
        cases += len(rep.records)
        failures.extend(r.detail or r.name for r in rep.failures())
    return _record("balmer.residue-lemma", failures, cases)


def check_ltg(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("ltg")
    failures = []
    cases = 0
    for _ in range(ctx.cases // 5):
        x = randgen.random_engineered_graded(rng)
        rep = balmer.ltg_check(x)
        cases += len(rep.records)
        failures.extend(r.detail or r.name for r in rep.failures())
    return _record("balmer.local-to-global", failures, cases)


def check_localization_triangles(ctx: VerifyContext) -> CheckRecord:
    failures = []
    cases = 0
    subsets = [
        SpclSubset.whole_space(),
        SpclSubset.empty(),
        SpclSubset.closed_points(PrimeSet.of([2])),
        SpclSubset.closed_points(PrimeSet.of([2, 3, 7])),
        SpclSubset.closed_points(PrimeSet.cofinite([])),
        SpclSubset.closed_points(PrimeSet.cofinite([5])),
    ]
    for v in subsets:
        rep = balmer.localization_triangle_check(v)
        cases += len(rep.records)
        failures.extend(f"{v}: {r.name}" for r in rep.failures())
    return _record("balmer.localization-triangles", failures, cases)


def check_supp_agreement(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("supp-agree")
    failures = []
    cases = 0
    probe = [
        (x, balmer.gamma_point(x))
        for x in [GENERIC] + [SpecZPoint.closed(p) for p in (2, 3, 5, 31)]
    ]
    for _ in range(ctx.cases):
        c, known = randgen.random_complex(rng, max_cells=3)
        h = homology(c)
        supp = balmer.supp_object(h)
        # read off the homology the cells give, not the Smith form's h
        hom_supp = PointSet.empty()
        for n in known.degrees():
            hom_supp = hom_supp.union(modcalc.supp_mod(known.module_in(n)))
        cases += 1
        if supp != hom_supp:
            failures.append(f"abstract vs homological support differ on {h}")
        for x, gamma_x in probe:
            cases += 1
            via_gamma = not kunneth(gamma_x, h).is_zero()
            via_localisation = any(modcalc.localize_point(x, m) for _, m in h.graded)
            if via_gamma != supp.contains(x) or via_localisation != supp.contains(x):
                failures.append(f"pointwise probes disagree at {x} on {h}")
    return _record("balmer.supp-agreement", failures, cases)


# --- supportdata --------------------------------------------------------


def check_model5(ctx: VerifyContext) -> CheckRecord:
    failures = []
    cat = supportdata.five_object_model()
    datum = supportdata.spc_support(cat)
    primes = datum.space.points
    if len(primes) != 2:
        failures.append(f"expected 2 primes, got {len(primes)}")
    rep = supportdata.check_axioms(datum, cat)
    if not rep.passed:
        failures.append("axioms failed on the canonical datum")
    um = supportdata.universal_map(datum, cat)
    if not um.report.passed:
        failures.append("universal map verification failed")
    if any(um.apply(x) != x for x in datum.space.points):
        failures.append("universal map from the spectrum is not the identity")
    if not supportdata.classify(cat).passed:
        failures.append("classification bijection failed")
    return _record("supportdata.model5", failures, 5)


def check_random_catalogues(ctx: VerifyContext) -> CheckRecord:
    rng = ctx.rng("catalogues")
    failures = []
    cases = 0
    for _ in range(max(ctx.cases // 100, 3)):
        cat = supportdata.random_subset_catalogue(rng, rng.choice([6, 8, 12]))
        ideals = cat.ideals
        datum = supportdata.spc_support(cat)
        primes = set(datum.space.points)
        cases += 4
        if not primes:
            failures.append("spectrum of a random catalogue is empty")
        proper = [i for i in ideals if len(i) < cat.size]
        maximal = [
            i for i in proper if not any(i < j for j in proper)
        ]
        if any(m not in primes for m in maximal):
            failures.append("a maximal proper ideal is not prime")
        if not supportdata.check_axioms(datum, cat).passed:
            failures.append("axioms failed on a random catalogue")
        if not supportdata.classify(cat).passed:
            failures.append("classification failed on a random catalogue")
    return _record("supportdata.random-catalogues", failures, cases)


CHECKS = [
    check_primeset_bruteforce,
    check_spcl_subset_lattice,
    check_point_functors,
    check_snf,
    check_homology_oracle,
    check_shift_homology,
    check_tensor_commutes,
    check_table_symmetry,
    check_kunneth_laws,
    check_kunneth_chain_oracle,
    check_supp_laws,
    check_idempotent_laws,
    check_closed_forms,
    check_separation,
    check_zero_detection,
    check_gamma_uniqueness,
    check_triangle_subadditivity,
    check_sigma_tau,
    check_residue,
    check_ltg,
    check_localization_triangles,
    check_supp_agreement,
    check_model5,
    check_random_catalogues,
]

# The indices of CHECKS in the order the processes of run_verify claim them:
# longest first, so that the two finish together (Graham 1969).  Each time
# is the median in one warm process at 500 and 5000 cases (2-core Xeon,
# Python 3.11); tests/claim_order.py measures them again.
CLAIM_ORDER = (
    9,  # kunneth-chain-oracle, 84 / 973 ms
    16,  # triangle-subadditivity, 44 / 449 ms
    21,  # supp-agreement, 42 / 434 ms
    3,  # snf, 37 / 386 ms
    1,  # spcl-lattice-laws, 16 / 164 ms
    19,  # local-to-global, 14 / 144 ms
    13,  # separation, 13 / 133 ms
    6,  # tensor-commutes, 13 / 127 ms
    17,  # sigma-tau-roundtrips, 13 / 11 ms
    4,  # homology-oracle, 10 / 105 ms
    18,  # residue-lemma, 10 / 103 ms
    5,  # shift-homology, 9 / 119 ms
    14,  # zero-detection, 9 / 91 ms
    10,  # supp-laws, 9 / 86 ms
    8,  # kunneth-laws, 6 / 53 ms
    11,  # idempotent-laws, 3.9 / 38 ms
    23,  # random-catalogues, 3 / 31 ms
    0,  # primeset-bruteforce, 3 / 25 ms
    7,  # table-symmetry, 0.8 / 0.9 ms
    12,  # closed-forms, 0.6 / 0.6 ms
    2,  # point-functors, 0.4 / 0.4 ms
    20,  # localization-triangles, 0.3 / 0.3 ms
    22,  # model5, 0.4 / 0.3 ms
    15,  # gamma-uniqueness, 0.2 / 0.2 ms
)


def _claims(queue: int):
    """The indices of CHECKS read from the pipe queue until it is empty.

    Each read takes one byte, and a read of one byte from a pipe is atomic,
    so two processes reading the same pipe never claim the same check."""
    while claimed := os.read(queue, 1):
        yield claimed[0]


def _helper_can_help() -> bool:
    """Whether a forked helper is safe and can shorten a run.

    It needs two usable CPUs, a process of one thread (a fork copies only
    the calling thread, and Python 3.12 warns of a fork with others) and
    os.fork.  A trace or profile function, as the census, coverage, pdb and
    cProfile set, would miss the checks that the helper runs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:  # every thread, as Python's own warning counts them on Linux
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: the threads that the threading module knows
        import threading

        threads = threading.active_count()
    return (
        cpus >= 2
        and threads == 1
        and hasattr(os, "fork")
        and sys.gettrace() is None
        and sys.getprofile() is None
    )


def _fork_helper(ctx: VerifyContext, queue: int, mask: set):
    """Fork a helper that runs the checks it claims from queue, sending each
    record back as it finishes; its pid and the reader of its records, or
    None when the fork fails.

    The caller blocks signals around the call, and the helper restores mask
    first.  The helper leaves through os._exit, so it runs no handler, flush
    or finaliser of this process, and a check that raises ends it quietly:
    the caller runs each check that the helper claimed and did not report."""
    import signal

    reader, writer = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the caller runs every check
        os.close(reader)
        os.close(writer)
        return None
    if pid == 0:
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for i in _claims(queue):
                rec = CHECKS[i](ctx)
                os.write(writer, marshal.dumps((i, rec.name, rec.passed, rec.detail, rec.advisory)))
        finally:
            os._exit(0)
    os.close(writer)
    return pid, open(reader, "rb")


def run_verify(seed: int, cases: int, primes_bound: int) -> Report:
    ctx = VerifyContext(seed, cases, primes_bound)
    records: list[CheckRecord | None] = [None] * len(CHECKS)
    # both processes claim in CLAIM_ORDER; alone, this one runs every check in
    # that order, so of several checks that raise, the first in it is raised
    queue, fill = os.pipe()
    os.write(fill, bytes(CLAIM_ORDER))
    os.close(fill)
    helper = None
    try:
        if _helper_can_help():
            import signal

            # A handler that raised between the fork and the assignment
            # would leave the helper unreaped, so signals wait until then.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                helper = _fork_helper(ctx, queue, mask)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for i in _claims(queue):
            records[i] = CHECKS[i](ctx)
        if helper is not None:
            while True:
                try:  # a helper that died part way leaves a short record
                    i, *fields = marshal.load(helper[1])
                except EOFError:
                    break
                records[i] = CheckRecord(*fields)
    finally:
        os.close(queue)
        if helper is not None:
            # a run stopped by a signal or a raising check leaves no process
            pid, replies = helper
            replies.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # the checks that the helper claimed but did not report, in claim order
    for i in CLAIM_ORDER:
        if records[i] is None:
            records[i] = CHECKS[i](ctx)
    # case ids are registry positions
    return Report.of(
        CheckRecord(f"{i:02d}.{rec.name}", rec.passed, rec.detail)
        for i, rec in enumerate(records)
    )
