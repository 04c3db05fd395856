"""Rickard idempotents, big support, and the subset dictionary for D(Z).

The two tensor-idempotent families attached to a specialisation-closed
subset V -- the acyclisation piece gamma_V(1) and the localisation piece
l_V(1) -- have closed forms in the cyclic calculus: the first is a shifted
Prufer family (homology of a stable Koszul complex), the second a
localisation of Z (homology of a Cech complex).  Tensoring the two families
attached to V(x) and Z(x) isolates a single point x, and the support of an
arbitrary formal object is the set of points where that product is nonzero.

>>> from .znum import SpecZPoint
>>> print(gamma_point(SpecZPoint.closed(2)))
{1: Z(2^oo)}
>>> print(gamma_point(SpecZPoint.generic()))
{0: Q}
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count, islice

from .homalg import PerfectComplex, homology, scalar_cone
from .modcalc import (
    Cyclic,
    GradedModule,
    _one,
    kunneth,
    localize_point,
    supp_blocks,
)
from .report import Report, check
from .znum import (
    GENERIC,
    PointSet,
    SpclSubset,
    SpecZPoint,
    primes_up_to,
    v_of_point,
    value_class,
    z_of_point,
)

__all__ = [
    "gamma_v",
    "l_v",
    "gamma_point",
    "supp_object",
    "localization_triangle_check",
    "ltg_check",
    "residue_check",
    "sigma_loc",
    "tau_loc",
    "sigma_of_tau",
    "CompactPrime",
    "NotPrimeError",
    "point_to_prime",
    "prime_to_point",
    "tau_is_prime",
    "thick_membership",
    "residue_field",
]

# Small primes that pointwise checks probe beyond those an input names.
_PROBE_BOUND = 13


def gamma_v(v: SpclSubset) -> GradedModule:
    """Acyclisation idempotent for V: the part of the unit supported on V.

    For V the whole space this is the unit itself; for closed points with
    prime set S it is the Prufer family of S placed in degree 1, the homology
    of the stable Koszul complex Z -> Z[S^-1] (the colimit over finite
    subsets of S realises the cofinite case).
    """
    if v.is_all:
        return GradedModule.unit()
    s = v.closed
    if s.is_empty():
        return GradedModule.zero()
    return GradedModule(((1, _one(Cyclic.prufer(s))),))


def l_v(v: SpclSubset) -> GradedModule:
    """Localisation idempotent for V: the unit localised away from V.

    For closed points with prime set S this is Z[S^-1] in degree 0 (homology
    of the Cech complex); for the whole space it vanishes.
    """
    if v.is_all:
        return GradedModule.zero()
    return GradedModule(((0, _one(Cyclic.free(v.closed))),))


@lru_cache(maxsize=256)
def gamma_point(x: SpecZPoint) -> GradedModule:
    """Point idempotent: gamma of V(x) tensored with l of Z(x).

    Memoised per point: the value is immutable and the same few points are
    asked for again and again.
    """
    return kunneth(gamma_v(v_of_point(x)), l_v(z_of_point(x)))


def supp_object(x: GradedModule) -> PointSet:
    """Support of a formal object: the points where the point idempotent
    does not kill it.

    Computed in closed form as the union of the blockwise supports, which
    keeps cofinite answers exact; the pointwise description via explicit
    tensoring is what the verification suite spot-checks.
    """
    return supp_blocks(c for _, m in x.graded for c, _ in m.parts)


def localization_triangle_check(v: SpclSubset) -> Report:
    """Verify the homology-level exact sequence of gamma_V(1) -> 1 -> l_V(1).

    For V given by closed points S this is the four-term exact sequence
    0 -> H0(gamma) -> Z -> Z[S^-1] -> H1(gamma) -> 0: the degree-zero part of
    gamma vanishes, the localisation map is injective, and its cokernel is
    the Prufer family of S.  The two idempotents must also tensor to zero.
    """
    g, l = gamma_v(v), l_v(v)
    records = []
    if v.is_all:
        records.append(check("triangle.unit", g == GradedModule.unit(), g, GradedModule.unit()))
        records.append(check("triangle.localisation-vanishes", l.is_zero(), l, "0"))
    else:
        s = v.closed
        records.append(
            check("triangle.h0-gamma-vanishes", g.module_in(0).is_zero(), g.module_in(0), "0")
        )
        expected_l = GradedModule.of({0: [Cyclic.free(s)]})
        records.append(check("triangle.localisation-form", l == expected_l, l, expected_l))
        # The unit embeds in its localisation: Z[S^-1] is the colimit of the
        # Koszul tower Z --p--> Z over p in S, so Z -> Z[S^-1] is injective
        # when each multiplication is, i.e. when H^-1 of its cone vanishes.
        kernels = [(p, homology(scalar_cone(p)).module_in(-1)) for p in s.up_to(_PROBE_BOUND)]
        bad = "; ".join(f"ker(Z --{p}--> Z) = {k}" for p, k in kernels if not k.is_zero())
        records.append(check("triangle.unit-injects", not bad, bad, "0"))
        expected_g = (
            GradedModule.zero() if s.is_empty() else GradedModule.of({1: [Cyclic.prufer(s)]})
        )
        records.append(check("triangle.cokernel-is-prufer", g == expected_g, g, expected_g))
    gl = kunneth(g, l)
    records.append(check("triangle.gamma-tensor-l-vanishes", gl.is_zero(), gl, "0"))
    return Report.of(records)


def _probe_points(x: GradedModule) -> list[SpecZPoint]:
    """Generic point, every prime named in x, and small primes beyond."""
    named: set[int] = set()
    for _, m in x.graded:
        for c, _ in m.parts:
            if c.kind == "torsion":
                named.add(c.p)
            else:
                named.update(c.primes.primes)
    named.update(primes_up_to(_PROBE_BOUND))
    return [GENERIC] + [SpecZPoint.closed(p) for p in sorted(named)]


def ltg_check(x: GradedModule) -> Report:
    """Computable consequences of the local-to-global principle.

    (i) the object vanishes exactly when its support is empty; (ii) the
    support is the union of the local supports: at each probed point it
    holds the point exactly when the localisation at the point is nonzero
    in some degree; (iii) each point-local piece is concentrated at its
    point and is nonzero exactly at points of the support.
    """
    s = supp_object(x)
    records = [
        check("ltg.zero-detection", x.is_zero() == s.is_empty(), x, s),
    ]
    probes = _probe_points(x)
    bad = [
        pt
        for pt in probes
        if s.contains(pt) != any(localize_point(pt, m) for _, m in x.graded)
    ]
    records.append(
        check(
            "ltg.union-of-local-supports",
            not bad,
            s,
            "the localisations at " + ", ".join(map(str, bad)),
        )
    )
    for pt in probes:
        gx = kunneth(gamma_point(pt), x)
        local_supp = supp_object(gx)
        records.append(
            check(
                f"ltg.local-at-{pt}-concentrated",
                local_supp.leq(PointSet.singleton(pt)),
                local_supp,
                PointSet.singleton(pt),
            )
        )
        records.append(
            check(
                f"ltg.local-at-{pt}-detects",
                (not gx.is_zero()) == s.contains(pt),
                gx,
                s,
            )
        )
    return Report.of(records)


def residue_field(x: SpecZPoint) -> GradedModule:
    """k(p) = Z/p for a closed point, Q for the generic point, in degree 0."""
    if x.is_generic:
        return GradedModule.of({0: [Cyclic.rationals()]})
    return GradedModule.of({0: [Cyclic.torsion(x.p, 1)]})


def residue_check(x: SpecZPoint, obj: GradedModule) -> Report:
    """Tensoring with the residue field decomposes into shifted copies of it,
    and detects objects concentrated at the point."""
    kp = residue_field(x)
    kp_block = kp.module_in(0).parts[0][0]
    result = kunneth(kp, obj)
    records = []
    stray = [
        str(c) for _, m in result.graded for c, _ in m.parts if c != kp_block
    ]
    records.append(
        check(
            f"residue.{x}-decomposes",
            not stray,
            " + ".join(stray) if stray else "",
            str(kp_block),
        )
    )
    concentrated = (not obj.is_zero()) and supp_object(obj).leq(PointSet.singleton(x))
    if concentrated:
        records.append(
            check(f"residue.{x}-detects", not result.is_zero(), result, "nonzero")
        )
    return Report.of(records)


def sigma_loc(gens: list[GradedModule]) -> PointSet:
    """Subset code of the localising subcategory generated by the objects:
    the union of their supports (local pieces of generators exhaust the
    support of everything they build), taken in one pass over all their
    blocks."""
    return supp_blocks(c for g in gens for _, m in g.graded for c, _ in m.parts)


def tau_loc(w: PointSet, x: GradedModule) -> bool:
    """Membership in the localising subcategory coded by the subset w."""
    return supp_object(x).leq(w)


def sigma_of_tau(w: PointSet) -> PointSet:
    """Support of the subcategory coded by w, assembled from the canonical
    generators attached to the points of w; equals w because every point
    idempotent is nonzero."""
    gens = [gamma_point(GENERIC)] if w.generic else []
    if not w.closed.is_empty():
        # One Prufer family realises all closed points of w at once.
        gens.append(GradedModule.of({1: [Cyclic.prufer(w.closed)]}))
    return sigma_loc(gens)


@value_class
class CompactPrime:
    """A prime thick subcategory of the perfect complexes, encoded by the
    subset of Spec Z that its members' supports must avoid hitting."""

    point: SpecZPoint
    defining: SpclSubset  # Z(point); membership is supp inside this

    def __str__(self) -> str:
        return f"prime at {self.point}"


class NotPrimeError(ValueError):
    """Raised when a coded thick subcategory is not prime; carries a witness
    pair when one exists."""

    def __init__(self, message: str, witness: tuple[PerfectComplex, PerfectComplex] | None = None):
        super().__init__(message)
        self.witness = witness


def point_to_prime(x: SpecZPoint) -> CompactPrime:
    """The prime thick subcategory attached to a point: complexes whose
    support avoids x, i.e. lands in Z(x)."""
    return CompactPrime(x, z_of_point(x))


def tau_is_prime(v: SpclSubset) -> SpecZPoint | None:
    """Decide whether the thick subcategory coded by V is prime.

    It is prime exactly when V is Z(x) for some point x: all closed points
    (x generic) or the closed points away from one prime (x = (p)).
    """
    if v.is_all:
        return None  # not proper
    s = v.closed
    if s.is_all():
        return GENERIC
    if not s.finite and len(s.primes) == 1:
        return SpecZPoint.closed(s.primes[0])
    return None


def _witness_pair(v: SpclSubset) -> tuple[PerfectComplex, PerfectComplex]:
    """Two complexes outside tau(V) whose tensor lands in it, for a proper V
    not of the form Z(x): the cones on two primes that V leaves out."""
    missing = v.closed.complement()
    if missing.finite:
        p, q = missing.primes[:2]
    else:
        # all primes but finitely many, so the search ends
        p, q = islice(filter(missing.contains, count(2)), 2)
    return scalar_cone(p), scalar_cone(q)


def prime_to_point(v: SpclSubset) -> SpecZPoint:
    """Recover the point from a prime coded as tau(V).

    Probes n over the primes named in V and those up to _PROBE_BOUND, asking
    which cones of multiplication land outside the subcategory; the excluded
    n generate the recovered prime ideal of Z.
    """
    x = tau_is_prime(v)
    if x is None:
        if v.is_all:
            raise NotPrimeError("coded subcategory is not proper, hence not prime")
        raise NotPrimeError(
            "coded subcategory is not prime: both cone factors lie outside "
            "while their tensor lies inside",
            _witness_pair(v),
        )
    target = v.point_set()
    probes = sorted(set(primes_up_to(_PROBE_BOUND)) | set(v.closed.primes))
    excluded = [
        n for n in probes if not supp_object(homology(scalar_cone(n))).leq(target)
    ]
    if not excluded:
        recovered = GENERIC
    elif len(excluded) == 1:
        recovered = SpecZPoint.closed(excluded[0])
    else:
        raise NotPrimeError(f"probe excluded more than one prime: {excluded}")
    if recovered != x:
        raise AssertionError(f"probe recovered {recovered}, structure says {x}")
    return recovered


def thick_membership(y: PerfectComplex, gens: list[PerfectComplex]) -> bool:
    """Whether y lies in the thick subcategory generated by gens: supports
    decide, since the unit generates everything and the classification is by
    specialisation-closed subsets."""
    return tau_loc(sigma_loc([homology(g) for g in gens]), homology(y))
