"""Command-line surface: file ingestion, dispatch, and report emission.

All integers in input and output files are decimal strings so that
arbitrary precision survives any toolchain; degree keys are strings too.
Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import balmer, supportdata, verify
from .homalg import PerfectComplex, homology
from .modcalc import GradedModule, kunneth
from .report import Report
from .supportdata import Catalogue, CatalogueError, SupportDatum
from .znum import GENERIC, PrimeSet, SpclSubset, SpecZPoint, is_prime, json_int


class InputError(Exception):
    pass


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice raises ValueError, where
    json.load would keep the last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"key {key!r} appears twice in one object")
    return obj


def _load_json(path: str) -> object:
    """The JSON of the file at path; a file unreadable, not UTF-8 or not JSON,
    or an object that gives a key twice, is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_json_object)
    except FileNotFoundError:
        raise InputError(f"{path}: no such file")
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except RecursionError:
        raise InputError(f"{path}: nested too deeply")
    except ValueError as exc:  # from _json_object
        raise InputError(f"{path}: {exc}")


def _read(reader, data: object, where: str, *args):
    """reader(data, *args, where): the one place where the ValueError of a
    reader, which names where (the file or flag of data), is bad input."""
    try:
        return reader(data, *args, where)
    except ValueError as exc:
        raise InputError(str(exc))


def _is_complex(data: object) -> bool:
    return isinstance(data, dict) and "ranks" in data


def _to_object(data: object, path: str) -> GradedModule:
    """A graded module as it is, or a complex taken up to homology."""
    if _is_complex(data):
        return _homology(_read(PerfectComplex.from_json, data, path), path)
    return _read(GradedModule.from_json, data, path)


def _load_object(path: str) -> GradedModule:
    """A graded module file, or a complex file (taken up to homology)."""
    return _to_object(_load_json(path), path)


def _homology(c: PerfectComplex, where: str) -> GradedModule:
    """Homology of an input complex; an invariant factor that cannot be
    factored (a torsion prime too large to certify, or a split beyond the
    factoriser's budget) is bad input."""
    try:
        return homology(c)
    except ValueError as exc:
        raise InputError(f"{where}: homology: {exc}")


def _load_catalogue(path: str) -> Catalogue:
    cat = _read(Catalogue.from_json, _load_json(path), path)
    try:
        cat.ideals  # enumerated here, so that more than MAX_IDEALS is bad input
    except CatalogueError as exc:
        raise InputError(f"{path}: {exc}")
    return cat


def _parse_point(text: str) -> SpecZPoint:
    if text.lower() in ("generic", "0", "(0)"):
        return GENERIC
    # json_int's decimal rule: int() would also take "1_3", " 3" or an
    # Arabic-Indic digit
    p = _read(json_int, text, "--point")
    # worded as the list flags word a bad prime; is_prime raises past the
    # bound of its proven test
    try:
        if is_prime(p):
            return SpecZPoint.closed(p)
    except ValueError as exc:
        raise InputError(f"--point: {exc}")
    raise InputError(f"--point: {p} is not prime")


def _parse_primes(text: str, finite: bool, flag: str) -> PrimeSet:
    """The primes listed in text, comma-separated by json_int's decimal rule;
    spaces around an item are allowed, so "2, 3" is 2 and 3."""
    listed = [json_int(x.strip(), flag) for x in text.split(",") if x.strip()]
    try:
        return PrimeSet.of(listed, finite)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _point_or_subset(args) -> SpecZPoint | SpclSubset:
    """The point or subset that exactly one flag names; only the commands
    with a --point flag can give a point."""
    point = getattr(args, "point", None)
    given = [point, args.subset, args.closed, args.closed_except]
    if args.all + sum(x is not None for x in given) != 1:
        flags = "--subset, --all, --closed, --closed-except"
        if hasattr(args, "point"):
            flags = "--point, " + flags
        raise InputError(f"give exactly one of {flags}")
    if point is not None:
        return _parse_point(point)
    if args.subset is not None:
        return _read(SpclSubset.from_json, _load_json(args.subset), args.subset)
    if args.all:
        return SpclSubset.whole_space()
    if args.closed is not None:
        return SpclSubset.closed_points(_read(_parse_primes, args.closed, "--closed", True))
    excluded = _read(_parse_primes, args.closed_except, "--closed-except", False)
    return SpclSubset.closed_points(excluded)


def _add_subset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--subset", help="subset JSON file")
    p.add_argument("--all", action="store_true", help="the whole spectrum")
    p.add_argument("--closed", help="comma-separated primes (finite closed set)")
    p.add_argument(
        "--closed-except", help="comma-separated primes (all closed points except these)"
    )


# Below this many cases, the checks that run cases // 10 of them (tensor-commutes
# and kunneth-laws) would run none and still report a pass.
MIN_CASES = 10
# verify's time grows in proportion to its cases: at this bound it took 28.8 s
# on one CPU of a 2-core Xeon (Python 3.11), and should finish within 60 s.
MAX_CASES = 50_000


def _int(text: str) -> int:
    """An argparse type: an integer by json_int's decimal rule."""
    return json_int(text, "argument")


_int.__name__ = "int"  # argparse names it in "invalid int value: ..."


def _int_in(lo: int, hi: int):
    """An argparse type: an integer in [lo, hi]."""

    def parse(text: str) -> int:
        n = _int(text)
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}], got {n}")
        return n

    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _emit(args, human_lines: list[str], payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _emit_report(args, title: str, report: Report) -> int:
    payload = {"command": title, **report.to_json()}
    _emit(args, report.lines(), payload)
    return 0 if report.passed else 1


def cmd_homology(args) -> int:
    c = _read(PerfectComplex.from_json, _load_json(args.complex), args.complex)
    h = _homology(c, args.complex)
    _emit(args, [str(h)], {"homology": h.to_json()})
    return 0


def cmd_tensor(args) -> int:
    """Derived tensor: over Z, the Kunneth product of the inputs' homologies."""
    a, b = _load_json(args.left), _load_json(args.right)
    if _is_complex(a) != _is_complex(b):
        raise InputError("tensor: both inputs must be complexes or both graded modules")
    h = kunneth(_to_object(a, args.left), _to_object(b, args.right))
    _emit(args, [str(h)], {"tensor-homology": h.to_json()})
    return 0


def cmd_support(args) -> int:
    supp = balmer.supp_object(_load_object(args.object))
    _emit(args, [str(supp)], {"support": supp.to_json()})
    return 0


def cmd_idempotent(args) -> int:
    if args.point is not None and args.flavor is not None:
        raise InputError("--flavor applies to a subset, not to --point")
    where = _point_or_subset(args)
    if isinstance(where, SpecZPoint):
        value = balmer.gamma_point(where)
        name = f"gamma at point {where}"
    else:
        flavor = args.flavor or "gamma"
        value = balmer.l_v(where) if flavor == "l" else balmer.gamma_v(where)
        name = f"{flavor} at {where}"
    square = kunneth(value, value)
    ok = square == value
    lines = [f"{name}: {value}", f"idempotency: {'pass' if ok else 'FAIL'}"]
    payload = {
        "idempotent": name,
        "value": value.to_json(),
        "idempotency": "pass" if ok else "fail",
    }
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_triangle_check(args) -> int:
    v = _point_or_subset(args)
    return _emit_report(args, "triangle-check", balmer.localization_triangle_check(v))


def cmd_ltg(args) -> int:
    return _emit_report(args, "ltg", balmer.ltg_check(_load_object(args.object)))


def cmd_classify(args) -> int:
    code = balmer.sigma_loc([_load_object(p) for p in args.objects])
    lines = [f"localising subcategory code: {code}"]
    _emit(args, lines, {"code": code.to_json()})
    return 0


def cmd_prime(args) -> int:
    v = _point_or_subset(args)
    if isinstance(v, SpecZPoint):
        prime = balmer.point_to_prime(v)
        lines = [
            f"{prime}",
            f"membership: complexes with support inside {prime.defining}",
        ]
        _emit(args, lines, {"point": str(v), "defining": prime.defining.to_json()})
        return 0
    try:
        x = balmer.prime_to_point(v)
    except balmer.NotPrimeError as exc:
        lines = [f"not prime: {exc}"]
        payload = {"prime": False, "reason": str(exc)}
        if exc.witness is not None:
            payload["witness"] = [c.to_json() for c in exc.witness]
            lines.append("witness: two cones outside whose tensor lies inside")
        _emit(args, lines, payload)
        return 1
    _emit(args, [f"point: {x}"], {"prime": True, "point": str(x)})
    return 0


def cmd_catalogue_spc(args) -> int:
    cat = _load_catalogue(args.catalogue)
    datum = supportdata.spc_support(cat)
    primes = datum.space.points
    labels = {p: supportdata.point_label(p, cat) for p in primes}
    lines = [f"{len(primes)} prime thick tensor-ideals"]
    payload_primes = []
    for p in primes:
        lines.append("prime: " + labels[p])
        payload_primes.append(list(cat.names_of(p)))
    supports = {}
    for i, name in enumerate(cat.objects):
        pts = sorted(labels[p] for p in datum.sigma[i])
        supports[name] = pts
        lines.append(f"supp {name}: [" + "; ".join(pts) + "]")
    _emit(args, lines, {"primes": payload_primes, "supports": supports})
    return 0


def cmd_catalogue_universal(args) -> int:
    cat = _load_catalogue(args.catalogue)
    if args.datum:
        datum = _read(SupportDatum.from_json, _load_json(args.datum), args.datum, cat.objects)
    else:
        datum = supportdata.spc_support(cat)
    axioms = supportdata.check_axioms(datum, cat)
    if not axioms.passed:
        return _emit_report(args, "catalogue-universal", axioms)
    result = supportdata.universal_map(datum, cat)
    lines = []
    mapping_payload = {}
    for x, fx in result.mapping:
        names = list(cat.names_of(fx))
        label = supportdata.point_label(x, cat)
        lines.append(f"f({label}) = {{{', '.join(names)}}}")
        mapping_payload[label] = names
    report = axioms.merged(result.report)
    lines.extend(report.lines())
    payload = {"map": mapping_payload, **report.to_json()}
    _emit(args, lines, payload)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    report = verify.run_verify(args.seed, args.cases)
    lines = list(report.lines())
    failed = len(report.failures())
    lines.append(
        f"verify: {len(report.records)} checks, {failed} failed "
        f"(seed {args.seed}, cases {args.cases}, primes-bound {verify.PRIMES_BOUND})"
    )
    payload = {
        "seed": args.seed,
        "cases": args.cases,
        "primes_bound": verify.PRIMES_BOUND,
        **report.to_json(),
    }
    _emit(args, lines, payload)
    return 0 if report.passed else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call
    in the process; each parse still returns a fresh namespace.  Only a
    process that calls ``main`` more than once gains from the sharing."""
    parser = argparse.ArgumentParser(
        prog="ttsupport",
        description="Exact support theory for the derived category of the integers.",
    )
    parser.add_argument(
        "--format", choices=["human", "json"], default="human", help="report style"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="homology of a perfect complex")
    p.add_argument("complex", help="complex JSON file")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("tensor", help="derived tensor of two complexes or objects")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("support", help="support of an object")
    p.add_argument("--object", required=True, help="graded module or complex JSON file")
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("idempotent", help="tensor-idempotent for a point or subset")
    p.add_argument("--point", help="a prime, or 'generic'")
    _add_subset_flags(p)
    p.add_argument("--flavor", choices=["gamma", "l"], help="for a subset (default: gamma)")
    p.set_defaults(func=cmd_idempotent)

    p = sub.add_parser("triangle-check", help="acyclisation/localisation triangle checks")
    _add_subset_flags(p)
    p.set_defaults(func=cmd_triangle_check)

    p = sub.add_parser("ltg", help="local-to-global checks for an object")
    p.add_argument("--object", required=True)
    p.set_defaults(func=cmd_ltg)

    p = sub.add_parser("classify", help="subset code of the generated localising subcategory")
    p.add_argument("--objects", nargs="+", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("prime", help="point/prime dictionary in both directions")
    p.add_argument("--point", help="a prime, or 'generic'")
    _add_subset_flags(p)
    p.set_defaults(func=cmd_prime)

    p = sub.add_parser("catalogue-spc", help="spectrum of a finite catalogue")
    p.add_argument("catalogue")
    p.set_defaults(func=cmd_catalogue_spc)

    p = sub.add_parser("catalogue-universal", help="comparison map into the spectrum")
    p.add_argument("catalogue")
    p.add_argument("--datum", help="support datum JSON file (default: the spectrum's own)")
    p.set_defaults(func=cmd_catalogue_universal)

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("--seed", type=_int, default=42)
    p.add_argument("--cases", type=_int_in(MIN_CASES, MAX_CASES), default=500)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
