"""Per-layer tracing from outside the program.

Every binding of each target function in every loaded ``ttsupport`` module is
replaced by a wrapper that records a span (name, start, end, parent span, op)
and charges the span's self time -- its duration minus the time its child
spans cover -- to the function.  Modules import functions by name
(``from .homalg import homology``), so patching the defining module alone
would miss most calls.  Counters are computed after the span has closed and
their cost is charged to no layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# module -> functions to wrap.  homalg.factorint is sympy's, as homalg calls it.
TARGETS = {
    "znum": ("is_prime",),
    "homalg": ("smith_factors", "snf", "homology", "tensor_chain", "cone", "determinant", "factorint"),
    "modcalc": ("kunneth", "tensor_mod", "tor_mod", "localize_point", "supp_mod"),
    "balmer": (
        "gamma_point", "gamma_v", "l_v", "supp_object", "ltg_check", "thick_membership",
        "residue_check", "localization_triangle_check", "prime_to_point",
    ),
    "supportdata": (
        "enumerate_ideals", "enumerate_primes", "spc_support", "check_axioms", "universal_map",
        "classify",
    ),
    "cli": ("main",),
}

LAYERS = ("znum", "homalg", "modcalc", "balmer", "supportdata", "cli", "verify")

MAXIMA = (
    "znum.is_prime.max_bits", "homalg.smith_factors.max_dim", "homalg.snf.max_entry_bits",
    "homalg.tensor_chain.max_rank", "homalg.factorint.max_bits",
)


class MissingTarget(RuntimeError):
    pass


def _bits_of_matrix(m) -> int:
    return max((abs(x).bit_length() for row in m.entries for x in row), default=0)


class Tracer:
    """Spans, self times and counters for one traced phase.

    Every op counts towards the metrics; spans are kept for the first
    span_ops ops only, which bounds the memory and the file they take."""

    def __init__(self, span_ops: int) -> None:
        self.span_ops = span_ops
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = dict.fromkeys(MAXIMA, 0)
        self.sums: dict[str, int] = defaultdict(int)
        self.catalogues_seen: set[int] = set()
        # Spans are kept column-wise in arrays, which the garbage collector
        # does not scan: one verify op records about 250k spans.
        self.span_names: dict[str, int] = {}
        self.spans = {col: array("q") for col in ("id", "parent", "op", "name")}
        self.spans.update({col: array("d") for col in ("start", "end")})
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = [[0.0, -1]]  # [time covered by children, span id]
        self._patches: list[tuple] = []

    # --- spans --------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._stack = [[0.0, -1]]
        self.catalogues_seen = set()

    def end_op(self) -> None:
        self.sums["catalogues"] += len(self.catalogues_seen)

    def wrap(self, key: str, fn, counter=None, name_of=None):
        """A wrapper of fn recording spans under key (or name_of(result))."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            stack.append([0.0, span_id])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(key, start, perf_counter())
                raise
            end = perf_counter()
            tracer._close(key if name_of is None else name_of(result), start, end)
            if counter is not None:
                counter(tracer, args, result)
                stack[-1][0] += perf_counter() - end
            return result

        return traced

    def _close(self, name: str, start: float, end: float) -> None:
        covered, span_id = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self.incl_s[name] += duration
        self._stack[-1][0] += duration
        if self.op < self.span_ops:
            spans = self.spans
            spans["id"].append(span_id)
            spans["parent"].append(self._stack[-1][1])
            spans["op"].append(self.op)
            spans["name"].append(self.span_names.setdefault(name, len(self.span_names)))
            spans["start"].append(start)
            spans["end"].append(end)

    # --- installing ---------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every target; fail if one is missing."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ttsupport" or n.startswith("ttsupport.")]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"ttsupport.{layer}")
            if home is None:
                raise MissingTarget(f"module ttsupport.{layer} is not loaded")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    raise MissingTarget(f"ttsupport.{layer}.{name} is missing")
                wrapper = self.wrap(f"{layer}.{name}", original, COUNTERS.get(f"{layer}.{name}"))
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        verify = sys.modules.get("ttsupport.verify")
        if verify is None or not getattr(verify, "CHECKS", None):
            raise MissingTarget("ttsupport.verify.CHECKS is missing")
        self._checks = (verify.CHECKS, list(verify.CHECKS))
        verify.CHECKS[:] = [
            self.wrap("", f, name_of=lambda rec: f"verify.{rec.name}") for f in verify.CHECKS
        ]

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        checks, originals = self._checks
        checks[:] = originals

    @property
    def span_count(self) -> int:
        return len(self.spans["id"])

    def write_spans(self, path: str) -> None:
        """Gzipped JSON lines: id, parent (-1 at the op's root), op, name,
        start and end in seconds of the process clock."""
        names = sorted(self.span_names, key=self.span_names.get)
        cols = self.spans
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for k in range(self.span_count):
                fh.write(json.dumps({"id": cols["id"][k], "parent": cols["parent"][k], "op": cols["op"][k],
                                     "name": names[cols["name"][k]], "start": cols["start"][k],
                                     "end": cols["end"][k]}) + "\n")


# --- counters, computed after each call's span has closed ---------------------


def _is_prime(t: Tracer, args, result) -> None:
    n = args[0]
    t.maxima["znum.is_prime.max_bits"] = max(t.maxima["znum.is_prime.max_bits"], abs(n).bit_length())


def _smith_factors(t: Tracer, args, result) -> None:
    m = args[0]
    t.maxima["homalg.smith_factors.max_dim"] = max(t.maxima["homalg.smith_factors.max_dim"], m.rows, m.cols)


def _snf(t: Tracer, args, result) -> None:
    bits = max(_bits_of_matrix(result.u), _bits_of_matrix(result.v), _bits_of_matrix(result.d))
    t.maxima["homalg.snf.max_entry_bits"] = max(t.maxima["homalg.snf.max_entry_bits"], bits)


def _tensor_chain(t: Tracer, args, result) -> None:
    top = max((r for _, r in result.ranks), default=0)
    t.maxima["homalg.tensor_chain.max_rank"] = max(t.maxima["homalg.tensor_chain.max_rank"], top)


def _factorint(t: Tracer, args, result) -> None:
    n = args[0]
    t.maxima["homalg.factorint.max_bits"] = max(t.maxima["homalg.factorint.max_bits"], abs(n).bit_length())


def _enumerate_ideals(t: Tracer, args, result) -> None:
    c = args[0]
    # The smallest ideal comes first: every ideal contains the closure of zero.
    smallest = len(result[0]) if result else 0
    t.sums["supportdata.enumerate_ideals.candidates"] += 1 << (c.size - smallest)
    t.sums["supportdata.enumerate_ideals.found"] += len(result)
    t.catalogues_seen.add(hash(c))


COUNTERS = {
    "znum.is_prime": _is_prime,
    "homalg.smith_factors": _smith_factors,
    "homalg.snf": _snf,
    "homalg.tensor_chain": _tensor_chain,
    "homalg.factorint": _factorint,
    "supportdata.enumerate_ideals": _enumerate_ideals,
}


def layer_metrics(t: Tracer, ops: int, verify_names: list[str]) -> dict[str, float]:
    """Per-op means of calls, self time and sums; maxima as they are."""
    out: dict[str, float] = {}
    for layer, names in TARGETS.items():
        for name in names:
            key = f"{layer}.{name}"
            out[f"{key}.calls"] = t.calls[key] / ops
            out[f"{key}.self_s"] = t.self_s[key] / ops
    out.update(t.maxima)
    ei = "supportdata.enumerate_ideals"
    candidates, found = t.sums[f"{ei}.candidates"], t.sums[f"{ei}.found"]
    out[f"{ei}.candidates"] = candidates / ops
    out[f"{ei}.found"] = found / ops
    out[f"{ei}.yield"] = found / candidates if candidates else 0
    out[f"{ei}.calls_per_catalogue"] = t.calls[ei] / t.sums["catalogues"] if t.sums["catalogues"] else 0
    out["cli.main.out_bytes"] = t.sums["cli.main.out_bytes"] / ops
    unknown = sorted(k for k in t.incl_s if k.startswith("verify.") and k[len("verify."):] not in verify_names)
    if unknown:
        raise MissingTarget(f"verify records not in the benchmark's list: {unknown}")
    for name in verify_names:
        out[f"verify.{name}.s"] = t.incl_s[f"verify.{name}"] / ops
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s for k, s in t.self_s.items() if k.startswith(layer + ".")) / ops
    return out
