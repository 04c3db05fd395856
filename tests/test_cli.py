import copy
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

import sample_commands
from deadline import within
from ttsupport import randgen, supportdata, verify, znum
from ttsupport.balmer import supp_object
from ttsupport.cli import MAX_PRIMES_BOUND, MIN_CASES, build_parser, main
from ttsupport.homalg import MAX_RANK, PerfectComplex, homology, tensor_chain
from ttsupport.modcalc import Cyclic, GradedModule, kunneth
from ttsupport.supportdata import five_object_model
from ttsupport.znum import _MR_PROVEN_BOUND, PrimeSet, SpclSubset, primes_up_to

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_VERIFY = ROOT / "tests" / "golden" / "verify_seed42_cases60_primes50.txt"
# the first prime past the bound of the proven primality test
BEYOND_PROVEN = sympy.nextprime(_MR_PROVEN_BOUND)
GOLDEN_VERIFY_DEFAULT = ROOT / "tests" / "golden" / "verify_seed42_cases500_primes100.txt"
SAMPLES = ROOT / "samples"


@pytest.fixture()
def samples(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "torsion": write(
            "torsion.json",
            GradedModule.of(
                {0: [Cyclic.torsion(2, 2), Cyclic.torsion(3, 1)]}
            ).to_json(),
        ),
        "rationals": write(
            "rationals.json", GradedModule.of({0: [Cyclic.rationals()]}).to_json()
        ),
        "mult2": write(
            "mult2.json", PerfectComplex.of({0: 1, 1: 1}, {0: [[2]]}).to_json()
        ),
        "mult3": write(
            "mult3.json", PerfectComplex.of({0: 1, 1: 1}, {0: [[3]]}).to_json()
        ),
        "subset2": write(
            "subset2.json", SpclSubset.closed_points(PrimeSet.of([2])).to_json()
        ),
        "model5": write("model5.json", five_object_model().to_json()),
        "bad": write("bad.json", {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [[1, 2]]}}),
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCommands:
    def test_support(self, capsys, samples):
        code, out, _ = run(capsys, "support", "--object", samples["torsion"])
        assert code == 0
        assert out.strip() == "{(2), (3)}"

    def test_support_json(self, capsys, samples):
        code, out, _ = run(capsys, "--format", "json", "support", "--object", samples["torsion"])
        assert code == 0
        payload = json.loads(out)
        assert payload["support"]["closed"]["primes"] == ["2", "3"]
        assert payload["support"]["generic"] is False

    def test_support_accepts_complexes(self, capsys, samples):
        code, out, _ = run(capsys, "support", "--object", samples["mult2"])
        assert code == 0
        assert out.strip() == "{(2)}"

    def test_homology(self, capsys, samples):
        code, out, _ = run(capsys, "homology", samples["mult2"])
        assert code == 0
        assert out.strip() == "{1: Z/2}"

    def test_tensor_complexes(self, capsys, samples):
        code, out, _ = run(capsys, "tensor", samples["mult2"], samples["mult3"])
        assert code == 0
        assert out.strip() == "0"

    def test_tensor_modules(self, capsys, samples):
        code, out, _ = run(capsys, "tensor", samples["torsion"], samples["torsion"])
        assert code == 0
        assert "Z/4" in out

    def test_tensor_mixed_rejected(self, capsys, samples):
        code, _, err = run(capsys, "tensor", samples["mult2"], samples["torsion"])
        assert code == 2
        assert "both" in err

    def test_idempotent_point(self, capsys, samples):
        code, out, _ = run(capsys, "idempotent", "--point", "2")
        assert code == 0
        assert "{1: Z(2^oo)}" in out
        assert "idempotency: pass" in out

    def test_idempotent_subset(self, capsys, samples):
        code, out, _ = run(capsys, "idempotent", "--subset", samples["subset2"], "--flavor", "l")
        assert code == 0
        assert "Z[1/2]" in out

    def test_triangle_check(self, capsys, samples):
        code, out, _ = run(capsys, "triangle-check", "--closed", "2")
        assert code == 0
        assert "[pass] triangle.cokernel-is-prufer" in out

    def test_ltg(self, capsys, samples):
        code, out, _ = run(capsys, "ltg", "--object", samples["torsion"])
        assert code == 0
        assert "[pass] ltg.zero-detection" in out

    def test_classify(self, capsys, samples):
        code, out, _ = run(
            capsys, "classify", "--objects", samples["torsion"], samples["rationals"]
        )
        assert code == 0
        assert out.strip().endswith("{(0), (2), (3)}")

    def test_prime_point(self, capsys, samples):
        code, out, _ = run(capsys, "prime", "--point", "generic")
        assert code == 0
        assert "prime at (0)" in out

    def test_prime_roundtrip(self, capsys, samples):
        code, out, _ = run(capsys, "prime", "--closed-except", "5")
        assert code == 0
        assert out.strip() == "point: (5)"

    def test_prime_rejects_non_prime(self, capsys, samples):
        code, out, _ = run(capsys, "prime", "--closed", "2,3")
        assert code == 1
        assert "not prime" in out

    @pytest.mark.parametrize(
        "flags, closed",
        [
            (["--closed-except", "101,103"], PrimeSet.cofinite([101, 103])),
            (["--closed-except", "7,101"], PrimeSet.cofinite([7, 101])),
            (
                ["--closed", ",".join(map(str, primes_up_to(100)))],
                PrimeSet.of(primes_up_to(100)),
            ),
        ],
    )
    def test_prime_witness_beyond_100(self, capsys, flags, closed):
        code, out, _ = run(capsys, "--format", "json", "prime", *flags)
        assert code == 1
        cones = [PerfectComplex.from_json(c) for c in json.loads(out)["witness"]]
        assert len(cones) == 2
        v = SpclSubset.closed_points(closed).point_set()
        for c in cones:
            assert not supp_object(homology(c)).leq(v)
        assert supp_object(homology(tensor_chain(*cones))).leq(v)

    def test_catalogue_spc(self, capsys, samples):
        code, out, _ = run(capsys, "catalogue-spc", samples["model5"])
        assert code == 0
        assert "2 prime thick tensor-ideals" in out
        assert "prime: {0, A}" in out
        assert "prime: {0, B}" in out

    def test_catalogue_universal(self, capsys, samples):
        code, out, _ = run(capsys, "catalogue-universal", samples["model5"])
        assert code == 0
        assert "f({0, A}) = {0, A}" in out
        assert "[pass] universal.unique" in out

    def test_catalogue_universal_with_datum(self, capsys, samples, tmp_path):
        datum = {
            "points": ["x1", "x2"],
            "order": [],
            "sigma": {
                "0": [],
                "U": ["x1", "x2"],
                "A": ["x1"],
                "B": ["x2"],
                "S": ["x1", "x2"],
            },
        }
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        code, out, _ = run(
            capsys, "catalogue-universal", samples["model5"], "--datum", str(path)
        )
        assert code == 0
        assert "f(x1) = {0, B}" in out
        assert "f(x2) = {0, A}" in out

    def test_catalogue_universal_rejects_a_duplicate_datum_point(self, capsys, samples, tmp_path):
        datum = {
            "points": ["p", "p", "q"],
            "order": [],
            "sigma": {"0": [], "U": ["p", "q"], "A": ["p"], "B": ["q"], "S": ["p", "q"]},
        }
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(datum))
        code, out, err = run(
            capsys, "catalogue-universal", samples["model5"], "--datum", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"input error: {path}: ")
        assert "duplicate point 'p'" in err

    @pytest.mark.parametrize(
        "order, message",
        [
            ([["p", "s"]], "order: unknown point in pair (p, s)"),
            ([["p", "q"], ["q", "p"]], "order: not antisymmetric at ("),
            ([["p", "q"], ["q", "r"]], "order: not transitive at (p, q, r)"),
        ],
        ids=["unknown", "two-cycle", "intransitive"],
    )
    def test_catalogue_universal_rejects_a_datum_order_that_is_not_a_poset(
        self, capsys, samples, tmp_path, order, message
    ):
        points = ["p", "q", "r"]
        datum = {
            "points": points,
            "order": order,
            "sigma": {"0": [], "U": points, "A": [], "B": [], "S": points},
        }
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        code, out, err = run(
            capsys, "catalogue-universal", samples["model5"], "--datum", str(path)
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"input error: {path}: {message}")

    def test_catalogue_universal_with_a_long_chain_datum(self, capsys, samples, tmp_path):
        # checking transitivity pair by pair of pairs took minutes here
        points = [f"x{i}" for i in range(300)]
        datum = {
            "points": points,
            "order": [[x, y] for i, x in enumerate(points) for y in points[i + 1:]],
            "sigma": {"0": [], "U": points, "A": points, "B": [], "S": points},
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(datum))
        code, out, _ = within(
            5, lambda: run(capsys, "catalogue-universal", samples["model5"], "--datum", str(path))
        )
        assert code == 0
        assert "[pass] universal.unique" in out


@pytest.mark.parametrize(
    "entry", sample_commands.load_golden(), ids=lambda entry: " ".join(entry["argv"])
)
def test_sample_command_matches_golden(monkeypatch, entry):
    monkeypatch.chdir(ROOT)
    assert sample_commands.run_in_process(entry["argv"]) == entry


def test_golden_lists_every_sample_command():
    assert [entry["argv"] for entry in sample_commands.load_golden()] == sample_commands.argvs()


def _unimodular(rng, n):
    """A seeded unimodular n x n matrix and its inverse, as products of shears."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in u:  # u <- u (1 + c e_ij)
            row[j] += c * row[i]
        inv[i] = [a - c * b for a, b in zip(inv[i], inv[j])]  # inv <- (1 - c e_ij) inv
    return u, inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# torsion of the diagonal entries of a scrambled complex, by (prime, exponent)
_TORSION = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}


def _scrambled_complex(rng, ranks, diagonal_ranks):
    """A complex with ranks[n] in degree n and differentials of rank
    diagonal_ranks[n], each B(n+1) D(n) B(n)^-1 for seeded unimodular B and
    a diagonal D; returns it with its homology, read off the diagonals."""
    bases = [_unimodular(rng, r) for r in ranks]
    diffs = {}
    parts = {n: [] for n in range(len(ranks))}
    for n, r in enumerate(diagonal_ranks):
        into = diagonal_ranks[n - 1] if n else 0  # coordinates hit by D(n-1)
        d = [[0] * ranks[n] for _ in range(ranks[n + 1])]
        for i in range(r):
            entry = rng.choice([1, 1, 2, 3, 4, 5])
            d[i][into + i] = entry
            if entry != 1:
                parts[n + 1].append(Cyclic.torsion(*_TORSION[entry]))
        diffs[n] = _matmul(_matmul(bases[n + 1][0], d), bases[n][1])
    for n, rank in enumerate(ranks):
        hit = diagonal_ranks[n - 1] if n else 0
        leaving = diagonal_ranks[n] if n < len(diagonal_ranks) else 0
        parts[n] += [Cyclic.free(PrimeSet.none())] * (rank - hit - leaving)
    c = PerfectComplex.of(dict(enumerate(ranks)), diffs)
    return c, GradedModule.of(parts)


class TestLargeOrders:
    def test_homology_prints_an_order_past_ten_to_the_4300_as_a_power(self, capsys, tmp_path):
        # the homology in degree 1 is Z/x^2 = Z/2^28000, whose 8429 digits
        # Python refuses to convert to decimal
        x = str(2**14000)
        path = tmp_path / "large.json"
        path.write_text(json.dumps(
            {"ranks": {"0": 2, "1": 2}, "differentials": {"0": [[x, "1"], ["0", x]]}}
        ))
        code, out, _ = within(10, lambda: run(capsys, "homology", str(path)))
        assert (code, out) == (0, "{1: Z/2^28000}\n")
        code, out, _ = within(10, lambda: run(capsys, "--format", "json", "homology", str(path)))
        assert code == 0
        assert json.loads(out)["homology"] == {"1": [{"kind": "torsion", "p": "2", "k": 28000}]}

    def test_tensor_of_a_huge_exponent_prints_without_computing_the_order(self, capsys, tmp_path):
        path = tmp_path / "huge_exponent.json"
        path.write_text(json.dumps({"0": [{"kind": "torsion", "p": "2", "k": "1000000000000"}]}))
        code, out, _ = within(5, lambda: run(capsys, "tensor", str(path), str(path)))
        assert (code, out) == (0, "{-1: Z/2^1000000000000, 0: Z/2^1000000000000}\n")


class TestTensor:
    def test_matches_homology_of_the_total_complex(self, capsys, tmp_path):
        rng = random.Random(8)
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        for _ in range(200):
            (a, _), (b, _) = (randgen.random_complex(rng, max_cells=3) for _ in range(2))
            left.write_text(json.dumps(a.to_json()))
            right.write_text(json.dumps(b.to_json()))
            code, out, _ = run(capsys, "--format", "json", "tensor", str(left), str(right))
            assert code == 0
            assert json.loads(out)["tensor-homology"] == homology(tensor_chain(a, b)).to_json()

    def test_large_complexes_do_not_multiply_out(self, capsys, tmp_path):
        # the total complex of two 9-20-20-9 complexes has ranks up to 962
        rng = random.Random(920)
        paths, expected = [], []
        for name in ("left", "right"):
            c, h = _scrambled_complex(rng, [9, 20, 20, 9], [8, 11, 8])
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(c.to_json()))
            paths.append(str(path))
            expected.append(h)
        code, out, _ = within(5, lambda: run(capsys, "--format", "json", "tensor", *paths))
        assert code == 0
        assert json.loads(out)["tensor-homology"] == kunneth(*expected).to_json()


def _with(data, **changes):
    """data with the given keys replaced, or removed where the value is None."""
    return {key: value for key, value in {**data, **changes}.items() if value is not None}


_MODEL5 = five_object_model().to_json()
# a support datum for the five-object model
_DATUM = {
    "points": ["p", "q"],
    "order": [],
    "sigma": {"0": [], "U": ["p", "q"], "A": ["p"], "B": ["q"], "S": ["p", "q"]},
}


# how each reader is run on a file; "points" has no command, so PointSet.from_json
# is called with the file's JSON and its path
READERS = {
    "complex": ["homology"],
    "module": ["support", "--object"],
    "subset": ["idempotent", "--subset"],
    "points": None,
    "catalogue": ["catalogue-spc"],
    "datum": ["catalogue-universal", str(SAMPLES / "model5.json"), "--datum"],
}

# a command of each family that reads a file, given as the last argument
FILE_COMMANDS = {
    "homology": ["homology"],
    "support": ["support", "--object"],
    "tensor": ["tensor", str(SAMPLES / "mult2_complex.json")],
    "catalogue": ["catalogue-spc"],
    "subset": ["idempotent", "--subset"],
    "datum": READERS["datum"],
}

_ONE = {"0": 1, "1": 1}
_Z2 = {"kind": "torsion", "p": "2", "k": 1}
_TABLE = {name: {"A": "A", "B": "A"} for name in ("A", "B")}

# Every message of the file readers: the reader, the file's JSON, and what
# follows the file's path in the message.
MALFORMED = [
    pytest.param("complex", [1], ": expected an object with 'ranks'", id="complex-list"),
    pytest.param("complex", {"differentials": {}}, ": expected an object with 'ranks'",
                 id="complex-no-ranks"),
    pytest.param("complex", {"ranks": [1]}, ".ranks: expected an object", id="ranks-list"),
    pytest.param("complex", {"ranks": {"x": 1}}, ".ranks.x: expected an integer, got 'x'",
                 id="rank-key"),
    pytest.param("complex", {"ranks": {"0": -1}}, ": rank at degree 0 is negative",
                 id="rank-negative"),
    pytest.param("complex", {"ranks": {"0": 1, "-0": 1}},
                 ".ranks: keys '0' and '-0' both name degree 0", id="rank-aliased"),
    pytest.param("complex", {"ranks": _ONE, "differentials": [[["2"]]]},
                 ".differentials: expected an object", id="differentials-list"),
    pytest.param("complex", {"ranks": _ONE, "differentials": {"x": [["2"]]}},
                 ".differentials.x: expected an integer, got 'x'", id="differential-key"),
    pytest.param("complex", {"ranks": _ONE, "differentials": {"0": [["2"]], "00": [["3"]]}},
                 ".differentials: keys '0' and '00' both name degree 0",
                 id="differential-aliased"),
    pytest.param("complex", {"ranks": _ONE, "differentials": {"0": "2"}},
                 ".differentials.0: expected a list of rows", id="matrix-string"),
    pytest.param("complex", {"ranks": _ONE, "differentials": {"0": [["2"], ["3"]]}},
                 ".differentials.0: expected 1 rows, got 2", id="matrix-rows"),
    pytest.param("complex", {"ranks": _ONE, "differentials": {"0": [["1", "2"]]}},
                 ".differentials.0[0]: expected a row of 1 entries", id="matrix-columns"),
    pytest.param("complex", {"ranks": _ONE, "differentials": {"0": ["2"]}},
                 ".differentials.0[0]: expected a row of 1 entries", id="matrix-row-string"),
    pytest.param("complex", {"ranks": _ONE, "differentials": {"0": [[None]]}},
                 ".differentials.0[0][0]: expected an integer, got None", id="matrix-null"),
    pytest.param("complex", {"ranks": {"0": 1, "1": 1, "2": 1},
                             "differentials": {"0": [["1"]], "1": [["1"]]}},
                 ": d twice is nonzero between degrees 0 and 2", id="d-twice"),
    pytest.param("module", [_Z2], ": expected a degree-keyed object", id="module-list"),
    pytest.param("module", {"x": [_Z2]}, ".x: expected an integer, got 'x'", id="degree-key"),
    pytest.param("module", {"0": [_Z2], "00": [{"kind": "torsion", "p": "3", "k": 1}]},
                 ": keys '0' and '00' both name degree 0", id="degree-aliased"),
    pytest.param("module", {"0": _Z2}, ".0: expected a list of cyclics", id="degree-object"),
    pytest.param("module", {"0": ["Z/2"]}, ".0[0]: expected an object", id="cyclic-string"),
    pytest.param("module", {"0": [{"kind": "cyclic"}]},
                 ".0[0].kind: expected 'free', 'torsion' or 'prufer'", id="cyclic-kind"),
    pytest.param("module", {"0": [{"kind": "torsion", "p": "4", "k": 1}]}, ".0[0]: 4 is not prime",
                 id="torsion-composite"),
    pytest.param("module", {"0": [{"kind": "torsion", "p": "2", "k": 0}]},
                 ".0[0]: torsion exponent must be >= 1", id="torsion-exponent"),
    pytest.param("module", {"0": [{"kind": "torsion", "p": "2"}]},
                 ".0[0].k: expected an integer, got None", id="torsion-no-exponent"),
    pytest.param("module", {"0": [{"kind": "prufer", "primes": {"mode": "finite", "primes": []}}]},
                 ".0[0]: empty prufer family is forbidden; omit the block", id="prufer-empty"),
    pytest.param("module", {"0": [{"kind": "free", "invert": ["2"]}]},
                 ".0[0].invert: expected an object", id="primeset-list"),
    pytest.param("module", {"0": [{"kind": "free", "invert": {"mode": "some"}}]},
                 ".0[0].invert.mode: expected 'finite' or 'cofinite'", id="primeset-mode"),
    pytest.param("module", {"0": [{"kind": "free", "invert": {"mode": "finite", "primes": "2"}}]},
                 ".0[0].invert.primes: expected a list", id="primeset-string"),
    pytest.param("module", {"0": [{"kind": "prufer", "primes": {"mode": "finite",
                                                                 "primes": ["1"]}}]},
                 ".0[0].primes.primes: prime list not strictly increasing at 1",
                 id="primeset-order"),
    pytest.param("module", {"0": [{"kind": "prufer", "primes": {"mode": "cofinite",
                                                                 "primes": ["9"]}}]},
                 ".0[0].primes.primes: 9 is not prime", id="primeset-composite"),
    pytest.param("subset", [], ": expected an object", id="subset-list"),
    pytest.param("subset", {"kind": "open"}, ".kind: expected 'all' or 'closed'",
                 id="subset-kind"),
    pytest.param("subset", {"kind": "closed", "primes": ["2"]}, ".primes: expected an object",
                 id="subset-primes-list"),
    pytest.param("subset", {"kind": "closed", "primes": {"mode": "finite", "primes": ["x"]}},
                 ".primes.primes[0]: expected an integer, got 'x'", id="subset-prime"),
    pytest.param("points", "all", ": expected an object", id="pointset-string"),
    pytest.param("points", {"generic": "yes", "closed": {"mode": "finite", "primes": []}},
                 ".generic: expected a boolean", id="points-generic"),
    pytest.param("points", {"generic": True, "closed": []}, ".closed: expected an object",
                 id="points-closed-list"),
    pytest.param("catalogue", [], ": expected an object", id="catalogue-list"),
    pytest.param("catalogue", _with(_MODEL5, zero=None), ".zero: missing", id="catalogue-no-zero"),
    pytest.param("catalogue", _with(_MODEL5, objects="0UABS"),
                 ".objects: expected a list of object names", id="objects-string"),
    pytest.param("catalogue", _with(_MODEL5, objects=["0", "U", "A", "B", "S", "A"]),
                 ".objects: duplicate names", id="objects-duplicate"),
    pytest.param("catalogue", _with(_MODEL5, shift=[]),
                 ".shift: expected an object", id="shift-list"),
    pytest.param("catalogue", _with(_MODEL5, tensor=[]),
                 ".tensor: expected an object", id="tensor-list"),
    pytest.param("catalogue", _with(_MODEL5, tensor={**_MODEL5["tensor"], "A": ["0"]}),
                 ".tensor.A: expected an object", id="tensor-row-list"),
    pytest.param("catalogue", _with(_MODEL5, summands=[["S", "A"], ["U"]]),
                 ".summands[1]: expected a pair of object names", id="summand-single"),
    pytest.param("catalogue", _with(_MODEL5, summands="SA"), ".summands: expected a list",
                 id="summands-string"),
    pytest.param("catalogue", _with(_MODEL5, triangles=[["A", "S"]]),
                 ".triangles[0]: expected a triple of object names", id="triangle-pair"),
    pytest.param("catalogue", _with(_MODEL5, zero="Z"),
                 ".zero: unknown object 'Z'", id="zero-unknown"),
    pytest.param("catalogue", {"objects": ["A", "B"], "zero": "A", "unit": "B", "tensor": _TABLE},
                 ".tensor: unit not neutral at B", id="tensor-unit"),
    pytest.param("datum", [], ": expected an object", id="datum-list"),
    pytest.param("datum", _with(_DATUM, points=None),
                 ": malformed datum ('points')", id="no-points"),
    pytest.param("datum", _with(_DATUM, points="pq"), ": points: expected a list of point names",
                 id="datum-points-string"),
    pytest.param("datum", _with(_DATUM, order=[["p", "q"], ["p", "q", "p"]]),
                 ": order[1]: expected a pair of point names", id="order-triple"),
    pytest.param("datum", _with(_DATUM, order=[["p", "r"]]),
                 ": order: unknown point in pair (p, r)", id="order-unknown"),
    pytest.param("datum",
                 _with(_DATUM, sigma={"0": [], "U": "pq", "A": ["p"], "B": ["q"], "S": ["p"]}),
                 ": sigma.U: expected a list of point names", id="sigma-string"),
    pytest.param("datum", _with(_DATUM, sigma=[["p"], ["q"]]), ": sigma: expected an object",
                 id="sigma-list"),
    pytest.param("datum", _with(_DATUM, sigma={"0": [], "U": ["p", "q"], "A": ["p"], "B": ["q"]}),
                 ": sigma missing object 'S'", id="sigma-missing"),
    pytest.param("datum", _with(_DATUM, sigma={"0": [], "U": ["p"], "A": ["r"], "B": [], "S": []}),
                 ": sigma[2]: r is not a point of the space", id="sigma-unknown"),
    pytest.param("datum", _with(_DATUM, order=[["p", "q"]],
                                sigma={"0": [], "U": ["p"], "A": [], "B": [], "S": []}),
                 ": sigma[1]: value is not specialisation closed", id="sigma-not-closed"),
]


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "homology", "/nonexistent/c.json")
        assert code == 2
        assert "no such file" in err

    def test_json_location(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"ranks": {,}}')
        code, _, err = run(capsys, "homology", str(path))
        assert code == 2
        assert ":1:" in err  # line:column of the parse failure

    def test_schema_violation_located(self, capsys, samples):
        code, _, err = run(capsys, "homology", samples["bad"])
        assert code == 2
        assert "differentials.0" in err
        assert "expected" in err

    def test_conflicting_subset_flags(self, capsys):
        code, _, err = run(capsys, "triangle-check", "--all", "--closed", "2")
        assert code == 2
        assert "exactly one" in err

    def test_bad_point(self, capsys):
        code, _, err = run(capsys, "idempotent", "--point", "6")
        assert code == 2
        assert "prime" in err

    @pytest.mark.parametrize(
        "block, location",
        [
            ({"kind": "torsion", "p": str(BEYOND_PROVEN), "k": 1}, ".0[1]"),
            ({"kind": "free", "invert": {"mode": "finite", "primes": [str(BEYOND_PROVEN)]}},
             ".0[1].invert.primes"),
        ],
    )
    def test_prime_beyond_proven_bound_is_rejected(self, capsys, tmp_path, block, location):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"0": [{"kind": "torsion", "p": "2", "k": 1}, block]}))
        code, _, err = within(5, lambda: run(capsys, "support", "--object", str(path)))
        assert code == 2
        assert f"{path}{location}: " in err
        assert str(_MR_PROVEN_BOUND) in err

    @pytest.mark.parametrize(
        "command, payload, location",
        [
            (["homology"], {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [[3.7]]}},
             ".differentials.0[0][0]"),
            (["homology"], {"ranks": {"0": 1.9}}, ".ranks.0"),
            (["support", "--object"], {"0": [{"kind": "torsion", "p": 2.9, "k": 1}]}, ".0[0].p"),
            (["support", "--object"],
             {"0": [{"kind": "free", "invert": {"mode": "finite", "primes": [2.5]}}]},
             ".0[0].invert.primes[0]"),
            (["homology"], {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [["1_000"]]}},
             ".differentials.0[0][0]"),
            (["homology"], {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [[True]]}},
             ".differentials.0[0][0]"),
            (["support", "--object"], {"0": [{"kind": "torsion", "p": True, "k": 1}]}, ".0[0].p"),
        ],
        ids=["float-entry", "float-rank", "float-p", "float-prime", "underscores", "bool-entry",
             "bool-p"],
    )
    def test_inexact_numbers_are_rejected(self, capsys, tmp_path, command, payload, location):
        # a float, a bool or a string int() would stretch to fit is not an integer
        path = tmp_path / "inexact.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, *command, str(path))
        assert code == 2
        assert out == ""
        assert f"{path}{location}: expected an integer, got " in err

    def test_rank_beyond_the_bound_is_rejected(self, capsys, tmp_path):
        # 43 bytes that once ran for minutes, printing one entry per unit of rank
        path = tmp_path / "huge_ranks.json"
        path.write_text('{"ranks": {"0": 100000000, "1": 100000000}}')
        code, out, err = within(5, lambda: run(capsys, "--format", "json", "homology", str(path)))
        assert code == 2
        assert out == ""
        assert err == (
            f"input error: {path}.ranks.0: total rank 100000000 exceeds the bound {MAX_RANK}\n"
        )

    @pytest.mark.parametrize(
        "command", [["homology"], ["support", "--object"]], ids=["homology", "support"]
    )
    def test_total_rank_at_the_bound_runs_and_past_it_exits_2(self, capsys, tmp_path, command):
        half = MAX_RANK // 2
        path = tmp_path / "ranks.json"
        path.write_text(json.dumps({"ranks": {"0": half, "1": MAX_RANK - half}}))
        code, out, _ = within(10, lambda: run(capsys, "--format", "json", *command, str(path)))
        assert code == 0
        assert json.loads(out)
        path.write_text(json.dumps({"ranks": {"0": half, "1": MAX_RANK - half + 1}}))
        code, out, err = within(5, lambda: run(capsys, *command, str(path)))
        assert code == 2
        assert out == ""
        assert f"{path}.ranks.1: total rank {MAX_RANK + 1} exceeds the bound {MAX_RANK}" in err
        # the bound is on files only: complexes built in the program may be larger
        assert PerfectComplex.of({0: MAX_RANK + 1}).rank(0) == MAX_RANK + 1

    @pytest.mark.parametrize(
        "command",
        [
            ["homology"],
            ["support", "--object"],
            ["ltg", "--object"],
            ["tensor", str(SAMPLES / "mult2_complex.json")],
        ],
        ids=["homology", "support", "ltg", "tensor"],
    )
    def test_homology_with_torsion_beyond_proven_bound_is_rejected(
        self, capsys, tmp_path, command
    ):
        path = tmp_path / "huge_complex.json"
        path.write_text(json.dumps(
            {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [[str(BEYOND_PROVEN)]]}}
        ))
        code, _, err = within(5, lambda: run(capsys, *command, str(path)))
        assert code == 2
        assert err.startswith(f"input error: {path}: homology: ")
        assert str(_MR_PROVEN_BOUND) in err

    def test_homology_beyond_the_factoring_budget_is_rejected(self, capsys, tmp_path):
        # a 140-bit product of two 70-bit primes, too hard for rho's budget
        rng = random.Random(70)
        p, q = (sympy.nextprime(rng.randrange(2**69, 2**70)) for _ in range(2))
        path = tmp_path / "semiprime_complex.json"
        path.write_text(json.dumps(
            {"ranks": {"0": 1, "1": 1}, "differentials": {"0": [[str(p * q)]]}}
        ))
        code, _, err = within(30, lambda: run(capsys, "homology", str(path)))
        assert code == 2
        assert f"{path}: homology: cannot factor {p * q}" in err
        assert f"budget of {znum._RHO_BUDGET} steps" in err

    def test_point_beyond_proven_bound_is_rejected(self, capsys):
        code, _, err = within(5, lambda: run(capsys, "idempotent", "--point", str(BEYOND_PROVEN)))
        assert code == 2
        assert str(_MR_PROVEN_BOUND) in err

    @pytest.mark.parametrize(
        "argv, flag, limit",
        [
            (["verify", "--cases", "-8"], "--cases", f"at least {MIN_CASES}"),
            (["verify", "--cases", str(MIN_CASES - 1)], "--cases", f"at least {MIN_CASES}"),
            (["verify", "--primes-bound", "1"], "--primes-bound", f"[2, {MAX_PRIMES_BOUND}]"),
            (["verify", "--primes-bound", "1000000000"], "--primes-bound",
             f"[2, {MAX_PRIMES_BOUND}]"),
            (["prime", "--closed-except", "5", "--primes-bound", "1000000000"], "--primes-bound",
             f"[2, {MAX_PRIMES_BOUND}]"),
        ],
        ids=["cases-negative", "cases-too-few", "verify-bound-low", "verify-bound-high",
             "prime-bound-high"],
    )
    def test_out_of_range_sizes_are_rejected(self, capsys, argv, flag, limit):
        with pytest.raises(SystemExit) as caught:
            within(5, lambda: main(argv))
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err
        assert limit in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["prime", "--point", "1_3"], "--point: expected an integer, got '1_3'"),
            (["prime", "--point", "\u0663"], "--point: expected an integer, got '\u0663'"),
            (["idempotent", "--point", " 3"], "--point: expected an integer, got ' 3'"),
            (["prime", "--closed", "2,1_3"], "--closed: expected an integer, got '1_3'"),
            (["prime", "--closed-except", "\u0663"],
             "--closed-except: expected an integer, got '\u0663'"),
            (["triangle-check", "--closed", "2;3"], "--closed: expected an integer, got '2;3'"),
        ],
        ids=["point-underscore", "point-arabic-indic", "point-space", "closed-underscore",
             "closed-except-arabic-indic", "closed-semicolon"],
    )
    def test_integer_arguments_follow_the_decimal_rule(self, capsys, argv, message):
        # int() reads all of these
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert f"input error: {message}" in err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (["verify", "--seed", "1_0", "--cases", "10"], "--seed", "1_0"),
            (["verify", "--cases", "1_0"], "--cases", "1_0"),
            (["verify", "--seed", "\u0663"], "--seed", "\u0663"),
            (["verify", "--primes-bound", " 30"], "--primes-bound", " 30"),
            (["prime", "--closed-except", "5", "--primes-bound", "1_00"], "--primes-bound", "1_00"),
        ],
        ids=["seed-underscore", "cases-underscore", "seed-arabic-indic", "bound-space",
             "prime-bound-underscore"],
    )
    def test_size_arguments_follow_the_decimal_rule(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as caught:
            within(5, lambda: main(argv))
        assert caught.value.code == 2
        assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err

    def test_prime_lists_allow_spaces_around_items(self, capsys):
        assert run(capsys, "prime", "--closed", " 2, 3 ,") == run(capsys, "prime", "--closed", "2,3")
        assert run(capsys, "prime", "--closed-except", "+5") == run(
            capsys, "prime", "--closed-except", "5"
        )

    @pytest.mark.parametrize("command", FILE_COMMANDS.values(), ids=FILE_COMMANDS.keys())
    def test_a_file_that_is_not_utf8_is_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"caf\xe9": 1}'.encode("latin-1"))
        code, out, err = run(capsys, *command, str(path))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: not UTF-8 (byte 5: invalid continuation byte)\n"

    @pytest.mark.parametrize("command", FILE_COMMANDS.values(), ids=FILE_COMMANDS.keys())
    def test_a_path_that_is_not_a_readable_file_is_rejected(self, capsys, tmp_path, command):
        # as root a file without permissions can still be read, so this
        # takes a directory, the other OSError that open() raises
        code, out, err = run(capsys, *command, str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"input error: {tmp_path}: cannot read (Is a directory)\n"

    @pytest.mark.parametrize("command", FILE_COMMANDS.values(), ids=FILE_COMMANDS.keys())
    def test_json_nested_past_the_recursion_limit_is_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = within(5, lambda: run(capsys, *command, str(path)))
        assert (code, out) == (2, "")
        assert err == f"input error: {path}: nested too deeply\n"

    @pytest.mark.parametrize("reader, payload, message", MALFORMED)
    def test_malformed_input_is_rejected(self, capsys, tmp_path, reader, payload, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        if READERS[reader] is None:
            with pytest.raises(ValueError) as caught:
                znum.PointSet.from_json(payload, str(path))
            assert str(caught.value) == f"{path}{message}"
            return
        code, out, err = run(capsys, *READERS[reader], str(path))
        assert code == 2
        assert out == ""
        assert err == f"input error: {path}{message}\n"

    def test_primes_bound_at_the_limit_runs(self, capsys):
        code, out, _ = within(
            10,
            lambda: run(capsys, "prime", "--closed-except", "5", "--primes-bound",
                        str(MAX_PRIMES_BOUND)),
        )
        assert code == 0
        assert "point: (5)" in out


# each sample file and commands that read it; the mutated copy takes the place of {}
FUZZED_RUNS = [
    ("mult2_complex.json", ["homology", "{}"]),
    ("mult3_complex.json", ["tensor", str(SAMPLES / "mult2_complex.json"), "{}"]),
    ("torsion_object.json", ["support", "--object", "{}"]),
    ("torsion_object.json", ["ltg", "--object", "{}"]),
    ("torsion_object.json", ["tensor", "{}", str(SAMPLES / "torsion_object.json")]),
    ("rationals.json", ["classify", "--objects", str(SAMPLES / "torsion_object.json"), "{}"]),
    ("subset_closed_2.json", ["idempotent", "--subset", "{}"]),
    ("subset_closed_2.json", ["prime", "--subset", "{}"]),
    ("subset_closed_2.json", ["triangle-check", "--subset", "{}"]),
    ("model5.json", ["catalogue-spc", "{}"]),
    ("model5.json", ["catalogue-universal", "{}"]),
    ("nilpotent24.json", ["catalogue-spc", "{}"]),
    ("model5_datum.json", ["catalogue-universal", str(SAMPLES / "model5.json"), "--datum", "{}"]),
]
# what replaces a value: a float, a bool, null, a nested list, huge and
# negative numbers, a decimal past int()'s digit limit, and empty containers
FUZZ_VALUES = [1.5, True, None, [[["2"]]], 10**40, "1" + "0" * 40, -7, "-7", "9" * 5000, "x",
               {}, []]


def _nodes(value, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, (*path, i))


def _mutated(doc, path, how, value):
    """A copy of doc whose value at path is replaced by value or deleted, or
    whose container holding it gains an extra item (value) or, where its key
    is a decimal, a second key naming the same integer ("0" and "00") with
    the same value."""
    doc = copy.deepcopy(doc)
    if not path:
        return value if how == "replace" else doc
    *head, last = path
    parent = doc
    for step in head:
        parent = parent[step]
    if how == "replace":
        parent[last] = value
    elif how == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.append(value)
    elif how == "extra key":
        parent["extra"] = value
    elif re.fullmatch(r"-?[0-9]+", last):
        parent[re.sub(r"^(-?)", r"\g<1>0", last)] = parent[last]
    return doc


@settings(max_examples=250, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_sample_files_exit_0_1_or_2(capsys, tmp_path, data):
    name, argv = data.draw(st.sampled_from(FUZZED_RUNS))
    doc = json.loads((SAMPLES / name).read_text())
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    how = data.draw(st.sampled_from(["replace", "delete", "extra key", "aliased key"]))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    target = tmp_path / name
    target.write_text(json.dumps(_mutated(doc, path, how, value)))
    code, _, err = within(5, lambda: run(capsys, *[str(target) if a == "{}" else a for a in argv]))
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("input error: ")


class TestParserReuse:
    """main() builds its parser once per process; the calls that share it
    must not see each other's arguments."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = f"SystemExit({exc.code})"
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_shared_parser_matches_a_fresh_one(self, capsys, samples):
        argvs = [
            ["--format", "json", "homology", samples["mult2"]],
            ["homology", samples["mult3"]],
            ["homology", samples["bad"]],
            ["homology"],
            ["--format", "json", "tensor", samples["mult2"], samples["mult3"]],
            ["prime", "--point", "3"],
            ["prime", "--closed-except", "2"],
        ]
        shared = [self.outcome(capsys, argv) for argv in argvs]
        assert build_parser() is build_parser()
        fresh = []
        for argv in argvs:
            build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, "SystemExit(2)", 0, 0, 0]
        json.loads(shared[0][1])
        assert shared[1][1] == "{1: Z/3}\n"  # --format json did not stick
        assert "point: (2)" in shared[6][1]  # nor did --point 3
        assert "differentials.0" in shared[2][2]
        assert "usage:" in shared[3][2]


def test_importing_the_cli_loads_no_sympy():
    # sympy is a test oracle only; the runtime needs nothing beyond Python
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, ttsupport.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'mpmath')))",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses, with the inspect, ast and dis it imports, took a quarter
    # of the package's import; checked in a fresh process, as pytest has
    # loaded them all
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "import_guard.py")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"({ROOT / 'src' / 'ttsupport' / 'cli.py'})" in proc.stdout


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "3", "--cases", "40", "--primes-bound", "30")
        assert code == 0
        assert "0 failed" in out

    def test_fewest_cases_run_every_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--cases", str(MIN_CASES), "--primes-bound", "30")
        assert code == 0
        assert " (0 cases)" not in out

    def test_byte_identical_across_processes(self, tmp_path):
        env = dict(os.environ)
        outs = []
        for hash_seed in ("1", "7331"):
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "ttsupport",
                    "verify",
                    "--seed",
                    "5",
                    "--cases",
                    "30",
                    "--primes-bound",
                    "30",
                ],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_matches_committed_snapshot(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--seed", "42", "--cases", "60", "--primes-bound", "50"
        )
        assert code == 0
        assert out.encode("utf-8") == GOLDEN_VERIFY.read_bytes()

    def test_matches_committed_snapshot_at_default_sizes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "42")
        assert code == 0
        assert out.encode("utf-8") == GOLDEN_VERIFY_DEFAULT.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "verify", "--seed", "3", "--cases", "20",
            "--primes-bound", "20",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 24


@pytest.fixture(params=["model5", "random"])
def catalogue_path(request, tmp_path):
    if request.param == "model5":
        return str(SAMPLES / "model5.json")
    path = tmp_path / "random.json"
    cat = supportdata.random_subset_catalogue(random.Random(7), 12)
    path.write_text(json.dumps(cat.to_json()))
    return str(path)


@pytest.fixture()
def enumerations(monkeypatch):
    """Catalogues passed to supportdata.enumerate_ideals, one per call."""
    calls = []
    real = supportdata.enumerate_ideals

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(supportdata, "enumerate_ideals", counted)
    return calls


def _spectrum_datum_file(catalogue_path, tmp_path):
    """The catalogue's spectrum written as a --datum file, points named p0, p1, ..."""
    with open(catalogue_path, encoding="utf-8") as fh:
        cat = supportdata.Catalogue.from_json(json.load(fh))
    spc = supportdata.spc_support(cat)
    points = spc.space.points
    name = {p: f"p{k}" for k, p in enumerate(points)}
    datum = {
        "points": list(name.values()),
        "order": [
            [name[x], name[y]]
            for x, above in zip(points, spc.space.up)
            for j, y in enumerate(points)
            if above >> j & 1 and y != x
        ],
        "sigma": {obj: sorted(name[p] for p in spc.sigma[i]) for i, obj in enumerate(cat.objects)},
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    return str(path)


class TestEnumerationCounts:
    def test_catalogue_spc_enumerates_once(self, capsys, catalogue_path, enumerations):
        code, _, _ = run(capsys, "catalogue-spc", catalogue_path)
        assert code == 0
        assert len(enumerations) == 1

    @pytest.mark.parametrize("with_datum", [False, True], ids=["spectrum", "datum"])
    def test_catalogue_universal_enumerates_once(
        self, capsys, tmp_path, catalogue_path, enumerations, with_datum
    ):
        argv = ["catalogue-universal", catalogue_path]
        if with_datum:
            argv += ["--datum", _spectrum_datum_file(catalogue_path, tmp_path)]
            enumerations.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "[pass] universal.unique" in out
        assert len(enumerations) == 1

    def test_classify_enumerates_once(self, catalogue_path, enumerations):
        with open(catalogue_path, encoding="utf-8") as fh:
            cat = supportdata.Catalogue.from_json(json.load(fh))
        assert supportdata.classify(cat).passed
        assert len(enumerations) == 1

    def test_verify_catalogue_checks(self, enumerations):
        # model5 and each random catalogue: one lattice for the ideals, the
        # spectrum, the axioms, the universal map and classify
        ctx = verify.VerifyContext(42, 500, 100)
        assert verify.check_model5(ctx).passed
        assert len(enumerations) == 1
        enumerations.clear()
        assert verify.check_random_catalogues(ctx).passed
        assert list(Counter(map(id, enumerations)).values()) == [1] * 5

    def test_one_lattice_for_every_consumer(self, enumerations):
        cat = supportdata.random_subset_catalogue(random.Random(7), 12)
        spc = supportdata.spc_support(cat)
        assert supportdata.enumerate_primes(cat) == list(spc.space.points)
        assert supportdata.check_axioms(spc, cat).passed
        assert supportdata.universal_map(spc, cat).report.passed
        assert supportdata.classify(cat).passed
        assert supportdata.spc_support(cat) is spc
        assert enumerations == [cat]
