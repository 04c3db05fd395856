import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
import sympy

import sample_commands
from deadline import within
from ttsupport import balmer, randgen, supportdata, verify, znum
from ttsupport.balmer import supp_object
from ttsupport.cli import MAX_PRIMES_BOUND, MIN_CASES, build_parser, main
from ttsupport.homalg import PerfectComplex, homology, tensor_chain
from ttsupport.modcalc import Cyclic, GradedModule, kunneth
from ttsupport.supportdata import five_object_model
from ttsupport.znum import _MR_PROVEN_BOUND, PrimeSet, SpclSubset, primes_up_to

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_VERIFY = ROOT / "tests" / "golden" / "verify_seed42_cases60_primes50.txt"
# the first prime past the bound of the proven primality test
BEYOND_PROVEN = sympy.nextprime(_MR_PROVEN_BOUND)
GOLDEN_VERIFY_DEFAULT = ROOT / "tests" / "golden" / "verify_seed42_cases500_primes100.txt"


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

    @pytest.mark.parametrize(
        "key, value, location",
        [
            ("sigma", {"0": [], "U": "pq", "A": ["p"], "B": ["q"], "S": ["p", "q"]},
             "sigma.U: expected a list of point names"),
            ("order", [["p", "q"], ["p", "q", "p"]], "order[1]: expected a pair of point names"),
            ("points", "pq", "points: expected a list of point names"),
        ],
        ids=["sigma-string", "order-triple", "points-string"],
    )
    def test_catalogue_universal_rejects_a_malformed_datum(
        self, capsys, samples, tmp_path, key, value, location
    ):
        datum = {
            "points": ["p", "q"],
            "order": [],
            "sigma": {"0": [], "U": ["p", "q"], "A": ["p"], "B": ["q"], "S": ["p", "q"]},
            key: value,
        }
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        code, out, err = run(
            capsys, "catalogue-universal", samples["model5"], "--datum", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == f"input error: {path}: {location}\n"

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
        "command",
        [
            ["homology"],
            ["support", "--object"],
            ["ltg", "--object"],
            ["tensor", str(ROOT / "samples" / "mult2_complex.json")],
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
        "key, value, location",
        [
            ("shift", [], "shift: expected an object"),
            ("tensor", [], "tensor: expected an object"),
            ("summands", [["S", "A"], ["U"]], "summands[1]: expected a pair of object names"),
            ("summands", "SA", "summands: expected a list"),
            ("triangles", [["A", "S"]], "triangles[0]: expected a triple of object names"),
        ],
        ids=["shift-list", "tensor-list", "summand-single", "summands-string",
             "triangle-pair"],
    )
    def test_malformed_catalogue_is_rejected(self, capsys, tmp_path, key, value, location):
        data = five_object_model().to_json()
        data[key] = value
        path = tmp_path / "catalogue.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "catalogue-spc", str(path))
        assert code == 2
        assert out == ""
        assert err == f"input error: {path}.{location}\n"

    def test_primes_bound_at_the_limit_runs(self, capsys):
        code, out, _ = within(
            10,
            lambda: run(capsys, "prime", "--closed-except", "5", "--primes-bound",
                        str(MAX_PRIMES_BOUND)),
        )
        assert code == 0
        assert "point: (5)" in out


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

    @pytest.mark.parametrize("probe", ["thick_membership", "tau_loc"])
    def test_sigma_tau_fails_on_a_wrong_membership_probe(self, capsys, monkeypatch, probe):
        monkeypatch.setattr(balmer, probe, lambda *args: True)
        code, out, _ = run(
            capsys, "--format", "json", "verify", "--cases", str(MIN_CASES), "--primes-bound", "30"
        )
        assert code == 1
        failed = [c["name"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert failed == ["17.balmer.sigma-tau-roundtrips"]

    def test_supp_agreement_fails_when_homology_drops_torsion(self, monkeypatch):
        # supp_object and the pointwise probes both read the wrong homology,
        # so only the support of the homology known from the cells can tell
        real = verify.homology

        def torsion_free(c):
            h = real(c)
            return GradedModule.of(
                {n: [b for b in h.module_in(n).cyclics() if b.kind != "torsion"] for n in h.degrees()}
            )

        monkeypatch.setattr(verify, "homology", torsion_free)
        record = verify.check_supp_agreement(verify.VerifyContext(42, MIN_CASES, 30))
        assert not record.passed
        assert record.detail.startswith("abstract vs homological support differ")

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
        return str(ROOT / "samples" / "model5.json")
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
        # model5: the spectrum and classify; each random catalogue: its
        # ideals, the spectrum and classify
        ctx = verify.VerifyContext(42, 500, 100)
        assert verify.check_model5(ctx).passed
        assert len(enumerations) == 2
        enumerations.clear()
        assert verify.check_random_catalogues(ctx).passed
        assert list(Counter(map(id, enumerations)).values()) == [3] * 5
