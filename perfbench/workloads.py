"""The benchmark's workloads: how each op is generated, run and checked.

Op i of a workload is a pure function of (workload, seed, i), so the same
seed gives the same inputs.  Inputs are written as JSON files in the README
formats before the op starts; an op's timed part is only the call into the
program, and its check compares the output with the oracle afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import catalogues
import complexes


@dataclass
class Op:
    call: Callable[[], object]
    check: Callable[[object], list[str]]  # problems with the call's result; [] if right


class Cli:
    """Runs ``ttsupport.cli.main`` in-process and captures what it prints."""

    def __init__(self, tt) -> None:
        self.tt = tt
        self.out_bytes = 0

    def __call__(self, *argv: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.tt.cli.main(["--format", "json", *argv])
            except SystemExit as exc:
                code = exc.code
        text = buf.getvalue()
        self.out_bytes += len(text.encode())
        return code, text


def expect_json(result: tuple[int, str], want: dict) -> list[str]:
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    return [] if got == want else [f"output {text[:200]!r} differs from the oracle"]


class Workload:
    name = ""
    deadline_s = 0.0  # a missed deadline fails the op
    cycle = 1  # ops whose sizes repeat; timed phases end on a whole cycle
    trace_ops = 0  # ops in one round of a traced run

    def __init__(self, tt, seed: int, workdir: str) -> None:
        self.tt, self.seed, self.workdir = tt, seed, workdir
        self.cli = Cli(tt)

    def rng(self, i: int | str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def write(self, name: str, data: dict) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def op(self, i: int | str) -> Op:
        raise NotImplementedError


class VerifySuite(Workload):
    """`ttsupport verify --seed s` at the CLI defaults; every record must pass."""

    name = "verify-suite"
    deadline_s = 30.0
    trace_ops = 2

    def op(self, i):
        s = self.rng(i).randrange(1 << 31)

        def check(result):
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            got = json.loads(text)
            problems = []
            if (got.get("seed"), got.get("cases"), got.get("primes_bound")) != (s, 500, 100):
                problems.append("seed, cases or primes_bound not echoed")
            checks = got.get("checks") or []
            bad = [c.get("name") for c in checks if c.get("status") != "pass"]
            if not checks or bad or got.get("passed") is not True:
                problems.append(f"records not all passing: {bad}")
            return problems

        return Op(lambda: self.cli("verify", "--seed", str(s)), check)


# Sizes at which no op comes near its deadline at the seed commit (the slowest
# seen took under 0.1 s); Smith form with transforms blows up first, so its
# matrices are the smallest.
HOMOLOGY_SHAPE = ([1, 2, 2, 1], [8, 10, 8], [3, 4, 3])  # ranks 9, 20, 20, 9
TENSOR_SHAPE = ([1, 1, 1], [5, 5], [2, 3])  # ranks 6, 11, 6; tensored 6, 17, 17, 6
SNF_SHAPE = ([1, 1], [12], [3])  # one 13 x 13 differential of rank 12
KOSZUL_PARAMETERS = (2, 3, 4, 6, 12)


class DenseHomology(Workload):
    """Scrambled complexes; ops cycle homology, tensor with a Koszul complex,
    and library snf with transforms."""

    name = "dense-homology"
    deadline_s = 10.0
    cycle = 3
    trace_ops = 60

    def op(self, i):
        rng = self.rng(i)
        kind = i % 3 if isinstance(i, int) else 0
        if kind == 0:
            spec = complexes.random_complex(rng, *HOMOLOGY_SHAPE)
            path = self.write("complex.json", spec.to_json())
            want = {"homology": complexes.graded_json(complexes.homology_groups(spec))}
            return Op(lambda: self.cli("homology", path), lambda r: expect_json(r, want))
        if kind == 1:
            spec = complexes.random_complex(rng, *TENSOR_SHAPE)
            m = rng.choice(KOSZUL_PARAMETERS)
            path = self.write("complex.json", spec.to_json())
            koszul = self.write("koszul.json", complexes.koszul_json(m))
            groups = complexes.tensor_koszul_groups(complexes.homology_groups(spec), m)
            want = {"tensor-homology": complexes.graded_json(groups)}
            return Op(lambda: self.cli("tensor", path, koszul), lambda r: expect_json(r, want))
        spec = complexes.random_complex(rng, *SNF_SHAPE)
        matrix = self.tt.IntMatrix.of(spec.diffs[0])

        def check(res):
            return complexes.snf_problems(
                spec.diffs[0], spec.chains[0], res.u.entries, res.d.entries, res.v.entries,
                res.invariant_factors,
            )

        return Op(lambda: self.tt.snf(matrix), check)


# One cycle of catalogue sizes.  Sorted by cost, 12 objects fill the 20-70%
# range and 16 objects the top 20%, so op_p50_ms and op_p90_ms each fall inside
# one size rather than on a boundary between two.
CATALOGUE_SIZES = (16, 10, 12, 12, 14, 16, 11, 12, 12, 12)


class CatalogueSpectra(Workload):
    """catalogue-spc, catalogue-universal, then library classify, on up-set
    lattices of random posets."""

    name = "catalogue-spectra"
    deadline_s = 20.0
    cycle = len(CATALOGUE_SIZES)
    trace_ops = len(CATALOGUE_SIZES)

    def op(self, i):
        size = CATALOGUE_SIZES[i % len(CATALOGUE_SIZES)] if isinstance(i, int) else min(CATALOGUE_SIZES)
        spec = catalogues.random_catalogue(self.rng(i), size)
        path = self.write("catalogue.json", spec.to_json())

        def call():
            spc = self.cli("catalogue-spc", path)
            universal = self.cli("catalogue-universal", path)
            with open(path, encoding="utf-8") as fh:
                report = self.tt.classify(self.tt.Catalogue.from_json(json.load(fh)))
            return spc, universal, report

        def check(result):
            spc, universal, report = result
            problems = expect_json(spc, spec.expected_spc())
            problems += expect_json(universal, spec.expected_universal())
            records = tuple((r.name, r.passed) for r in report.records)
            if records != tuple((x, True) for x in catalogues.EXPECTED_CLASSIFY):
                problems.append(f"classify records {records}")
            return problems

        return Op(call, check)


WORKLOADS = {w.name: w for w in (VerifySuite, DenseHomology, CatalogueSpectra)}
