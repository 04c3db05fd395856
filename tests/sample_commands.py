"""The sample commands of the README, pinned by a committed golden file.

Each command runs in both output formats from the repository root; the
golden file records its argv, exit code and stdout, and its stderr when the
exit code is not 0.  ``tests/test_cli.py`` replays them in-process through
``ttsupport.cli.main``.  Run as a script, this module replays them through
an installed executable, which checks an install that has nothing beyond
the standard library:

    python tests/sample_commands.py ttsupport          # exit 1 on any difference
    python tests/sample_commands.py --write ttsupport  # regenerate the golden file

The script needs only the standard library.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "sample_commands.json"

COMMANDS = [
    ["homology", "samples/mult2_complex.json"],
    ["homology", "samples/mult3_complex.json"],
    ["tensor", "samples/mult2_complex.json", "samples/mult3_complex.json"],
    ["tensor", "samples/torsion_object.json", "samples/torsion_object.json"],
    ["tensor", "samples/mult2_complex.json", "samples/torsion_object.json"],
    ["support", "--object", "samples/torsion_object.json"],
    ["idempotent", "--point", "2"],
    ["idempotent", "--closed-except", "2", "--flavor", "l"],
    ["idempotent", "--subset", "samples/subset_closed_2.json"],
    ["triangle-check", "--closed", "2"],
    ["ltg", "--object", "samples/torsion_object.json"],
    ["classify", "--objects", "samples/torsion_object.json", "samples/rationals.json"],
    ["prime", "--point", "generic"],
    ["prime", "--closed-except", "5"],
    ["prime", "--closed", "2,3"],
    ["catalogue-spc", "samples/model5.json"],
    ["catalogue-universal", "samples/model5.json"],
    ["catalogue-universal", "samples/model5.json", "--datum", "samples/model5_datum.json"],
    ["catalogue-spc", "samples/nilpotent24.json"],
    ["catalogue-universal", "samples/model5.json", "--datum", "samples/model5_bad_datum.json"],
]


def argvs() -> list[list[str]]:
    return [["--format", fmt, *cmd] for cmd in COMMANDS for fmt in ("human", "json")]


def record(argv: list[str], code: int, out: str, err: str) -> dict:
    entry = {"argv": argv, "exit": code, "stdout": out}
    if code != 0:
        entry["stderr"] = err
    return entry


def run_in_process(argv: list[str]) -> dict:
    """One command through ``ttsupport.cli.main``; the caller sets the
    working directory to the repository root."""
    from ttsupport.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return record(argv, code, out.getvalue(), err.getvalue())


def run_executable(executable: str, argv: list[str]) -> dict:
    done = subprocess.run(
        [executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    return record(argv, done.returncode, done.stdout, done.stderr)


def load_golden() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def main(args: list[str]) -> int:
    write = args[:1] == ["--write"]
    if write:
        args = args[1:]
    if len(args) != 1:
        print("usage: sample_commands.py [--write] EXECUTABLE", file=sys.stderr)
        return 2
    got = [run_executable(args[0], argv) for argv in argvs()]
    if write:
        GOLDEN.write_text(json.dumps(got, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} commands to {GOLDEN}")
        return 0
    want = load_golden()
    bad = [g["argv"] for g, w in zip(got, want) if g != w]
    if len(got) != len(want):
        bad.append(f"{len(got)} commands against {len(want)} in the golden file")
    for argv in bad:
        print(f"differs: {argv}", file=sys.stderr)
    print(f"{len(got) - len(bad)} of {len(want)} sample commands match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
