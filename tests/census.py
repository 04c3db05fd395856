"""Every statement of the package must run in some tier-1 test.

    PYTHONPATH=src python tests/census.py    # exit 1 naming each file:line

It runs the tier-1 suite in this process under ``sys.settrace`` (and
``threading.settrace`` for threads the tests start), takes every statement
of ``src/ttsupport`` from ``ast``, docstrings left out, and reports each one
that no test ran.  A statement that no input can reach is deleted, and one
that an input can reach gets a test; ALLOWED names the few that stay unrun,
by module and source text, each under its reason.  An entry of ALLOWED whose
statement now runs, or no longer exists, fails the census too, so the list
can only shrink.  Statements run in a child process are not seen, so the
tests run the entry points in-process; ALLOWED names the body of verify's
forked helper, which runs in its child alone.  The script needs only the
standard library and pytest; under tracing the suite takes about 3.5 times
as long.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ttsupport"

# reason -> (module, source text) of each statement that may stay unrun; a
# text listed n times covers n statements of that module
ALLOWED: dict[str, list[tuple[str, str]]] = {
    "an internal check of a Smith form, which no input can fail": [
        ("homalg", "raise AssertionError('smith normal form internal check failed')"),
        ("homalg", "raise AssertionError('modular smith form internal check failed')"),
    ],
    "Catalogue.of's defensive re-raise: each KeyError of a tensor row is a missing"
    " entry or an unknown object, which the loop above it names": [
        ("supportdata", "raise"),
    ],
    "the body of verify's forked helper, which runs in the child process alone": [
        ("verify", "try:"),
        ("verify", "signal.pthread_sigmask(signal.SIG_SETMASK, mask)"),
        ("verify", "for i in _claims(queue):"),
        ("verify", "rec = CHECKS[i](ctx)"),
        ("verify", "os.write(writer, marshal.dumps((i, rec.name, rec.passed, rec.detail, rec.advisory)))"),
        ("verify", "os._exit(0)"),
    ],
    # ROADMAP item 4 gives each verify record a fault that makes it fail; each
    # row it adds runs the failure branch it flips, and its entry here goes
    "a verify failure branch that no fault row of ROADMAP item 4 runs yet": [
        ("verify", "failures.append(f'{x} not in V({x})')"),
        ("verify", "failures.append(f'{x} in Z({x})')"),
        ("verify", "failures.append(f'Z({x}) membership of {y} disagrees with closure test')"),
        ("verify", "failures.append(f'shift inverse failed at {k}')"),
        ("verify", "failures.append(f'unit law failed on {x}')"),
        ("verify", "failures.append(f'associativity failed on ({x}, {y}, {z})')"),
        ("verify", "failures.append(f'finitely generated equality failed on ({x}, {y})')"),
        ("verify", "failures.append(f'H0 of the Koszul complex at {p} nonzero')"),
        ("verify", "failures.append(f'gamma value at {p} is {val}')"),
        ("verify", "failures.append(f'cofinite gamma at {s}: prime {q} mismatch')"),
        ("verify", "failures.append(f'invertibility certificate failed at {q}')"),
        ("verify", "failures.append(f'pair ({v}; {w}) gives {got}, expected {want}')"),
        ("verify", "failures.append(f'sigma(tau(W)) != W at {w}')"),
        ("verify", "failures.append('universal map verification failed')"),
        ("verify", "failures.append('universal map from the spectrum is not the identity')"),
        ("verify", "failures.append('spectrum of a random catalogue is empty')"),
        ("verify", "failures.append('a maximal proper ideal is not prime')"),
    ],
}


def _docstring(node: ast.AST) -> ast.stmt | None:
    body = getattr(node, "body", None)
    if (
        isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[0]
    return None


def statements(path: Path) -> list[ast.stmt]:
    """Every statement of the file but its docstrings, in line order."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    docs = {id(d) for node in ast.walk(tree) if (d := _docstring(node)) is not None}
    nodes = [n for n in ast.walk(tree) if isinstance(n, ast.stmt) and id(n) not in docs]
    return sorted(nodes, key=lambda n: n.lineno)


def source_text(node: ast.stmt) -> str:
    """The statement as ast.unparse writes it: its header, if it has a body."""
    return ast.unparse(node).partition("\n")[0]


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Exit code of pytest.main(args), and the lines it ran of each file in SRC."""
    prefix = str(SRC)
    ran: dict[str, set[int]] = {}
    recorders = {}

    def recorder(lines: set[int]):
        # every event of a frame is at a line that ran; on "call", the line
        # that defined its code
        def record(frame, event, arg):
            lines.add(frame.f_lineno)
            return record

        return record

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        if filename not in recorders:
            recorders[filename] = recorder(ran.setdefault(filename, set()))
        return recorders[filename]

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def census(ran: dict[str, set[int]]) -> list[str]:
    """One line per unrun statement that ALLOWED does not name, and per entry
    of ALLOWED that names no unrun statement."""
    left = Counter(entry for entries in ALLOWED.values() for entry in entries)
    problems = []
    for path in sorted(SRC.glob("*.py")):
        lines = ran.get(str(path), set())
        for node in statements(path):
            if node.lineno in lines:
                continue
            text = source_text(node)
            if left[path.stem, text] > 0:
                left[path.stem, text] -= 1
            else:
                where = f"{path.relative_to(ROOT)}:{node.lineno}"
                problems.append(f"not run by any test: {where}: {text}")
    for (module, text), n in sorted(left.items()):
        problems += [f"allowed, but run or gone: {module}: {text}"] * n
    return problems


def main() -> int:
    code, ran = run_traced(["-q", str(ROOT)])
    if code != 0:
        print(f"census: the suite failed (pytest exit {code})", file=sys.stderr)
        return 1
    problems = census(ran)
    for line in problems:
        print(line, file=sys.stderr)
    total = sum(len(statements(p)) for p in SRC.glob("*.py"))
    print(f"census: {total} statements, {len(problems)} problems", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
