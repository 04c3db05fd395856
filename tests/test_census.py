from census import ALLOWED, ROOT, SRC, census, source_text, statements


def _every_line():
    return {str(path): {node.lineno for node in statements(path)} for path in SRC.glob("*.py")}


def test_every_allowed_entry_is_stale_when_everything_runs():
    entries = sorted(entry for entries in ALLOWED.values() for entry in entries)
    assert census(_every_line()) == [
        f"allowed, but run or gone: {module}: {text}" for module, text in entries
    ]


def test_an_unrun_statement_is_named_by_file_and_line():
    path = SRC / "balmer.py"
    node = next(n for n in statements(path) if source_text(n).startswith("def prime_to_point"))
    ran = _every_line()
    ran[str(path)].remove(node.lineno)
    problems = census(ran)
    where = f"{path.relative_to(ROOT)}:{node.lineno}"
    assert f"not run by any test: {where}: {source_text(node)}" in problems


def test_docstrings_are_not_statements():
    texts = [source_text(n) for n in statements(SRC / "report.py")]
    assert not any(text.startswith(("'", '"')) for text in texts)
