"""Checks on the package's shape and on the test configuration itself."""

from __future__ import annotations

import ast
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import banevasion

PACKAGE = Path(banevasion.__file__).parent
REPO = Path(__file__).resolve().parent.parent

# The pipeline, upstream first: a module imports only modules before it.
PIPELINE = (
    "errors", "corpus", "pairing", "matching", "textstats", "features",
    "_metrics", "model", "evaluation", "analysis", "cli",
)


def relative_imports(path: Path) -> set[str]:
    """The package modules ``path`` imports relatively, at any depth."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import corpus as corpus_mod
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
    return imported


def test_imports_point_down_the_pipeline():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(PIPELINE)
    upward = [
        (module, imported)
        for position, module in enumerate(PIPELINE)
        for imported in sorted(relative_imports(PACKAGE / f"{module}.py"))
        if PIPELINE.index(imported) >= position
    ]
    assert upward == []


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    """Under the repo's warning filters a failing ``@given`` test reports its
    falsifying example, and the test after it still runs."""
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout


def test_readme_errors_name_every_error_class():
    """README's "Errors" list names exactly the ``BanEvasionError``
    subclasses that ``banevasion.errors`` defines, one bullet each."""
    from banevasion import errors

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Errors\n", 1)[1].split("\n#", 1)[0]
    listed = [
        name
        for line in section.splitlines() if line.startswith("- `")
        # the names before the colon, leaving out a "(a `ValueError` too)"
        for name in re.findall(r"`(\w+)`", line.split(":", 1)[0].split(" (", 1)[0])
    ]
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.BanEvasionError)
        and value is not errors.BanEvasionError
    }
    assert sorted(listed) == sorted(defined)
