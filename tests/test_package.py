"""The package imports itself only by relative imports, so a second copy of
it loads under another name without reaching into the first (an in-process
comparison of two versions relies on this)."""

import ast
from pathlib import Path

import pytest

import sympnf

SOURCES = sorted(Path(sympnf.__file__).parent.glob("*.py"))


def _absolute_imports_of_the_package(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[0] == "sympnf" for name in names):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_of_the_package_is_relative(path):
    lines = list(_absolute_imports_of_the_package(ast.parse(path.read_text(), str(path))))
    assert not lines, f"absolute import of sympnf at lines {lines}"
