"""The package imports itself only by relative imports, so a second copy of
it loads under another name without reaching into the first (an in-process
comparison of two versions relies on this).  No module imports a name it
never reads, and the README's Python example runs as printed."""

import ast
import contextlib
import io
import re
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


def _unused_imports(tree):
    """Names that an import binds and that the module never reads."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        yield from (name for name in bound if name not in used)


MODULES = [p for p in SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    unused = sorted(_unused_imports(ast.parse(path.read_text(), str(path))))
    assert not unused, f"imported and never used: {unused}"


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue() == "jordan ((1, (2, 1)),)\n"
