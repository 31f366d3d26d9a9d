"""The package imports itself only by relative imports, so a second copy of
it loads under another name without reaching into the first (an in-process
comparison of two versions relies on this).  No module imports a name it
never reads, every exception class is raised somewhere, and the README's
Python example runs as printed."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import sympnf
from sympnf import errors

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


def _raised_names(tree):
    """Names of the classes that the raise statements of a module name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_exception_class_is_raised_and_none_is_an_alias():
    """A class with no raise site, such as a second name for one failure,
    cannot come back; ExactAlgebraError is the base that callers catch."""
    classes = {
        name: obj for name, obj in vars(errors).items() if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    assert all(obj.__name__ == name for name, obj in classes.items())
    raised = {name for path in MODULES for name in _raised_names(ast.parse(path.read_text(), str(path)))}
    assert sorted(set(classes) - raised) == ["ExactAlgebraError"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue() == "jordan ((1, (2, 1)),)\n"
