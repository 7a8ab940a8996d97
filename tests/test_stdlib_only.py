"""The runtime uses the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgelfand"


def _absolute_imports(path):
    """(line, top-level module name) of every absolute import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"qgelfand"}
    foreign = [f"{path.name}:{line}: {name}"
               for path in sources
               for line, name in _absolute_imports(path)
               if name not in allowed]
    assert not foreign, foreign


def test_project_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def _imported_modules(path, package="qgelfand"):
    """(line, dotted module name) of every module ``path`` imports from,
    relative imports resolved against ``package``; ``from X import Y``
    also yields X.Y, since Y may be a submodule."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"{package}.{module}" if module else package
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def test_package_has_no_assert_statement():
    """``python -O`` strips ``assert``, so a check the package relies on
    must raise explicitly instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(),
                                            filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_tmatrix_imports_nothing_from_scalars():
    """The matrix kernels know no ring: the field descriptors and the
    ``den`` types carry it, so ``tmatrix`` must not import ``scalars``."""
    found = [f"tmatrix.py:{line}: {name}"
             for line, name in _imported_modules(PACKAGE / "tmatrix.py")
             if name == "qgelfand.scalars"
             or name.startswith("qgelfand.scalars.")]
    assert not found, found


def test_formulas_import_only_scalars_and_verdict():
    """The closed forms answer the ``eigenvalue`` and ``limit`` commands
    with no matrix or representation code loaded."""
    allowed = ("qgelfand.scalars", "qgelfand.verdict")
    found = [f"formulas.py:{line}: {name}"
             for line, name in _imported_modules(PACKAGE / "formulas.py")
             if name.startswith("qgelfand")
             and not any(name == m or name.startswith(f"{m}.")
                         for m in allowed)]
    assert not found, found
