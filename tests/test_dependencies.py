"""Declared dependencies match what the package imports: every import in
src/chiralkit is the standard library, relative, or a dependency that
pyproject.toml declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "chiralkit").glob("*.py"))


def declared_dependencies() -> set[str]:
    """Distribution names in [project] dependencies, read with a pattern so
    the test runs where tomllib (Python 3.11+) is missing."""
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    if found is None:
        pytest.skip("pyproject.toml lists no [project] dependencies")
    specs = re.findall(r"""["']([^"']+)["']""", found.group(1))
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_") for spec in specs}


def imported_packages(path: Path) -> set[str]:
    """Top-level package of every absolute import in the module, wherever
    the import statement sits."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_reads_the_declared_list():
    assert "numpy" in declared_dependencies()


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_stdlib_relative_or_declared(path):
    allowed = set(sys.stdlib_module_names) | declared_dependencies()
    assert imported_packages(path) - allowed == set()
