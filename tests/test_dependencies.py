"""Declared dependencies match what the package imports: every import in
src/chiralkit is the standard library, relative, or a dependency that
pyproject.toml declares. And every public name of the package has a caller
in the package or the benchmark, or a reason to stay public."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "chiralkit").glob("*.py"))
BENCHMARK_MODULES = sorted((ROOT / "perfbench").glob("*.py"))
# public names no code calls, each with why it stays (DECISIONS.md, "The
# public surface the code uses")
KEPT = {
    "correlations.qfi": "the quantum Fisher information F(rho, H) of the paper's bound "
                        "gamma^2 <= Tr(rho_P K_P^2) F",
    "chirality.modular_commutator": "the paper's tripartite measure i Tr(rho [K_AB, K_BC])",
    "qmat.uhlmann_fidelity": "the oracle of the reduced log-distance objective",
    "io.write_state_file": "the inverse of parse_state_file, for users writing the state files the CLI reads",
    "cli._Parser.error": "argparse calls it on a usage error",
}


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


def public_definitions() -> dict[str, str]:
    """Qualified name -> bare name of every public module-level function,
    class and constant of src/chiralkit, and of every public method of its
    classes."""
    names = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                found = []
            names.update((f"{path.stem}.{name}", name) for name in found if not name.startswith("_"))
            if isinstance(node, ast.ClassDef):
                names.update(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return names


class _References(ast.NodeVisitor):
    """Collects every name read as a Name or an Attribute, except inside a
    definition of that name (a recursive call is not a caller)."""

    def __init__(self, called: set[str]):
        self.called = called
        self.inside: list[str] = []

    def _definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name: str, node):
        if isinstance(node.ctx, ast.Load) and name not in self.inside:
            self.called.add(name)

    def visit_Name(self, node):
        self._read(node.id, node)

    def visit_Attribute(self, node):
        self._read(node.attr, node)
        self.generic_visit(node)


def test_every_public_name_has_a_caller():
    # references by name, not strings: the tracer's span names call nothing
    called: set[str] = set()
    for path in MODULES + BENCHMARK_MODULES:
        _References(called).visit(ast.parse(path.read_text(), filename=str(path)))
    uncalled = {qualified for qualified, name in public_definitions().items() if name not in called}
    assert uncalled == set(KEPT)
