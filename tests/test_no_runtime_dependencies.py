"""algact has no runtime dependencies: every module of the package imports
only the standard library and algact itself.  The test extra (sympy,
hypothesis) is for the tests alone."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "algact").glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_found():
    assert {"cli.py", "matrices.py", "__init__.py"} <= {p.name for p in SOURCES}


def test_imports_are_stdlib_or_algact():
    for path in SOURCES:
        roots = imported_roots(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        outside = sorted(r for r in roots if r != "algact" and r not in sys.stdlib_module_names)
        assert outside == [], f"{path.name} imports {outside}"


def test_detects_a_third_party_import():
    tree = ast.parse("import os\nfrom . import matrices\nfrom sympy.matrices import Matrix\nimport algact.cli")
    assert imported_roots(tree) == {"os", "sympy", "algact"}
