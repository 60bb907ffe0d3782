"""Every module-level function and class of algact is used: referenced by
name somewhere in the package (a recursive call counts), which includes the
exports of algact/__init__.py.  A definition only the tests call belongs in
the tests."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "algact").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a tree mentions: plain names, attribute names and imported
    names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """'module.name' for each top-level definition nothing else refers to."""
    everywhere = set().union(*map(referenced_names, trees.values()))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS) and node.name not in everywhere:
                dead.append(f"{module}.{node.name}")
    return sorted(dead)


def test_sources_found():
    assert {"cli.py", "polynomials.py", "__init__.py"} <= {p.name for p in SOURCES}


def test_every_definition_is_used():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in SOURCES}
    assert dead_definitions(trees) == []


def test_detects_an_unused_definition():
    trees = {
        "a": ast.parse("def used():\n    return 1\n\ndef lonely():\n    return 2\n\nclass Unused:\n    pass\n"),
        "b": ast.parse("from .a import used\n\nVALUE = used()\n"),
    }
    assert dead_definitions(trees) == ["a.Unused", "a.lonely"]
