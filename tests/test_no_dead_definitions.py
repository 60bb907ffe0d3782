"""Every module-level function and class of algact is reached from code that
runs: the module-level statements of the package (the console entry point in
__main__.py, constants, tables), and then, to a fixed point, the bodies of
the definitions they reach.  A recursive call counts, so a self-referencing
definition is kept.  The imports of algact/__init__.py do not count: a name
that only the package exports and the tests call belongs in the tests."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "algact").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a tree uses: plain names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dead_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """'module.name' for each top-level definition that no module-level
    statement outside __init__ reaches, directly or through other reached
    definitions."""
    bodies: dict[str, list[ast.AST]] = {}
    reached: set[str] = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                bodies.setdefault(node.name, []).append(node)
                if node.name in referenced_names(node):
                    reached.add(node.name)
            else:
                reached |= referenced_names(node)
    frontier = reached & bodies.keys()
    while frontier:
        found = set().union(*(referenced_names(node) for name in frontier for node in bodies[name]))
        frontier = (found - reached) & bodies.keys()
        reached |= found
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS) and node.name not in reached
    )


def test_sources_found():
    assert {"cli.py", "polynomials.py", "__init__.py", "__main__.py"} <= {p.name for p in SOURCES}


def test_every_definition_is_used():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in SOURCES}
    assert dead_definitions(trees) == []


def test_detects_an_unused_definition():
    trees = {
        "a": ast.parse(
            "def used():\n    return 1\n\ndef lonely():\n    return 2\n\nclass Unused:\n    pass\n\n"
            "def exported():\n    return helper()\n\ndef helper():\n    return 3\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        ),
        "b": ast.parse("from .a import used\n\nVALUE = used()\n"),
        "__init__": ast.parse("from .a import exported, lonely\n"),
    }
    assert dead_definitions(trees) == ["a.Unused", "a.exported", "a.helper", "a.lonely"]
