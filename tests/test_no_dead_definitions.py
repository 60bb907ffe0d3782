"""Every module-level function and class of algact, and every non-dunder
method, property and classmethod, is reached from code that runs: the
module-level statements of the package (the console entry point in
__main__.py, constants, tables), and then, to a fixed point, the bodies of
the definitions they reach.  A method is reached by its name, through any
attribute or plain name; a reached class reaches its decorators, bases,
class-level statements and dunder methods, which are exempt.  A reference
from a definition's own body does not count, so a function that only calls
itself is dead.  The imports and statements of algact/__init__.py do not
count: a name that only the package exports and the tests call belongs in
the tests."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "algact").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def referenced_names(tree: ast.AST) -> set[str]:
    """Names a tree uses: plain names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def is_method(node: ast.AST) -> bool:
    return isinstance(node, FUNCTIONS) and not is_dunder(node.name)


def own_parts(node: ast.AST) -> list[ast.AST]:
    """What reaching a definition reaches: a function's whole tree; for a
    class, everything but its non-dunder methods."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.decorator_list, *node.bases, *node.keywords, *(s for s in node.body if not is_method(s))]


def dead_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """'module.name' or 'module.Class.name' for each top-level definition and
    non-dunder method that no module-level statement outside __init__
    reaches, directly or through other reached definitions."""
    bodies: dict[str, list[ast.AST]] = {}
    definitions: list[tuple[str, str]] = []  # (qualified name, name)
    reached: set[str] = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                reached |= referenced_names(node)
                continue
            entries = [(f"{module}.{node.name}", node.name, own_parts(node))]
            if isinstance(node, ast.ClassDef):
                entries += [(f"{module}.{node.name}.{m.name}", m.name, [m]) for m in node.body if is_method(m)]
            for qual, name, parts in entries:
                definitions.append((qual, name))
                bodies.setdefault(name, []).extend(parts)
    frontier = reached & bodies.keys()
    while frontier:
        found = set().union(*(referenced_names(part) for name in frontier for part in bodies[name]))
        frontier = (found - reached) & bodies.keys()
        reached |= found
    return sorted(qual for qual, name in definitions if name not in reached)


def test_sources_found():
    assert {"cli.py", "polynomials.py", "__init__.py", "__main__.py"} <= {p.name for p in SOURCES}


def test_every_definition_is_used():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in SOURCES}
    assert dead_definitions(trees) == []


def test_detects_an_unused_definition():
    trees = {
        "a": ast.parse(
            "def used():\n    return Box().kept()\n\ndef lonely():\n    return 2\n\nclass Unused:\n    pass\n\n"
            "def exported():\n    return helper()\n\ndef helper():\n    return 3\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
            "class Box:\n    __slots__ = ()\n\n    def __init__(self):\n        pass\n\n"
            "    def __repr__(self):\n        return 'Box'\n\n"
            "    def kept(self):\n        return self.inner()\n\n    def inner(self):\n        return 4\n\n"
            "    @classmethod\n    def orphan(cls):\n        return cls()\n\n"
            "    @property\n    def tested(self):\n        return self.loop()\n\n"
            "    def loop(self):\n        return self.loop()\n"
        ),
        "b": ast.parse("from .a import used\n\nVALUE = used()\n"),
        "__init__": ast.parse("from .a import Box, exported, lonely\n\nORPHAN = Box.orphan()\n"),
    }
    assert dead_definitions(trees) == [
        "a.Box.loop",
        "a.Box.orphan",
        "a.Box.tested",
        "a.Unused",
        "a.exported",
        "a.helper",
        "a.lonely",
        "a.recursive",
    ]
