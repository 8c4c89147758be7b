"""The library holds no test-only code.

Every function and class defined under ``src/doublemirror`` must be referenced
by name somewhere under ``src/``: a routine whose only callers are tests
belongs in ``tests/oracles.py``.  Dunders and hooks that a base class calls
by name are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "doublemirror"

# methods called only by the standard library, never by name in this package
HOOKS = {"_Parser.error"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def definitions(tree):
    """``(qualified name, name)`` of every function and class, nested ones too."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                found.append((qualname, child.name))
                walk(child, qualname + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_library_definition_is_used_in_the_library():
    trees = {path: parse(path) for path in sorted(SRC.rglob("*.py"))}
    used = set().union(*(referenced_names(tree) for tree in trees.values()))
    unused = [
        f"{path.relative_to(SRC)}:{qualname}"
        for path, tree in trees.items()
        if PACKAGE in path.parents
        for qualname, name in definitions(tree)
        if name not in used
        and not (name.startswith("__") and name.endswith("__"))
        and qualname not in HOOKS
    ]
    assert not unused, "defined under src/ but referenced only outside it: " + ", ".join(unused)
