"""The library holds no test-only code.

Every function and class defined under ``src/doublemirror`` must be referenced
by name somewhere under ``src/``: a routine whose only callers are tests
belongs in ``tests/oracles.py``.  A method counts as referenced only through
attribute access (``x.name``), so a local variable of the same name does not
hide it.  Dunders and hooks that a base class calls by name are exempt.
Every name a module under ``src/`` imports must also be read in that module,
and every field of a record must be read as an attribute under ``src/``.
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
    """``(qualified name, name, is a method)`` of every function and class,
    nested ones too."""
    found = []

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                found.append((qualname, child.name, in_class))
                walk(child, qualname + ".", isinstance(child, ast.ClassDef))
            else:
                walk(child, prefix, in_class)

    walk(tree, "", False)
    return found


def referenced_names(tree):
    """``(names, attributes)``: the bare names and the attribute names read."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def test_every_library_definition_is_used_in_the_library():
    trees = {path: parse(path) for path in sorted(SRC.rglob("*.py"))}
    refs = [referenced_names(tree) for tree in trees.values()]
    attributes = set().union(*(a for _, a in refs))
    used = attributes.union(*(n for n, _ in refs))
    unused = [
        f"{path.relative_to(SRC)}:{qualname}"
        for path, tree in trees.items()
        if PACKAGE in path.parents
        for qualname, name, is_method in definitions(tree)
        if name not in (attributes if is_method else used)
        and not (name.startswith("__") and name.endswith("__"))
        and qualname not in HOOKS
    ]
    assert not unused, "defined under src/ but referenced only outside it: " + ", ".join(unused)


def test_every_import_under_src_is_read():
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        tree = parse(path)
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [
                    f"{path.relative_to(SRC)}:{name}"
                    for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
                    if name not in loaded
                ]
    assert not unread, "imported under src/ but never read: " + ", ".join(unread)


def test_every_record_field_is_read_in_the_library():
    # a field that only tests read is test-only data the library carries
    trees = [parse(path) for path in sorted(SRC.rglob("*.py"))]
    read = {
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        f"{cls.name}.{stmt.target.id}"
        for tree in trees for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        and any(isinstance(d, ast.Name) and d.id == "record" for d in cls.decorator_list)
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
    ]
    assert fields, "no @record class found"
    unread = [f for f in fields if f.split(".")[1] not in read]
    assert not unread, "record fields never read under src/: " + ", ".join(unread)
