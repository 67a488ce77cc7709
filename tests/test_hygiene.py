"""Source hygiene of the library: no unused imports, no private helper
left without a reader and no private attribute that is written but never
read (ROADMAP aim 2, "no unused helpers", "no write-only attributes").

The check reads ``src/betapar/*.py`` with :mod:`ast` only; nothing is
imported or run.  ``__init__.py`` re-exports the public names, so its
imports are exempt, and ``from __future__`` imports bind no name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "betapar"


def _loads(tree, skip=None):
    """Names that tree reads, as names or attributes, outside the subtree skip."""
    skipped = {id(node) for node in ast.walk(skip)} if skip is not None else set()
    found = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _bound_names(stmt):
    """The names that a module-level definition or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _modules():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def test_imports_are_read_and_private_names_have_a_reader():
    modules = _modules()
    loads = {name: _loads(tree) for name, tree in modules.items()}
    imported = {name: {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
                for name, tree in modules.items()}
    unused = []
    for name, tree in modules.items():
        for stmt in tree.body:
            if name != "__init__.py" and isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                    continue
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loads[name]:
                        unused.append("%s: import %s" % (name, bound))
            for bound in _bound_names(stmt):
                if not bound.startswith("_") or bound.startswith("__"):
                    continue
                elsewhere = any(bound in loads[other] | imported[other]
                                for other in modules if other != name)
                if not elsewhere and bound not in _loads(tree, skip=stmt):
                    unused.append("%s: private %s" % (name, bound))
    assert unused == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _attributes(tree):
    """(stored, read): the private attribute names that tree writes and reads.

    A write is ``obj._x = ...`` (also augmented, annotated or in a tuple),
    ``setattr(obj, "_x", ...)`` or ``object.__setattr__(obj, "_x", ...)``; a
    read is ``obj._x`` in a load, or ``getattr(obj, "_x", ...)`` or
    ``hasattr(obj, "_x")``.  ``del obj._x`` is neither.
    """
    stored, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            if isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
            elif isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            name = node.args[1]
            if not (isinstance(name, ast.Constant) and isinstance(name.value, str)
                    and _is_private(name.value)):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "__setattr__":
                stored.add(name.value)
            elif isinstance(func, ast.Name) and func.id == "setattr":
                stored.add(name.value)
            elif isinstance(func, ast.Name) and func.id in ("getattr", "hasattr"):
                read.add(name.value)
    return stored, read


def test_attribute_scan_sees_both_writes():
    stored, read = _attributes(ast.parse(
        "self._a = 1\nobject.__setattr__(self, '_b', 2)\nself._c += self._d\n"
        "x = getattr(self, '_e', None)\nself.__dict__ = {}\n"
        "setattr(self, '_f', 3)\ndel self._a\n"))
    # a += alone is no read, nor is a del
    assert stored == {"_a", "_b", "_c", "_f"} and read == {"_d", "_e"}


def test_private_attributes_written_are_read():
    stored, read = set(), set()
    for tree in _modules().values():
        module_stored, module_read = _attributes(tree)
        stored |= module_stored
        read |= module_read
    assert stored and sorted(stored - read) == []
