"""Source hygiene of the library: no unused imports and no private helper
left without a reader (ROADMAP aim 2, "no unused helpers").

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


def test_imports_are_read_and_private_names_have_a_reader():
    modules = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(SRC.glob("*.py"))}
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
