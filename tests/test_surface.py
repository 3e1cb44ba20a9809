"""Every function, class and method of the package is named somewhere in
the package outside its own definition.

A scan of the package's syntax trees: a module-level function, class or
assigned name, or a method, whose name no other line of `src/timedgames`
reads (as a name or an attribute; an import does not count) is code that
no program path runs, only tests.  Such code belongs in `tests/`, next to
the tests that use it, or goes.  The scan is by name, so a method whose
name another definition shares passes when either is read.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "timedgames"

# names kept for callers outside the package, each with its reason
ALLOWED = {
    "dump_model": "library API: writes an arena back as a model document",
    "concrete_step": "library API: the successor distribution of a concrete timed move",
    "__version__": "package metadata",
}


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each module-level function, class and
    assigned name, and of each method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out.append((node.name, node))
            out += [("%s.%s" % (node.name, item.name), item) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return out


def reads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each name and attribute the module reads."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
    return out


def unused_names() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    read: dict[str, set[tuple[str, int]]] = {}
    for module, tree in trees.items():
        for name, line in reads(tree):
            read.setdefault(name, set()).add((module, line))
    out = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            # a dunder method is called by the language, not by name
            if name in ALLOWED or ("." in qualname and name.startswith("__")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in own for m, line in read.get(name, ())):
                out.append("%s:%s" % (module, qualname))
    return out


def test_every_definition_is_named_outside_itself():
    assert unused_names() == []


def test_allowlist_names_definitions():
    defined = {qualname.rsplit(".", 1)[-1] for path in SRC.glob("*.py")
               for qualname, _ in definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined
