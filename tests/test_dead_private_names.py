"""Every module-level private name in src/ is used somewhere in src/,
and every public export is used by the program.

A private name is one that starts with a single underscore. It counts as
used when a top-level statement other than the one that defines it reads
it: as a name, an attribute or an imported name. So a helper whose last
caller is deleted fails this check even when it calls itself.

A name of adathresh._EXPORTS counts as used when a statement of src/
(other than __init__.py, which only lists it), scripts/ or perfbench/
reads it at run time, by the same rule; a type annotation is not such a
read. A name that only tests call belongs in tests/helpers.py.
"""

import ast
from pathlib import Path

from adathresh import _EXPORTS

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py"))
PROGRAM = [p for p in FILES if p.name != "__init__.py"] + sorted((ROOT / "scripts").glob("*.py"))
PROGRAM += sorted((ROOT / "perfbench").glob("*.py"))


def _defined(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = statement.targets if isinstance(statement, ast.Assign) else [getattr(statement, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _read(statement: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


class _WithoutAnnotations(ast.NodeTransformer):
    """Drops every annotation of a tree: what a type hint names is not read at run time."""

    def visit_arg(self, node: ast.arg) -> ast.arg:
        node.annotation = None
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.FunctionDef:
        node.returns = None
        return self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node: ast.AnnAssign) -> ast.AnnAssign:
        node.annotation = ast.Constant(None)
        return self.generic_visit(node)


def unused_exports(exports, sources: dict[str, str]) -> list[str]:
    """The names of exports that no statement of sources reads, other than
    the statement that defines it; annotations are not reads."""
    statements = [s for source in sources.values() for s in _WithoutAnnotations().visit(ast.parse(source)).body]
    return sorted(
        name
        for name in exports
        if not any(name in _read(s) and name not in _defined(s) for s in statements)
    )


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(file, name) of each module-level private name no other statement reads."""
    statements = [(path, s) for path, source in sources.items() for s in ast.parse(source).body]
    reads = [_read(s) for _, s in statements]
    dead = []
    for i, (path, statement) in enumerate(statements):
        for name in sorted(_defined(statement)):
            if name.startswith("_") and not name.startswith("__"):
                if not any(name in r for j, r in enumerate(reads) if j != i):
                    dead.append((path, name))
    return dead


def test_the_check_sees_a_dead_private_name():
    a = "def _used():\n    return 1\n\ndef _recursive(n):\n    return _recursive(n - 1)\n\n_TABLE = {}\n"
    b = "from a import _used\n\ndef public():\n    return _used()\n"
    assert dead_private_names({"a.py": a, "b.py": b}) == [("a.py", "_recursive"), ("a.py", "_TABLE")]


def test_every_private_name_in_src_is_used():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in FILES}
    assert dead_private_names(sources) == []


def test_the_check_sees_an_unused_export():
    a = (
        "class Box:\n    def grow(self) -> 'Box':\n        return Box()\n\n"
        "def area(box: Box) -> float:\n    return 1.0\n\n"
        "def used() -> None:\n    pass\n\nLIMIT: Box = None\n"
    )
    b = "from a import used\n\nused()\n"
    assert unused_exports(["Box", "area", "used", "LIMIT"], {"a.py": a, "b.py": b}) == ["Box", "LIMIT", "area"]


def test_every_export_is_used_by_the_program():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PROGRAM}
    assert unused_exports(_EXPORTS, sources) == []
