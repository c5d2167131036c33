"""Every module-level private name in src/ is used somewhere in src/.

A private name is one that starts with a single underscore. It counts as
used when a top-level statement other than the one that defines it reads
it: as a name, an attribute or an imported name. So a helper whose last
caller is deleted fails this check even when it calls itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src").rglob("*.py"))


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
