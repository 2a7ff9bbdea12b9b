"""Source hygiene: every imported name is read somewhere in its module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# package re-exports live in __init__.py; perfbench is checked on its own
SCANNED = ("src/cellpilot", "tests", "demos")


def _unread_imports(path: Path) -> list:
    """(line, name) for each name the module imports but never loads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_unread_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for folder in SCANNED
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in _unread_imports(path)]
    assert not found, "imported but never read:\n" + "\n".join(found)
