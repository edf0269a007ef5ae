"""Every imported name in the package and its tests is used or re-exported.

No linter is a dependency, so this scans the sources with `ast`.  A name
counts as used when it appears as a bare name anywhere in the module (an
attribute access like `np.zeros` uses `np`) or is listed in `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_scan_flags_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "hjb_pi").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert paths
    found = {
        str(path.relative_to(ROOT)): unused
        for path in paths
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
