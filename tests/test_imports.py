"""Every imported name in the package and its tests is used or re-exported,
and every private module-level name in the package is used.

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


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_private` functions, classes and constants, over the
    modules in `sources` (name -> source), that no module reads: by bare
    name, as an attribute, or in a `from ... import`.  Assigning to a name
    does not read it."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_scan_flags_orphaned_private_names():
    sources = {
        "a": "__all__ = []\ndef _imported(): pass\ndef _orphan(): pass\n"
             "class _Gone: pass\n_LIMIT = 3\n_N: int = 2\n_ATTR = 1\n",
        "b": "import a\nfrom a import _imported\n_LIMIT = 4\nprint(_N, a._ATTR)\n",
    }
    assert orphaned_private_names(sources) == [
        "a: _orphan", "a: _Gone", "a: _LIMIT", "b: _LIMIT",
    ]


def test_no_orphaned_private_names():
    paths = sorted((ROOT / "src" / "hjb_pi").glob("*.py"))
    assert paths
    assert orphaned_private_names({path.name: path.read_text() for path in paths}) == []


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
