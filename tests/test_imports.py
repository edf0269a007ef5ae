"""Every imported name in the package and its tests is used or re-exported,
every private module-level name in the package is used, and every keyword
default of a package function is set by some call.

No linter is a dependency, so this scans the sources with `ast`.  A name
counts as used when it appears as a bare name anywhere in the module (an
attribute access like `np.zeros` uses `np`) or is listed in `__all__`.
"""

import ast
import os
import subprocess
import sys
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


def unset_keyword_defaults(package: dict[str, str], callers: list[str]) -> list[str]:
    """Parameters with a default, of the module-level functions and methods
    in `package` (module name -> source), that no call in `callers` sets, by
    keyword or by position.  A call matches a function by its bare or
    attribute name, a class by its `__init__`; a call that unpacks `*args`
    or `**kwargs` sets every parameter it could reach.  A default that no
    call sets is a constant dressed as an option."""
    calls = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for module, source in package.items():
        tree = ast.parse(source)
        defs = [(fn.name, fn, 0) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for fn in (node for node in cls.body if isinstance(node, ast.FunctionDef)):
                # a bound call passes self or cls itself
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                name = cls.name if fn.name == "__init__" else fn.name
                defs.append((name, fn, 0 if static else 1))
        for name, fn, bound in defs:
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(
                    any(k.arg in (param, None) for k in call.keywords)
                    or index is not None and (
                        len(call.args) > index
                        or any(isinstance(a, ast.Starred) for a in call.args))
                    for call in calls.get(name, [])
                ):
                    found.append(f"{module}: {fn.name}({param})")
    return found


def test_scan_flags_unset_keyword_defaults():
    package = {
        "m": "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
             "def g(x=0): pass\n"
             "def h(y=0): pass\n"
             "class K:\n"
             "    def __init__(self, p=1, q=2): pass\n"
             "    def meth(self, r=1, s=2): pass\n"
             "    @staticmethod\n"
             "    def stat(t=1): pass\n",
    }
    callers = [
        "f(0, 5, d=6)\ng(*args)\nh(**opts)\nK(7)\nobj.meth(s=1)\nK.stat(2)\n",
    ]
    assert unset_keyword_defaults(package, callers) == [
        "m: f(c)", "m: f(e)", "m: __init__(q)", "m: meth(r)",
    ]


def test_every_keyword_default_is_set_by_some_call():
    package = sorted((ROOT / "src" / "hjb_pi").glob("*.py"))
    callers = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert package and len(callers) > len(package)
    found = unset_keyword_defaults(
        {path.name: path.read_text() for path in package}, [p.read_text() for p in callers]
    )
    assert found == []


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


def _modules_after(code: str) -> set[str]:
    """The modules loaded after running `code` in a fresh interpreter that
    imports hjb_pi from where this process does (src/ or an installed copy)."""
    import hjb_pi

    env = dict(os.environ, PYTHONPATH=str(Path(hjb_pi.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code + "\nimport sys; print(*sys.modules)"],
                         env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_fresh_interpreter_imports_the_package_without_dataclasses():
    # numpy first, so a dataclass import on its side would not count
    assert "numpy" in _modules_after("import numpy")
    assert "dataclasses" not in _modules_after("import numpy\nimport hjb_pi")


def test_fresh_interpreter_imports_the_cli_without_the_property_suite():
    loaded = _modules_after("import hjb_pi.cli")
    assert "hjb_pi.cli" in loaded
    assert not {"hjb_pi.checks", "hjb_pi.oracles"} & loaded
