"""Every imported name in the package and its tests is used or re-exported,
every private module-level name in the package is used, every public name
of the package is read by code outside the tests, every keyword default
of a package function is set by some call outside the tests, apart from the
few that SET_ONLY_BY_TESTS lists with their reasons, and every field that a
package class records is read by code outside the tests, apart from the
few that READ_ONLY_BY_TESTS lists with theirs.

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


def bound_names(node: ast.stmt) -> list[str]:
    """The names that a module-level function, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def names_read(sources) -> set[str]:
    """The names that `sources` read: by a bare-name load, as an attribute,
    or in a `from ... import`.  Assigning to a name does not read it."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_private` functions, classes and constants, over the
    modules in `sources` (name -> source), that no module reads."""
    read = names_read(sources.values())
    return [f"{module}: {name}" for module, source in sources.items()
            for node in ast.parse(source).body for name in bound_names(node)
            if name.startswith("_") and not name.startswith("__") and name not in read]


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


def uncalled_public_names(package: dict[str, str], callers: list[str]) -> list[str]:
    """Public names of the modules in `package` (module name -> source) that
    no source in `callers` reads, and names in a module's `__all__` that the
    module does not bind.  Public names are module-level functions, classes
    and assigned names, and the methods and properties of those classes.
    Listing a name in `__all__` does not read it.

    Names are matched without their owner, so a method counts as read when
    any attribute of that name is: `GridField.zeros` is read by `np.zeros`,
    and a method by another class's method of the same name."""
    read, found = names_read(callers), []
    for module, source in package.items():
        tree = ast.parse(source)
        bound = {alias.asname or alias.name.split(".")[0] for node in tree.body
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        exported = []
        for node in tree.body:
            names = bound_names(node)
            bound.update(names)
            if names == ["__all__"]:
                exported = ast.literal_eval(node.value)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{fn.name}" for fn in node.body
                          if isinstance(fn, ast.FunctionDef)]
            found += [f"{module}: {name}" for name in names
                      if not (last := name.rpartition(".")[2]).startswith("_") and last not in read]
        found += [f"{module}: __all__ lists {name}, which is not bound"
                  for name in exported if name not in bound]
    return found


def test_scan_flags_uncalled_public_names():
    package = {
        "a": "__all__ = ['used', 'gone', 'Kind', 'ghost']\n"
             "import numpy as np\n"
             "def used(): pass\ndef gone(): pass\ndef _private(): pass\n"
             "LIMIT = 3\nSIZE: int = 2\nUNREAD = 1\n"
             "class Kind:\n"
             "    def run(self): pass\n"
             "    def idle(self): pass\n"
             "    @property\n"
             "    def width(self): pass\n"
             "    def _helper(self): pass\n"
             "    def __init__(self): pass\n",
        "b": "__all__ = ['np', 'helper']\nfrom a import used as helper\nimport numpy as np\n",
    }
    callers = ["from a import used\nimport a\na.Kind().run(a.LIMIT)\nprint(SIZE)\n",
               "print(x.width)\n"]
    assert uncalled_public_names(package, callers) == [
        "a: gone", "a: UNREAD", "a: Kind.idle", "a: __all__ lists ghost, which is not bound",
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    package = sorted((ROOT / "src" / "hjb_pi").glob("*.py"))
    callers = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
               if p.name != "__init__.py"]
    assert package and len(callers) >= len(package)
    found = uncalled_public_names(
        {path.name: path.read_text() for path in package}, [p.read_text() for p in callers]
    )
    assert found == []


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


# The keyword defaults that no call under src/ or perfbench/ sets: for each,
# the tests that set it and why it stays an option.  Any other default needs
# a caller outside the tests.
_COARSE_ORACLE = ("test_oracles.py (_COARSE)",
                  "a coarse oracle keeps the oracle's own checks fast")
SET_ONLY_BY_TESTS = {
    "oracles.py: lq_value_iteration(h)": _COARSE_ORACLE,
    "oracles.py: lq_value_iteration(dt)": _COARSE_ORACLE,
    "oracles.py: lq_value_iteration(n_controls)": _COARSE_ORACLE,
    "oracles.py: lq_value_iteration(tol)": (
        "test_oracles.py::test_value_iteration_result_passes_a_full_scan",
        "the result is a fixed point to the tol asked for, checked at two tols"),
    "oracles.py: lq_value_iteration(max_steps)": (
        "test_oracles.py::test_value_iteration_reports_non_convergence",
        "a 2-scan budget reaches the RuntimeError"),
    "scheme.py: bellman_residual(policy)": (
        "test_howard.py, test_linsolve.py, test_scheme.py",
        "L_alpha u at a frozen policy: an evaluation's residual certificate, "
        "and the reference for assembled systems"),
}


def test_every_keyword_default_is_set_by_some_call():
    """Callers are the files under src/ and perfbench/, as for the public
    names, so an option that only tests set fails unless SET_ONLY_BY_TESTS
    lists it; the tests set every listed one."""
    package = sorted((ROOT / "src" / "hjb_pi").glob("*.py"))
    callers = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    tests = sorted((ROOT / "tests").rglob("*.py"))
    assert package and len(callers) > len(package) and tests
    sources = {path.name: path.read_text() for path in package}
    found = unset_keyword_defaults(sources, [p.read_text() for p in callers])
    assert sorted(found) == sorted(SET_ONLY_BY_TESTS)
    assert unset_keyword_defaults(sources, [p.read_text() for p in callers + tests]) == []


def unread_fields(package: dict[str, str], callers: list[str]) -> list[str]:
    """Recorded fields of the classes in `package` (module name -> source)
    that no source in `callers` reads.  A class records each public entry
    of its `_fields` and each public attribute that one of its methods
    assigns on `self`, plainly or with an annotation.  A field is read when
    a caller loads an attribute of its name.  Writes do not count: being
    the receiver of `.append` or `.extend`, a constructor keyword, or an
    `object.__setattr__` call is not a read."""
    read = set()
    for source in callers:
        tree = ast.parse(source)
        grown = {id(call.func.value) for call in ast.walk(tree) if isinstance(call, ast.Call)
                 and isinstance(call.func, ast.Attribute) and call.func.attr in ("append", "extend")}
        read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load) and id(node) not in grown)
    found = []
    for module, source in package.items():
        for cls in (node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)):
            fields = []
            for node in ast.walk(cls):
                if isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "_fields" for t in node.targets):
                    fields += ast.literal_eval(node.value)
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign) else [])
                for target in targets:
                    for t in target.elts if isinstance(target, ast.Tuple) else [target]:
                        if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                                and t.value.id == "self"):
                            fields.append(t.attr)
            found += [f"{module}: {cls.name}.{name}" for name in dict.fromkeys(fields)
                      if not name.startswith("_") and name not in read]
    return found


def test_scan_flags_write_only_fields():
    package = {
        "m": "class Report:\n"
             "    _fields = ('kept', 'dropped', '_hidden')\n"
             "    def __init__(self):\n"
             "        self.log = []\n"
             "        self.seen: list = []\n"
             "        self.size, self.width = 0, 1\n"
             "        self._cache = {}\n"
             "        object.__setattr__(self, 'kept', 1)\n"
             "class Plain:\n"
             "    def run(self):\n"
             "        self.total = 0\n"
             "        self.total += 1\n",
    }
    callers = ["r = Report(dropped=2)\nr.log.append(1)\nr.seen.extend([2])\n"
               "print(r.seen[0], r.width, r.kept)\nr.size = 3\n"
               "object.__setattr__(r, 'dropped', 4)\n"]
    assert unread_fields(package, callers) == [
        "m: Report.dropped", "m: Report.log", "m: Report.size", "m: Plain.total",
    ]


# The recorded fields that no code under src/ or perfbench/ reads: for each,
# who reads it and why it stays.  Any other field needs a reader outside the
# tests.
READ_ONLY_BY_TESTS = {
    "howard.py: PIReport.final_policy": (
        "README's example of a run, which CI runs",
        "the run's result: the policy whose evaluation is final_value"),
    "scheme.py: StencilCertificate.nodes_checked": (
        "test_acceptance.py::test_c01_monotone_stencil_certification",
        "c01 asserts the size of the sample"),
    "scheme.py: StencilCertificate.controls_checked": (
        "test_acceptance.py::test_c01_monotone_stencil_certification",
        "c01 asserts the size of the sample"),
}


def test_every_recorded_field_has_a_reader():
    """Readers are the files under src/ and perfbench/, so a field that
    nothing reads, or only tests do, fails unless READ_ONLY_BY_TESTS lists
    it; the tests read every listed one."""
    package = sorted((ROOT / "src" / "hjb_pi").glob("*.py"))
    callers = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    tests = sorted((ROOT / "tests").rglob("*.py"))
    assert package and len(callers) > len(package) and tests
    sources = {path.name: path.read_text() for path in package}
    found = unread_fields(sources, [p.read_text() for p in callers])
    assert sorted(found) == sorted(READ_ONLY_BY_TESTS)
    assert unread_fields(sources, [p.read_text() for p in callers + tests]) == []


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
