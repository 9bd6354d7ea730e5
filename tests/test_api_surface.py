"""Guard on the public surface of the library.

Every public top-level function, class and constant of `src/lqbundle/*.py`
is either used by other library code (a reference outside its own
definition, in any module but `__init__.py`) or listed in KEEP together with
the test or criterion that needs it.  So is every public method (or
property) of a top-level class, where a use is an attribute access by the
method's name outside its own definition, and the KEEP key is
`Class.method`.  A `self.<name>` access is a use of its own class's method
(or a library base class's) only, so another class's attribute of the same
name does not hide a method.  Anything else is code that only its own unit
test reaches.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lqbundle"

# name -> what needs it although no other library code references it
KEEP = {
    "random_passing_instance": "acceptance pools and perfbench/make_n40.py",
    # methods
    "TransferEvaluator.transfer_m": "TestTransferM, test_tail_bound_implication, "
    "TestRows (the per-point inverse-norm reference)",
}


def _modules():
    return sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _public_definitions(tree):
    """{name: (first line, last line)} of public top-level definitions."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                out[name] = (node.lineno, node.end_lineno)
    return out


def _references(path, tree, own):
    """(defining module, name, line) for each name use in one module.

    A bare name resolves to this module's own definition or to what
    `from .mod import name` binds; `alias.name` resolves through
    `from . import mod as alias`.
    """
    here = path.stem
    bound = {name: (here, name) for name in own}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    bound[local] = (node.module, alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in bound:
            yield (*bound[node.id], node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            yield (modules[node.value.id], node.attr, node.lineno)


def _surface():
    """({(module, name): lines}, {(module, name) used by other library code})."""
    defined, used = {}, set()
    parsed = [(p, ast.parse(p.read_text(encoding="utf-8"))) for p in _modules()]
    for path, tree in parsed:
        for name, span in _public_definitions(tree).items():
            defined[(path.stem, name)] = span
    for path, tree in parsed:
        own = {n for (m, n) in defined if m == path.stem}
        for mod, name, line in _references(path, tree, own):
            span = defined.get((mod, name))
            if span is None:
                continue
            if mod == path.stem and span[0] <= line <= span[1]:
                continue  # inside its own definition
            used.add((mod, name))
    return defined, used


def _parsed():
    """(module name, syntax tree) of each library module."""
    return [(p.stem, ast.parse(p.read_text(encoding="utf-8"))) for p in _modules()]


def _self_accesses(tree):
    """{id(node): class name} of the `self.<name>` accesses in the methods of
    each top-level class."""
    out = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    out[id(node)] = cls.name
    return out


def _method_surface(parsed=None):
    """({Class.method: (module, first line, last line)}, {Class.method used
    by other library code}), a use being an attribute access by name.

    `self.<name>` resolves to its enclosing class (or a library base class
    of it) and is a use of that class's method only; any other `x.<name>`
    is a use of every class's method of that name.
    """
    parsed = _parsed() if parsed is None else parsed
    defined, used, bases = {}, set(), {}
    for stem, tree in parsed:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases[cls.name] = [b.id for b in cls.bases if isinstance(b, ast.Name)]
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    defined[f"{cls.name}.{node.name}"] = (
                        stem, node.lineno, node.end_lineno
                    )

    def resolve(cls, attr):
        key = f"{cls}.{attr}"
        if key in defined:
            return [key]
        for base in bases.get(cls, ()):
            found = resolve(base, attr)
            if found:
                return found
        return []

    for stem, tree in parsed:
        owners = _self_accesses(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if id(node) in owners:
                keys = resolve(owners[id(node)], node.attr)
            else:
                keys = [k for k in defined if k.endswith("." + node.attr)]
            for key in keys:
                mod, first, last = defined[key]
                if not (mod == stem and first <= node.lineno <= last):
                    used.add(key)
    return defined, used


def test_every_public_name_is_used_or_kept():
    defined, used = _surface()
    unused = sorted(
        f"{mod}.{name}" for (mod, name) in defined
        if (mod, name) not in used and name not in KEEP
    )
    assert unused == [], (
        "public names that no other library code uses; delete them or add "
        f"them to KEEP with the test or criterion that needs them: {unused}"
    )


def test_every_public_method_is_used_or_kept():
    defined, used = _method_surface()
    unused = sorted(key for key in defined if key not in used and key not in KEEP)
    assert unused == [], (
        "public methods that no other library code calls; delete them or add "
        f"them to KEEP with the test or criterion that needs them: {unused}"
    )


# A class that stores an attribute named like another class's method, and a
# subclass that calls an inherited method through `self`.
TWO_CLASSES = """
class Evaluator:
    def __init__(self, shift):
        self.shift = shift

    def value(self):
        return self.shift + self.scale()

    def scale(self):
        return 1.0


class Scaled(Evaluator):
    def doubled(self):
        return 2.0 * self.value()


class Driver:
    def shift(self, q):
        return q
"""


def test_self_access_resolves_to_its_own_class():
    defined, used = _method_surface([("snippet", ast.parse(TWO_CLASSES))])
    assert "Driver.shift" in defined and "Driver.shift" not in used
    # a method reached through `self` in its own class or a subclass is used
    assert {"Evaluator.scale", "Evaluator.value"} <= used
    assert "Scaled.doubled" not in used


def test_keep_lists_only_unused_names():
    defined, used = _surface()
    methods, methods_used = _method_surface()
    stale = sorted(
        name for name in KEEP
        if not any(key[1] == name and key not in used for key in defined)
        and not (name in methods and name not in methods_used)
    )
    assert stale == [], (
        f"KEEP entries the library no longer defines or already uses: {stale}"
    )


# Defaulted `def` parameters plus defaulted dataclass init fields in
# src/lqbundle/*.py.  Lower it when options go; raising it needs two callers
# that want different values.
MAX_OPTIONS = 30


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        fn = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(fn, "id", getattr(fn, "attr", None)) == "dataclass":
            return True
    return False


def _field_has_default(value):
    """Whether a dataclass field's value gives it a default init argument."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    kw = {k.arg: k.value for k in value.keywords}
    init = kw.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in kw or "default_factory" in kw


def _options(tree):
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(s, ast.AnnAssign) and s.value is not None
                and _field_has_default(s.value)
                for s in node.body
            )
    return count


def test_option_count_within_ceiling():
    count = sum(
        _options(ast.parse(p.read_text(encoding="utf-8"))) for p in SRC.glob("*.py")
    )
    assert count <= MAX_OPTIONS, (
        f"{count} options in src/lqbundle (ceiling {MAX_OPTIONS}): make a "
        "single-valued option a constant, or derive it from the inputs"
    )


def test_import_leaves_out_scipy_integrate():
    # scipy.integrate (via scipy.optimize) took 0.2 s of a 0.65 s import;
    # only the coercivity and Lyapunov stages need `simpson`
    code = ("import sys, lqbundle, lqbundle.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
