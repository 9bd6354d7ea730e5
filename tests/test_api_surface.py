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

Public fields of top-level dataclasses follow the same rule, with the KEEP
key `Class.field`: a use is a read of the field by name, and `self.<name>`
resolves to its own class as for methods.

So does every defaulted parameter of a public function or method: some
library call must pass it, else the default is the only value a run uses.
The KEEP key is `function.param`, `Class.param` for a constructor and
`Class.method.param` for a method.  A call passes the parameter by keyword
or by position; an argument that only forwards a defaulted parameter of the
calling function passes it only if that one is passed in turn.  The
parameters of a function in KEEP count as passed by its outside callers.
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
    # dataclass fields
    "NonoscillationResult.feedback": "the four-argument extract_nonoscillation "
    "of perfbench/worker.py (until it reads a run report), TestNonoscillation, "
    "TestRiccati",
    "NonoscillationResult.riccati_residual": "the four-argument "
    "extract_nonoscillation of perfbench/worker.py, TestNonoscillation, "
    "criterion 02",
    # defaulted parameters
    **dict.fromkeys(
        ("extract_nonoscillation.a", "extract_nonoscillation.b",
         "extract_nonoscillation.form"),
        "the four-argument extract_nonoscillation of perfbench/worker.py "
        "(until it reads a run report), TestNonoscillation, TestRiccati",
    ),
    "main.argv": "the CLI tests, and perfbench/worker.py's in-process verify",
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


def _methods(cls):
    """(name, node) of the public methods (and properties) of a class."""
    return [
        (node.name, node) for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _fields(cls):
    """(name, node) of the public fields of a dataclass."""
    if not _is_dataclass(cls):
        return []
    return [
        (node.target.id, node) for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and not node.target.id.startswith("_")
    ]


def _member_surface(members, parsed=None):
    """({Class.member: (module, first line, last line)}, {Class.member read
    by other library code}) for the members that `members(cls)` lists, a
    use being an attribute read by name.

    `self.<name>` resolves to its enclosing class (or a library base class
    of it) and is a use of that class's member only; any other `x.<name>`
    is a use of every class's member of that name.
    """
    parsed = _parsed() if parsed is None else parsed
    defined, used, bases = {}, set(), {}
    for stem, tree in parsed:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases[cls.name] = [b.id for b in cls.bases if isinstance(b, ast.Name)]
            for name, node in members(cls):
                defined[f"{cls.name}.{name}"] = (stem, node.lineno, node.end_lineno)

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
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
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
    defined, used = _member_surface(_methods)
    unused = sorted(key for key in defined if key not in used and key not in KEEP)
    assert unused == [], (
        "public methods that no other library code calls; delete them or add "
        f"them to KEEP with the test or criterion that needs them: {unused}"
    )


def test_every_public_field_is_read_or_kept():
    defined, used = _member_surface(_fields)
    unused = sorted(key for key in defined if key not in used and key not in KEEP)
    assert unused == [], (
        "public dataclass fields that no library code reads; delete them or "
        f"add them to KEEP with the test or criterion that needs them: {unused}"
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
    defined, used = _member_surface(_methods, [("snippet", ast.parse(TWO_CLASSES))])
    assert "Driver.shift" in defined and "Driver.shift" not in used
    # a method reached through `self` in its own class or a subclass is used
    assert {"Evaluator.scale", "Evaluator.value"} <= used
    assert "Scaled.doubled" not in used


# A dataclass field read through `self` in its own method, fields that only
# a constructor names, and a plain class's attribute of the same name.
DATACLASSES = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Fiber:
    m: float
    q: float

    def weight(self):
        return 1.0 + self.m ** 2


@dataclass
class Grid:
    q: float
    times: tuple


class Solver:
    def __init__(self, q):
        self.q = q

    def phase(self):
        return self.q
"""


def test_field_reads_resolve_to_their_own_class():
    defined, used = _member_surface(_fields, [("snippet", ast.parse(DATACLASSES))])
    assert set(defined) == {"Fiber.m", "Fiber.q", "Grid.q", "Grid.times"}
    # Solver's self.q is neither a write nor a read of a dataclass field
    assert used == {"Fiber.m"}


def _defaulted_parameters(parsed):
    """({key}, {def node id: {parameter: key}}, {callee name: [(key,
    parameter, index among the positional arguments or None)]}) of the
    defaulted parameters of the public functions, constructors and methods."""
    params, scopes, by_callee = set(), {}, {}

    def add(node, callee, prefix, skip_self):
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        names = [(a, positional.index(a) - skip_self) for a in defaulted]
        names += [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        scope = scopes.setdefault(id(node), {})
        for arg, index in names:
            key = f"{prefix}.{arg.arg}"
            params.add(key)
            scope[arg.arg] = key
            by_callee.setdefault(callee, []).append((key, arg.arg, index))

    for _, tree in parsed:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                add(node, node.name, node.name, 0)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for meth in node.body:
                    if not isinstance(meth, ast.FunctionDef):
                        continue
                    if meth.name == "__init__":
                        add(meth, node.name, node.name, 1)
                    elif not meth.name.startswith("_"):
                        add(meth, meth.name, f"{node.name}.{meth.name}", 1)
    return params, scopes, by_callee


def _passes(parsed, scopes, by_callee):
    """(parameter key, the key of the defaulted parameter that its argument
    only forwards, else None) for each library call that passes one."""
    for _, tree in parsed:
        enclosing = {}  # id(node): ids of the defs around it, outermost first
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for child in ast.walk(node):
                    if child is not node:
                        enclosing.setdefault(id(child), []).append(id(node))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            keywords = {k.arg: k.value for k in call.keywords}
            starred = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
            for key, name, index in by_callee.get(callee, ()):
                if name in keywords:
                    value = keywords[name]
                elif index is not None and index < len(call.args) and not starred:
                    value = call.args[index]
                elif starred:
                    value = None
                else:
                    continue
                source = None
                if isinstance(value, ast.Name):
                    for scope in reversed(enclosing.get(id(call), [])):
                        if value.id in scopes.get(scope, {}):
                            source = scopes[scope][value.id]
                            break
                yield key, source


def _unpassed_parameters(parsed, keep):
    """The sorted keys of the defaulted parameters that no library call
    passes, the parameters of a function in `keep` counting as passed."""
    params, scopes, by_callee = _defaulted_parameters(parsed)
    passes = list(_passes(parsed, scopes, by_callee))
    passed = {key for key in params if key in keep or key.rsplit(".", 1)[0] in keep}
    while True:
        grown = passed | {key for key, source in passes if source is None or source in passed}
        if grown == passed:
            return sorted(params - passed)
        passed = grown


def test_every_defaulted_parameter_is_passed_or_kept():
    unpassed = _unpassed_parameters(_parsed(), KEEP)
    assert unpassed == [], (
        "defaulted parameters that no library call passes; make the default "
        f"the code, or add them to KEEP with what needs them: {unpassed}"
    )


# A defaulted parameter that only forwards another unpassed one, a method's
# parameter passed by position, and a constructor's by keyword.
PARAMETERS = """
class Evaluator:
    def __init__(self, a, shift=0.0):
        self.shift = shift

    def rows(self, omegas, batch=64):
        return omegas


def margin(a, shift=0.0, full=False):
    ev = Evaluator(a, shift=shift)
    return ev.rows(a, 32)


def run(a):
    return margin(a, full=True)
"""


def test_forwarded_default_is_not_passed():
    parsed = [("snippet", ast.parse(PARAMETERS))]
    assert _unpassed_parameters(parsed, {}) == ["Evaluator.shift", "margin.shift"]
    # a caller outside the library passes the parameters of a kept function
    assert _unpassed_parameters(parsed, {"margin": ""}) == []


def test_keep_lists_only_unused_names():
    defined, used = _surface()
    methods, methods_used = _member_surface(_methods)
    fields, fields_used = _member_surface(_fields)
    unpassed = _unpassed_parameters(_parsed(), {})
    stale = sorted(
        name for name in KEEP
        if not any(key[1] == name and key not in used for key in defined)
        and not (name in methods and name not in methods_used)
        and not (name in fields and name not in fields_used)
        and name not in unpassed
    )
    assert stale == [], (
        f"KEEP entries the library no longer defines or already uses: {stale}"
    )


# Defaulted `def` parameters plus defaulted dataclass init fields in
# src/lqbundle/*.py.  Lower it when options go; raising it needs two callers
# that want different values.
MAX_OPTIONS = 19


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
    # scipy.integrate (via scipy.optimize) took 0.2 s of a 0.65 s import and
    # 22 MB of a verify process's peak.  Neither the import nor a whole
    # `verify` of S1 and of n40_j0, whose coercivity and Lyapunov stages
    # integrate by Simpson's rule, loads it, nor scipy.sparse.  scipy.linalg
    # (0.16 s) is loaded by the stationary constructions alone: the import,
    # loading every benchmark scenario and a whole sa-standard `verify` load
    # no scipy module at all
    scenarios = SRC.parents[1] / "perfbench" / "scenarios"
    code = ("import sys, lqbundle, lqbundle.cli\n"
            f"path = {str(scenarios)!r} + '/{{}}.json'\n"
            "def scipy_modules(*prefixes):\n"
            "    return [m for m in sys.modules if m.startswith(prefixes)]\n"
            "for name in ('s1', 'n40_j0', 'n40_j1', 'sa_standard'):\n"
            "    lqbundle.cli.load_scenario(path.format(name))\n"
            "assert lqbundle.cli.main(['verify', '--scenario', path.format('sa_standard')]) == 0\n"
            "assert not scipy_modules('scipy'), scipy_modules('scipy')\n"
            "for name in ('s1', 'n40_j0'):\n"
            "    assert lqbundle.cli.main(['verify', '--scenario', path.format(name)]) == 0\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "assert not scipy_modules('scipy.integrate', 'scipy.sparse'), "
            "scipy_modules('scipy.integrate', 'scipy.sparse')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    for record in ("coercivity-ratio", "lyapunov-inequality"):
        assert done.stdout.count(f"[PASS] {record}:") == 2
    assert done.stdout.count("[PASS] contraction-mid:") == 1


def test_import_leaves_out_scipy_sparse():
    # the LP eliminates with dense LAPACK fronts, so nothing a run executes
    # needs scipy.sparse or scipy.sparse.linalg (about 37 ms of the import)
    code = ("import sys, lqbundle, lqbundle.cli; "
            "sys.exit(any(m.startswith('scipy.sparse') for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
