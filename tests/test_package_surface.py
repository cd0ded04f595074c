"""The package ships what the program runs.

Every top-level function and class of ``src/cfphase``, and every public
method, must be referenced somewhere in the package, apart from a short
list of entry points that the package exports for callers outside it.  A
helper that only the tests use belongs in ``tests/`` (``oracles.py`` holds
the independent ones).

References are counted by name: a load of the name, an attribute of that
name, or an import of it, anywhere in the package except ``__init__``'s
re-exports.  A name that is also used for something else therefore counts
as referenced, so the check can miss dead code but never flags live code.

Every ``__slots__`` field of a package class must likewise be read
somewhere in the package, apart from a short list of exported fields.
"""

import ast
from collections import Counter
from importlib import import_module
from pathlib import Path

import cfphase

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cfphase"

# exported entry points that nothing in the package calls itself, each of
# which perfbench hooks; assemble_displacement is the numpy displacement
# that the tests check the compiled snapshots.csv pass against, hooked as
# elasticity; MonitorAccumulator.accumulate is the per-step monitor fold of
# the tests' numpy reference kernel, hooked as estimates.accumulate; and
# compactness_distance is hooked as convergence.distance
ENTRY_POINTS = ["convergence.compactness_distance",
                "elasticity.assemble_displacement",
                "estimates.MonitorAccumulator.accumulate"]


def _definitions(tree, module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_only_entry_points_go_unreferenced():
    defined, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += _definitions(tree, path.stem)
        if path.stem != "__init__":
            referenced.update(_references(tree))
    assert len(defined) > 100  # the walk sees the whole package
    unreferenced = sorted(qual for qual, name in defined if name not in referenced)
    assert unreferenced == ENTRY_POINTS
    for qual in ENTRY_POINTS:
        owner = cfphase
        for name in qual.split(".")[1:]:
            owner = getattr(owner, name)



# record fields that the package exports for callers outside it and does
# not read itself
EXPORTED_FIELDS = ["solver.StepReport.dt",
                   "solver.StepReport.max_abs_s",
                   "solver.StepReport.max_grad_weight",
                   "solver.StepReport.reaction_max"]


def _reads(node, cls):
    """(cls, name) for each attribute that ``node`` loads through ``self``,
    and (None, name) for each other attribute it loads and each string
    constant in it."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            on_self = isinstance(sub.value, ast.Name) and sub.value.id == "self"
            yield (cls if on_self else None), sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield None, sub.value


def _is_own(item):
    """Whether a class body item is its ``__slots__`` or its ``__init__``."""
    if isinstance(item, ast.FunctionDef):
        return item.name == "__init__"
    return (isinstance(item, ast.Assign)
            and any(getattr(t, "id", None) == "__slots__" for t in item.targets))


def test_every_record_field_is_read():
    # a field counts as read when the package names it outside its own
    # class's __slots__ and __init__: as an attribute it loads, or as a
    # string (the case of getattr over a list of column names).  A load
    # through ``self`` names only the fields of that method's class and of
    # its bases, so a kernel's own ``self.dts`` cannot keep a trajectory's
    # ``dts`` alive.
    reads, own, fields = Counter(), {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = import_module(f"cfphase.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            cls = getattr(module, node.name) if isinstance(node, ast.ClassDef) else None
            reads.update(_reads(node, cls))
            if cls is not None:
                own[cls] = Counter(r for item in node.body if _is_own(item)
                                   for r in _reads(item, cls))
                fields += [(f"{path.stem}.{cls.__name__}.{name}", cls, name)
                           for name in vars(cls).get("__slots__", ())]
    assert len(fields) > 50  # the walk sees every record

    def read(cls, name):
        return any(n == name and (scope is None or cls in scope.__mro__)
                   and count > own[cls][scope, n]
                   for (scope, n), count in reads.items())

    assert sorted(qual for qual, cls, name in fields if not read(cls, name)) == EXPORTED_FIELDS


# defaulted parameters that no call passes.  MonitorAccumulator.build's tol
# stays: writing its value inline instead read 0.22 MiB more peak RSS on the
# benchmark's run-direct workload (bound 0.1 MiB), through the layout of the
# worker's heap, with the program doing the same work
NEVER_PASSED = ["estimates.build.tol"]

ROOT = PACKAGE.parents[1]
CALLERS = ["src", "tests", "tools", "perfbench"]


def _defaulted(tree, module):
    """(qualified name, call name, positional index or None, parameter) for
    each parameter with a default of each top-level function and each
    method, an ``__init__`` being called by its class's name."""
    funcs = [(node, node.name, False) for node in tree.body
             if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        funcs += [(item, cls.name if item.name == "__init__" else item.name, True)
                  for item in cls.body if isinstance(item, ast.FunctionDef)]
    for func, name, is_method in funcs:
        args = func.args
        first = len(args.args) - len(args.defaults)
        for i, arg in enumerate(args.args[first:], first):
            # a method's call passes self (or cls) by its object, not in
            # its argument list
            yield f"{module}.{name}.{arg.arg}", name, i - is_method, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{module}.{name}.{arg.arg}", name, None, arg.arg


def _passes(call, index, param):
    """Whether ``call`` passes the parameter at positional ``index`` (None
    for keyword-only) named ``param``: by position, by keyword, or through
    ``*`` or ``**``."""
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    if index is None:
        return False
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or len(call.args) > index)


def test_every_optional_parameter_is_passed_somewhere():
    # calls are matched by name, as above: a call of ``f`` or ``x.f``
    # counts for every function or method named f, so the check can miss
    # a parameter that nobody passes
    calls = {}
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    params = [p for path in sorted(PACKAGE.glob("*.py"))
              for p in _defaulted(ast.parse(path.read_text(encoding="utf-8")),
                                  path.stem)]
    assert len(params) > 30  # the walk sees the package's defaults
    never = sorted(qual for qual, name, index, param in params
                   if not any(_passes(c, index, param) for c in calls.get(name, ())))
    assert never == NEVER_PASSED
