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

# exported entry points that nothing in the package calls itself;
# assemble_displacement is the numpy displacement that the tests check the
# compiled snapshots.csv pass against, and perfbench hooks it as
# elasticity; MonitorAccumulator.accumulate is the per-step monitor fold of
# the tests' numpy reference kernel, and perfbench hooks it as
# estimates.accumulate
ENTRY_POINTS = ["convergence.compactness_distance",
                "elasticity.assemble_displacement",
                "estimates.MonitorAccumulator.accumulate", "solver.cfl_dt"]


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
