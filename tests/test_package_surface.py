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
"""

import ast
from pathlib import Path

import cfphase

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cfphase"

# exported entry points that nothing in the package calls itself
ENTRY_POINTS = ["convergence.compactness_distance", "solver.cfl_dt"]


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
        assert hasattr(cfphase, qual.rpartition(".")[2]), qual
