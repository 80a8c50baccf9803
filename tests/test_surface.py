"""The package exports only names that the program itself reads.

A name in `divcert.__all__` must be read somewhere outside its own
definition: in a module of `src/divcert/` other than `__init__.py`, in the
benchmark (`perfbench/*.py`) or in the acceptance suite.  A name that only
the unit tests read is not part of the program's surface.
"""

import ast
from pathlib import Path

import divcert

ROOT = Path(__file__).resolve().parent.parent


def read_names(node: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Every name read under `node`, as a variable or an attribute, except
    inside the function or class of that name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside |= {node.name}
    names = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    names -= inside
    for child in ast.iter_child_nodes(node):
        names |= read_names(child, inside)
    return names


def test_every_export_is_read_by_the_program():
    files = [p for p in (ROOT / "src" / "divcert").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    read = set().union(*(read_names(ast.parse(p.read_text(encoding="utf-8"))) for p in files))
    assert sorted(set(divcert.__all__) - read) == []
