"""Every import in the package is used by the module that makes it, and every export exists.

A name counts as used when the module reads it or lists it in ``__all__``
(the package's re-exports).  An import kept on purpose for code outside the
module carries ``noqa: F401`` on one of its lines.  Every name in a module's
``__all__`` (the package's included) must be bound at the module's top level.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sectorlap"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line of its import
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                    imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = "from .catalog import pick_oracle, type_for\nfrom .quadrature import x  # noqa: F401\ntype_for(1)\n"
    assert _unused_imports(source) == ["line 1: pick_oracle"]


def _undefined_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level def, class, assignment or import binds."""
    defined, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = [elt.value for elt in node.value.elts]
    return [name for name in exported if name not in defined]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_export_is_defined(module):
    assert _undefined_exports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_a_stale_export_is_caught():
    source = '__all__ = ["S_GRID", "default_s_grid", "np"]\nimport numpy as np\nS_GRID: tuple = ()\n'
    assert _undefined_exports(source) == ["default_s_grid"]
