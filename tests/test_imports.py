"""Every import in the package is used, every export exists, and every private name is read.

A name counts as used when the module reads it or lists it in ``__all__``.
An import kept on purpose for code outside the module carries ``noqa: F401``
on one of its lines, and must bind a name that ``bench/tracer.py`` replaces:
its ``WRAPPED`` table, read with ``ast``, lists each (module, name) pair.
Every name in a module's ``__all__`` must be bound at the module's top level.
The package's ``__init__`` builds its namespace with ``from .m import *`` and
its ``__all__`` from ``*m.__all__``; the static check reads both from module
``m``'s own ``__all__``, and a runtime check asserts that the package exports
each name once, as the very object of the one module that lists it.  A
module-level private name (``_name``, not a dunder) must be read by some
module of the package, so that code left behind by a refactor shows up.
"""

import ast
import importlib
import pathlib

import pytest

import sectorlap

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "sectorlap"
TRACER = PACKAGE.parent.parent / "bench" / "tracer.py"


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


def _tracer_only_imports(module: str, source: str) -> set[tuple[str, str]]:
    """The (module, name) pairs that ``noqa: F401`` imports in ``source`` bind."""
    lines = source.splitlines()
    return {
        (module, alias.asname or alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names
    }


def _wrapped(tracer_source: str) -> set[tuple[str, str]]:
    """The (module, name) pairs of the ``WRAPPED`` table of ``bench/tracer.py``."""
    (table,) = [
        node.value for node in ast.parse(tracer_source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPPED"]
    ]
    return {(row.elts[0].id, row.elts[1].value) for row in table.elts}


def test_every_kept_import_is_a_binding_the_tracer_wraps():
    kept = set().union(*(_tracer_only_imports(p.stem, p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))
    assert kept and kept - _wrapped(TRACER.read_text(encoding="utf-8")) == set()


def test_a_stray_kept_import_is_caught():
    tracer = 'import sectorlap.probe as probe\n\nWRAPPED = (\n    (probe, "integrate_ray", "quadrature"),\n)\n'
    source = "from .quadrature import integrate_ray, integrate_segment  # noqa: F401\nimport numpy as np\n"
    assert _tracer_only_imports("probe", source) - _wrapped(tracer) == {("probe", "integrate_segment")}


def _exports(source: str, siblings: dict[str, str]) -> tuple[set[str], list[str]]:
    """The names a module binds at top level, and its ``__all__``.

    ``from .m import *`` binds, and ``*m.__all__`` lists, the ``__all__`` of
    module ``m``, whose source is ``siblings[m]``.
    """
    defined, exported = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.ImportFrom) and node.names[0].name == "*":
            defined.update(_exports(siblings[node.module], siblings)[1])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        for elt in node.value.elts:
                            if isinstance(elt, ast.Starred):
                                exported += _exports(siblings[elt.value.value.id], siblings)[1]
                            else:
                                exported.append(elt.value)
    return defined, exported


def _undefined_exports(source: str, siblings: dict[str, str] | None = None) -> list[str]:
    """Names in ``__all__`` that no top-level def, class, assignment or import binds."""
    defined, exported = _exports(source, siblings or {})
    return [name for name in exported if name not in defined]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_export_is_defined(module):
    siblings = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _undefined_exports(siblings[module.removesuffix(".py")], siblings) == []


def test_a_stale_export_is_caught():
    source = '__all__ = ["S_GRID", "default_s_grid", "np"]\nimport numpy as np\nS_GRID: tuple = ()\n'
    assert _undefined_exports(source) == ["default_s_grid"]


def test_a_stale_reexport_is_caught():
    siblings = {
        "a": '__all__ = ["seed"]\n\ndef seed():\n    pass\n',
        "b": '__all__ = ["refine"]\nrefine = None\n',
    }
    source = "from . import a, b\nfrom .a import *\n\n__all__ = [*a.__all__, *b.__all__]\n"
    assert _undefined_exports(source, siblings) == ["refine"]


def test_the_package_exports_each_name_once_from_the_module_that_lists_it():
    owners = {}
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            module = importlib.import_module(f"sectorlap.{path.stem}")
            for name in getattr(module, "__all__", ()):
                owners.setdefault(name, []).append(module)
    assert len(set(sectorlap.__all__)) == len(sectorlap.__all__)
    for name in sectorlap.__all__:
        (module,) = owners[name]
        assert getattr(sectorlap, name) is getattr(module, name), name
    namespace = {}
    exec("from sectorlap import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sectorlap.__all__)


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions (def, class, assignment) that no module in ``sources`` reads.

    A read is a loaded name or an attribute of that name; dunder names are
    exempt.
    """
    defined, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module} line {line}: {name}" for module, line, name in defined if name not in read]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert _dead_private_names(sources) == []


def test_a_dead_private_name_is_caught():
    sources = {
        "a.py": "_CHUNK = 64\n_GROUP = 2048\n\ndef _seed(n):\n    return n * _CHUNK\n",
        "b.py": "from .a import _seed\n\ndef _unused():\n    return _seed(2)\n",
    }
    assert _dead_private_names(sources) == ["a.py line 2: _GROUP", "b.py line 3: _unused"]
