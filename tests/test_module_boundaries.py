"""Each supertrop module uses only the public names of the others."""

import ast
from pathlib import Path

import supertrop

PACKAGE = Path(supertrop.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """'module.name' for every underscore-prefixed name imported from a
    supertrop module, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "supertrop":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_guard_sees_private_imports():
    assert private_imports("from .tropmat import Matrix, _fold") == ["tropmat._fold"]
    assert private_imports("from supertrop.semiring import _canon") == ["supertrop.semiring._canon"]
    assert private_imports("from __future__ import annotations\nfrom os import _exit") == []


def test_no_module_imports_a_private_name_from_another():
    offenders = {path.name: private_imports(path.read_text(encoding="utf-8"))
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in offenders.items() if names} == {}


def unused_imports(source: str) -> list[str]:
    """Every name an import binds that the module never reads as a name
    (``from __future__`` imports aside)."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in used]


def test_guard_sees_unused_imports():
    assert unused_imports("from .maxpoly import roots, roots_outside\nroots(f)") == ["roots_outside"]
    assert unused_imports("import os.path as p\nimport json\njson.dumps(p.sep)") == []
    assert unused_imports("import os.path\nfrom __future__ import annotations") == ["os"]


def test_no_module_imports_a_name_it_does_not_use():
    """__init__.py is left out: its imports are the package's public names."""
    unused = {path.name: unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}
