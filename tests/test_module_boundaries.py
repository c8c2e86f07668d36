"""Each supertrop module uses only the public names of the others, imports
only what it uses, and defines no private helper that nothing reads;
tropmat's handoff slot, its minors and its Elements each have one source;
only semiring converts between Elements and their int form;
one base class refuses assignment; and maxpoly's int layer names no
Element kind."""

import ast
from collections import Counter
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


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """'module.name' for every module-level private function or class of
    the modules in sources (name to source) that no module reads, as a name
    or an attribute, outside the definition's own body."""
    def reads(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute))
                       and isinstance(n.ctx, ast.Load))

    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = sum((reads(tree) for tree in trees.values()), Counter())
    return [f"{name}.{node.name}" for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and used[node.name] == reads(node)[node.name]]


def test_guard_sees_unreferenced_private_defs():
    sources = {
        "a": "def _called(): pass\ndef _recursive(): return _recursive()\n"
             "class _Unused: pass\ndef __getattr__(name): pass\n_called()\n"
             "_Unused = None\n",
        "b": "from . import a\ndef _kept_by_a(): pass\na._elsewhere = _kept_by_a\n",
        "c": "import a\ndef f(): return a._remote()\ndef _remote(): pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a._recursive", "a._Unused"]


def test_every_private_helper_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def functions_naming(source: str, name: str) -> list[str]:
    """The functions of source, nested ones included, whose bodies name
    `name`: as a read, a write or a global declaration."""
    return sorted({f.name for f in ast.walk(ast.parse(source))
                   if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and any(isinstance(n, ast.Name) and n.id == name
                           or isinstance(n, ast.Global) and name in n.names
                           for n in ast.walk(f))})


def functions_storing(source: str, name: str) -> list[str]:
    """The functions of source, nested ones included, that bind `name` to
    anything but None: any binding of it that is not a target of an
    assignment of the constant None."""
    found = set()
    for f in ast.walk(ast.parse(source)):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(f))
        cleared = {id(t) for n in nodes if isinstance(n, ast.Assign)
                   and isinstance(n.value, ast.Constant) and n.value.value is None
                   for t in n.targets}
        if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Store)
               and id(n) not in cleared for n in nodes):
            found.add(f.name)
    return sorted(found)


def test_guard_sees_functions_naming_the_slot():
    source = ("_slot = None\n"
              "def _rows(a):\n    return _slot[1] if _slot else a\n"
              "def _forward():\n    global _slot\n    _slot = ()\n"
              "def outer():\n    def inner():\n        return _slot\n    return inner\n"
              "def clean(slot):\n    return slot._slot\n"
              "def drop():\n    global _slot\n    _slot = slot = None\n"
              "def unpack(a):\n    global _slot\n    _slot, b = a\n"
              "def loop(a):\n    global _slot\n    for _slot in a:\n        pass\n")
    assert functions_naming(source, "_slot") == ["_forward", "_rows", "drop", "inner",
                                                 "loop", "outer", "unpack"]
    assert functions_storing(source, "_slot") == ["_forward", "loop", "unpack"]


def test_the_handoff_slot_has_one_owner():
    """_forward alone stores a fold in the slot and _rows alone reads it
    besides: no other tropmat function names it, and every assignment to it
    outside _forward assigns None."""
    source = (PACKAGE / "tropmat.py").read_text(encoding="utf-8")
    assert functions_naming(source, "_handoff") == ["_forward", "_rows"]
    assert functions_storing(source, "_handoff") == ["_forward"]


def test_guard_sees_functions_naming_the_fold():
    source = ("def _fold(rows, size):\n    return rows\n"
              "def _forward(a):\n    return _fold(a, 1)\n"
              "def check(c):\n    def inner():\n        return _fold([c], 2)\n    return inner\n"
              "def alias(f=_fold):\n    return f\n"
              "def passes(a):\n    return map(_fold, a)\n"
              "def reads(a):\n    return a._fold\n")
    assert functions_naming(source, "_fold") == ["_forward", "alias", "check", "inner", "passes"]


def test_only_the_kernels_fold():
    """_fold has three callers, each the permanent of a kernel: _forward
    (A's forward fold), _minors (the backward fold) and char_poly (the fold
    of xI + A).  No check folds: definite_form's conductor and
    pseudo_identity_class's class are implied by checks in polynomial time
    (see their docstrings)."""
    source = (PACKAGE / "tropmat.py").read_text(encoding="utf-8")
    assert functions_naming(source, "_fold") == ["_forward", "_minors", "char_poly"]


def test_the_minors_have_one_source():
    """_minors alone picks where A's minors come from (the kept closure,
    the kept adjoint or the fold): only adjugate and pseudo_inverse call
    it, and only _minors, is_definite and kleene_star read the closure."""
    source = (PACKAGE / "tropmat.py").read_text(encoding="utf-8")
    assert functions_naming(source, "_minors") == ["adjugate", "pseudo_inverse"]
    assert functions_naming(source, "_kept_closure") == ["_minors", "is_definite",
                                                         "kleene_star"]


def test_a_matrix_builds_its_elements_in_one_place():
    """semiring.elements_of, the builder of a list of Elements, is called
    in tropmat only by Matrix's readers `entries` and `row`.  Every kernel
    builds its result from ints, never its Elements."""
    source = (PACKAGE / "tropmat.py").read_text(encoding="utf-8")
    assert functions_naming(source, "elements_of") == ["entries", "row"]


RATIONAL_NAMES, RATIONAL_PARTS = {"rational", "Fraction"}, {"numerator", "denominator"}


def int_form_conversions(source: str) -> list[str]:
    """What source uses to convert a scalar to or from its int form by
    itself: every import of, name of or attribute named `rational` or
    `Fraction`, and every `.numerator` or `.denominator`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name.split(".")[-1] in RATIONAL_NAMES:
            found.add(node.name)
        elif isinstance(node, ast.Name) and node.id in RATIONAL_NAMES:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in RATIONAL_NAMES | RATIONAL_PARTS:
            found.add(f".{node.attr}")
    return sorted(found)


def test_guard_sees_int_form_conversions():
    assert int_form_conversions(
        "from fractions import Fraction\nimport fractions\n"
        "def f(e, s):\n    return e.value.numerator * (s // e.value.denominator)\n"
        "def g(m, s):\n    return fractions.Fraction(m, s)\n"
        "def h(m, s):\n    return rational(m, s)\n") == [
            ".Fraction", ".denominator", ".numerator", "Fraction", "rational"]
    assert int_form_conversions(
        "from .semiring import read_ints\ndef f(es):\n    return read_ints(es)\n"
        "\"\"\"Fraction and rational in text.\"\"\"\n") == []


def test_only_semiring_converts_between_elements_and_ints():
    """semiring's read_ints, element_of and elements_of are the one codec
    between Elements and the int form: tropmat, maxpoly and spectral
    neither import nor name rational or Fraction, nor read a numerator or
    a denominator."""
    found = {name: int_form_conversions((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
             for name in ("tropmat", "maxpoly", "spectral")}
    assert found == {"tropmat": [], "maxpoly": [], "spectral": []}


def methods_defined(sources: dict[str, str], names: set[str]) -> list[str]:
    """'module.Class.name' for every method among `names` that a class of
    the modules in sources (name to source) defines."""
    return sorted(f"{module}.{cls.name}.{f.name}" for module, source in sources.items()
                  for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
                  for f in cls.body if isinstance(f, ast.FunctionDef) and f.name in names)


def test_guard_sees_methods_defined():
    sources = {"a": "class A:\n    def __setattr__(self, n, v): pass\n    def f(self): pass\n",
               "b": "def __delattr__(n): pass\nclass B:\n    class C:\n"
                    "        def __delattr__(self, n): pass\n"}
    assert methods_defined(sources, {"__setattr__", "__delattr__"}) == [
        "a.A.__setattr__", "b.C.__delattr__"]


def test_one_base_refuses_assignment():
    """Element, Polynomial and Matrix are immutable through one base class:
    only semiring.Immutable defines __setattr__ and __delattr__."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert methods_defined(sources, {"__setattr__", "__delattr__"}) == [
        "semiring.Immutable.__delattr__", "semiring.Immutable.__setattr__"]


def test_maxpoly_int_helpers_carry_ghost_flags():
    """maxpoly's int layer holds a scalar as a magnitude and a ghost flag,
    as a Matrix view does: none of its helpers names an Element kind."""
    source = (PACKAGE / "maxpoly.py").read_text(encoding="utf-8")
    helpers = {"_read", "_hull", "_breakpoints", "_comparison_grid", "_values", "_grid_values"}
    assert helpers <= {f.name for f in ast.parse(source).body if isinstance(f, ast.FunctionDef)}
    for kind in ("NEG_INF_KIND", "TANGIBLE_KIND", "GHOST_KIND"):
        assert helpers.isdisjoint(functions_naming(source, kind)), kind
