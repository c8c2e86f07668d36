"""The kernels have one fixed size cap and no per-call knobs: no public
function takes `cap` except `determinant`, and none takes
`verify_stabilization` or `kmax`.  Each law check owns its draw constraint
and its exponents, so neither is a setting."""

import dataclasses
import importlib
import inspect
import pkgutil

import supertrop
from supertrop.lawcheck import GenConfig


def parameters(module) -> dict[str, set[str]]:
    """'module.function' -> parameter names, for every public function
    defined in module."""
    name = module.__name__.rsplit(".", 1)[-1]
    return {f"{name}.{fn_name}": set(inspect.signature(fn).parameters)
            for fn_name, fn in vars(module).items()
            if inspect.isfunction(fn) and not fn_name.startswith("_")
            and fn.__module__ == module.__name__}


def public_parameters() -> dict[str, set[str]]:
    found = {}
    for info in pkgutil.iter_modules(supertrop.__path__):
        if not info.name.startswith("_"):
            found.update(parameters(importlib.import_module(f"supertrop.{info.name}")))
    return found


def test_guard_sees_every_public_function():
    found = public_parameters()
    assert found["tropmat.determinant"] == {"a", "cap"}
    assert found["tropmat.kleene_star"] == {"a"}
    assert found["tropmat.power_sum"] == {"coeffs", "a"}
    assert found["tropmat.mat_pow"] == {"a", "k"}
    assert found["cli.main"] == {"argv"}
    assert not any(name.split(".")[1].startswith("_") for name in found)


def test_cap_only_on_determinant_and_no_verify_switch():
    found = public_parameters()
    assert [name for name, params in found.items() if "cap" in params] == \
        ["tropmat.determinant"]
    assert [name for name, params in found.items()
            if params & {"verify_stabilization", "kmax"}] == []


def test_law_checks_own_their_constraint_and_exponents():
    found = public_parameters()
    assert found["lawcheck.chk_charpoly_power"] == {"a"}
    assert found["lawcheck.gen_matrix"] == {"cfg", "constraint"}
    assert "constraint" not in {f.name for f in dataclasses.fields(GenConfig)}
