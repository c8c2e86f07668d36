"""The names the benchmark's tracer wraps all exist in supertrop, and a
sweep reaches them.

bench/tracer.py is read as source, never imported or changed: its SPANNED
pairs and CHECK_IDS are literals, taken with ast.literal_eval.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

from supertrop import cli, lawcheck

from conftest import rebind_everywhere

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_literals() -> dict:
    """Every module-level NAME = <literal> assignment in the tracer."""
    found = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                found[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return found


def test_every_spanned_function_resolves():
    spanned = tracer_literals()["SPANNED"]
    assert spanned
    for module, function in spanned:
        assert callable(getattr(importlib.import_module(f"supertrop.{module}"), function)), \
            f"{module}.{function}"


def test_generation_boundary_exists():
    assert callable(lawcheck._gen_with_rng)


def test_tracer_check_ids_match():
    assert tracer_literals()["CHECK_IDS"] == lawcheck.CHECK_IDS


# Spanned functions that no `check --suite all` call reaches: poly_pow has
# no caller in the library, only `compute eigen` calls eigenvalues, and
# only `explore` and one-check callers call run_check (the suite runs its
# own trial loop).  No check calls roots, essential or poly_value_equal:
# the charpoly-power check compares value surpassing only, and the laws
# that read them are tier-1 theorems.
OFF_THE_SWEEP = {"maxpoly.poly_pow", "spectral.eigenvalues", "lawcheck.run_check",
                 "maxpoly.roots", "maxpoly.essential", "maxpoly.poly_value_equal"}


def test_a_sweep_reaches_every_other_spanned_function(monkeypatch, tmp_path):
    """A span that reads 0 on working code shows nothing, so every spanned
    function but those in OFF_THE_SWEEP is called by one pinned
    `check --suite all --n 5` call.  One `explore --n 4` call reaches
    run_check."""
    calls = Counter()

    def counting(name):
        return lambda fn: lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    spanned = [f"{module}.{function}" for module, function in tracer_literals()["SPANNED"]]
    for name in spanned:
        module, function = name.split(".")
        rebind_everywhere(monkeypatch, importlib.import_module(f"supertrop.{module}"),
                          function, counting(name))
    assert cli.main(["check", "--suite", "all", "--n", "5", "--trials", "2", "--seed", "1",
                     "--out", str(tmp_path / "report.json")]) == 0
    assert {name for name in spanned if not calls[name]} == OFF_THE_SWEEP
    assert cli.main(["explore", "--n", "4", "--trials", "2", "--seed", "1",
                     "--out", str(tmp_path / "found.json")]) == 0
    assert calls["lawcheck.run_check"] == 1
