"""The names the benchmark's tracer wraps all exist in supertrop.

bench/tracer.py is read as source, never imported or changed: its SPANNED
pairs and CHECK_IDS are literals, taken with ast.literal_eval.
"""

import ast
import importlib
from pathlib import Path

from supertrop import lawcheck

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
