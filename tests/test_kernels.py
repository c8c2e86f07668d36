"""The subset-fold kernels against the enumeration oracles, on tie-heavy
inputs, and their self-checks as typed errors."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from supertrop import (
    adjugate,
    char_poly,
    definite_form,
    determinant,
    is_definite,
    mat_mul,
)
from supertrop.lawcheck import GenConfig, gen_matrix

from conftest import naive_adj, naive_char_poly, naive_det

# Matrices per order; the oracles enumerate n! tracks per minor.
COUNTS = {1: 40, 2: 60, 3: 60, 4: 60, 5: 40, 6: 25, 7: 10}


def tie_heavy(n, seed):
    """Numerators in [-2, 2] over 1 or 2, a fifth -inf and a tenth ghosts:
    maxima are often tied, which is where ghost-ness is decided."""
    return gen_matrix(GenConfig(n=n, numerator_range=(-2, 2), denominator=1 + seed % 2,
                                neginf_prob=Fraction(1, 5), ghost_prob=Fraction(1, 10),
                                seed=seed))


def cases(n):
    return [tie_heavy(n, 100 * n + t) for t in range(COUNTS[n])]


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_determinant_matches_oracle_on_ties(n):
    for a in cases(n):
        assert determinant(a) == naive_det(a)


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_adjugate_matches_oracle_on_ties(n):
    for a in cases(n):
        assert adjugate(a) == naive_adj(a)


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_char_poly_matches_oracle_on_ties(n):
    for a in cases(n):
        assert char_poly(a).coeffs == naive_char_poly(a).coeffs


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_definite_form_follows_the_dominant_track_on_ties(n):
    seen = 0
    for a in cases(n):
        if not determinant(a).is_tangible:
            continue
        seen += 1
        tracks = [p for p in permutations(range(n))
                  if not any(a.at(i, p[i]).is_neg_inf for i in range(n))]
        top = max(sum(a.at(i, p[i]).value for i in range(n)) for p in tracks)
        [pi] = [p for p in tracks if sum(a.at(i, p[i]).value for i in range(n)) == top]
        for side in ("left", "right"):
            conductor, definite = definite_form(a, side)
            support = [(i, j) for i in range(n) for j in range(n)
                       if not conductor.at(i, j).is_neg_inf]
            assert support == [(i, pi[i]) for i in range(n)]
            assert all(conductor.at(i, pi[i]) == a.at(i, pi[i]) for i in range(n))
            assert is_definite(definite)
            product = mat_mul(conductor, definite) if side == "left" \
                else mat_mul(definite, conductor)
            assert product == a
    assert seen > 0


@pytest.mark.parametrize("seed, numerators", [(12, (-2, 2)), (13, (-1000, 1000))])
def test_order_twelve_laplace_and_constant_coefficient(seed, numerators):
    a = gen_matrix(GenConfig(n=12, numerator_range=numerators, denominator=2, seed=seed))
    d = determinant(a)
    product = mat_mul(a, adjugate(a))
    assert [product.at(i, i) for i in range(12)] == [d] * 12
    assert char_poly(a).coeff(0) == d


# Each self-check is forced to fail by a monkeypatch; run under -O, where an
# assert would have vanished.
FORCED_FAILURES = r'''
import sys
from supertrop import VerificationError, is_invertible, neg_inf_matrix, tangible
from supertrop import tropmat
from conftest import mat

if sys.flags.optimize < 1:
    sys.exit("not running under -O")


def forced(patch, call):
    saved = {name: getattr(tropmat, name) for name in patch}
    for name, fn in patch.items():
        setattr(tropmat, name, fn)
    try:
        call()
    except VerificationError as exc:
        return str(exc)
    finally:
        for name, fn in saved.items():
            setattr(tropmat, name, fn)
    return "no error"


det = tropmat.determinant
star_step = tropmat._star_step
steps = []


def jumping_step(p, grid, n):
    """The true product for the truncation, then one jump past it, then
    nothing more: a fixpoint that the truncation missed."""
    steps.append(p)
    if len(steps) < n:
        return star_step(p, grid, n)
    return [100 if len(steps) == n else None] * (n * n)


a = mat("1 0; 3 4")
print(forced({"determinant": lambda m, cap: tangible(0)},
             lambda: tropmat.definite_form(mat("-inf -inf; -inf -inf"))))
print(forced({"mat_mul": lambda x, y: neg_inf_matrix(x.rows, y.cols)},
             lambda: tropmat.definite_form(a)))
print(forced({"is_definite": lambda m, cap: False},
             lambda: tropmat.definite_form(a)))
print(forced({"determinant": lambda m, cap: tangible(99) if is_invertible(m) else det(m, cap)},
             lambda: tropmat.definite_form(a)))
print(forced({"is_definite": lambda m, cap: True},
             lambda: tropmat.kleene_star(mat("0 1; 1 0"), verify_stabilization=True)))
print(forced({"_star_step": jumping_step},
             lambda: tropmat.kleene_star(mat("0 -1; -2 0"), verify_stabilization=True)))
'''


def test_self_checks_raise_typed_errors_under_optimize():
    root = Path(__file__).resolve().parents[1]
    env_path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    proc = subprocess.run([sys.executable, "-O", "-c", FORCED_FAILURES],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": env_path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "no permutation track attains the determinant",
        "definite factorization failed to reassemble the input",
        "definite factor is not definite",
        "conductor does not carry det(A)",
        "star failed to stabilize",
        "truncated star disagrees with the fixpoint",
    ]
