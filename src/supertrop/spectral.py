"""Characteristic polynomials, eigenvalues, and tropical similarity.

char_poly is the kernel tropmat.char_poly, re-exported here: it keeps a
matrix's characteristic polynomial in the matrix's memo and returns that
one polynomial on every call.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatchError
from .maxpoly import Polynomial, RootSet, roots
from .semiring import (
    GHOST_KIND,
    NEG_INF,
    Element,
    add,
)
from .tropmat import (
    Matrix,
    char_poly,
    mat_ghost_surpasses,
    mat_mul,
    power_sum,
    pseudo_inverse,
    require_square,
    scalar_mul,
)


def trace(a: Matrix) -> Element:
    require_square(a)
    acc = NEG_INF
    for i in range(a.rows):
        acc = add(acc, a.at(i, i))
    return acc


def eigenvalues(a: Matrix) -> RootSet:
    """Roots of the characteristic polynomial.  Corner values are tangible;
    -inf shows up as (part of) a non-corner interval, in particular as the
    degenerate point interval when the constant coefficient is -inf."""
    return roots(char_poly(a))


def check_eigenpair(a: Matrix, v: Sequence[Element], alpha: Element) -> bool:
    """True iff A v ghost-surpasses alpha v entrywise.

    The vector must have no ghost entries and alpha must be tangible or
    -inf; ghost inputs are rejected rather than silently projected.
    """
    require_square(a)
    if len(v) != a.rows:
        raise DimensionMismatchError(f"vector length {len(v)} does not match n = {a.rows}")
    if any(e.kind == GHOST_KIND for e in v):
        raise ValueError("eigenvector entries must be tangible or -inf")
    if alpha.kind == GHOST_KIND:
        raise ValueError("eigenvalue must be tangible or -inf")
    col = Matrix(a.rows, 1, v)
    return mat_ghost_surpasses(mat_mul(a, col), scalar_mul(alpha, col))


def eval_at_matrix(f: Polynomial, a: Matrix) -> Matrix:
    """Substitute the matrix for the variable: sum of coeff(i) * A^i with
    A^0 = I, all supertropically (tropmat.power_sum)."""
    return power_sum(f.coeffs, a)


def conjugate(a: Matrix, b: Matrix) -> Matrix:
    """The conjugation pseudo_inverse(A) * B * A (defined whenever det(A)
    is not -inf)."""
    require_square(a)
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatchError("conjugation needs matrices of equal order")
    return mat_mul(mat_mul(pseudo_inverse(a), b), a)
