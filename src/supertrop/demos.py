"""Built-in worked examples with embedded expected values.

Each demo recomputes every displayed quantity of one worked example and
diffs it, bit-exactly, against the expected rendering.  The goldens were
derived independently by hand (permutation-track enumeration for the
determinants and minors, direct convolution for the polynomials), so a
mismatch localizes a defect to a single operation.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .maxpoly import format_poly, poly_ghost_surpasses, roots
from .semiring import format_scalar, ghost_surpasses, mul, parse_scalar
from .spectral import char_poly, conjugate, trace
from .tropmat import (
    Matrix,
    determinant,
    format_matrix,
    mat_ghost_surpasses,
    mat_mul,
    mat_nu_equiv,
    mat_pow,
    pseudo_identity_class,
    pseudo_inverse,
    pseudo_inverse_iter,
)


class DemoLine(NamedTuple):
    label: str
    got: str
    want: str

    @property
    def ok(self) -> bool:
        return self.got == self.want


def _mat(text: str) -> Matrix:
    return Matrix.from_rows(
        [[parse_scalar(tok) for tok in row.split()] for row in text.split(";")]
    )


def _bool(b: bool) -> str:
    return "true" if b else "false"


def demo_2_30() -> list[DemoLine]:
    """A 2x2 matrix whose square picks up an extra eigenvalue region."""
    a = _mat("0 0; 1 2")
    a2 = mat_pow(a, 2)
    f_a = char_poly(a)
    f_a2 = char_poly(a2)
    return [
        DemoLine("A^2", format_matrix(a2), "1 2; 3 4"),
        DemoLine("char poly of A", format_poly(f_a), "2, 2, 0"),
        DemoLine("char poly of A^2", format_poly(f_a2), "5g, 4, 0"),
        DemoLine("roots of A", str(roots(f_a)), "corner: (0, 1), (2, 1); noncorner: none"),
        DemoLine("roots of A^2", str(roots(f_a2)), "corner: (4, 1); noncorner: [-inf, 1]"),
    ]


def demo_3_6() -> list[DemoLine]:
    """Iterated pseudo-inverses settle into a period-two orbit.

    The odd iterates from the third on carry ghosts on the diagonal where
    tied minor tracks accumulate; they match the first iterate in
    magnitude, while the even iterates repeat exactly.
    """
    two = _mat("1 0; 3 4")
    a = _mat("0 0 -inf; -inf 0 0; 1 -inf 0")
    n1 = pseudo_inverse(a)
    n2 = pseudo_inverse(n1)
    n3 = pseudo_inverse(n2)
    n4 = pseudo_inverse(n3)
    return [
        DemoLine("2x2 double pseudo-inverse returns the matrix",
                 _bool(pseudo_inverse_iter(two, 2) == two), "true"),
        DemoLine("A^inv", format_matrix(n1), "-1 -1 -1; 0 -1 -1; 0 0 -1"),
        DemoLine("A^inv(2)", format_matrix(n2), "0 0 -1g; 0g 0 0; 1 0g 0"),
        DemoLine("A^inv(3)", format_matrix(n3), "-1g -1 -1; 0 -1g -1; 0 0 -1g"),
        DemoLine("A^inv(4)", format_matrix(n4), "0 0 -1g; 0g 0 0; 1 0g 0"),
        DemoLine("A^inv(3) matches A^inv in magnitude", _bool(mat_nu_equiv(n3, n1)), "true"),
        DemoLine("A^inv(4) equals A^inv(2)", _bool(n4 == n2), "true"),
    ]


def demo_5_3() -> list[DemoLine]:
    """Conjugation: a similar pair and a merely conjugate pair.

    In the first part the conjugated polynomial surpasses the original one
    coefficient-wise.  The second part conjugates up to ghost surpassing
    only, and the determinants end up incomparable.
    """
    a1 = _mat("2 0; 1 0")
    b1 = _mat("1 2; 3 1")
    c1 = conjugate(a1, b1)
    f_c1 = char_poly(c1)
    f_b1 = char_poly(b1)

    a2 = _mat("0 1g; -inf 0")
    b2 = _mat("0 0; 1 2")
    b2_target = _mat("1 3; 1 2")
    c2 = conjugate(a2, b2)
    return [
        DemoLine("conjugate (part 1)", format_matrix(c1), "3 1; 5 3"),
        DemoLine("char poly of conjugate", format_poly(f_c1), "6g, 3g, 0"),
        DemoLine("char poly of B", format_poly(f_b1), "5, 1g, 0"),
        DemoLine("conjugate poly surpasses B poly",
                 _bool(poly_ghost_surpasses(f_c1, f_b1)), "true"),
        DemoLine("trace of conjugate", format_scalar(trace(c1)), "3g"),
        DemoLine("conjugate (part 2)", format_matrix(c2), "2g 3g; 1 2g"),
        DemoLine("conjugate surpasses target",
                 _bool(mat_ghost_surpasses(c2, b2_target)), "true"),
        DemoLine("det of B (part 2)", format_scalar(determinant(b2)), "2"),
        DemoLine("det of target (part 2)", format_scalar(determinant(b2_target)), "4"),
        DemoLine("dets do not surpass either way",
                 _bool(not ghost_surpasses(determinant(b2_target), determinant(b2))
                       and not ghost_surpasses(determinant(b2), determinant(b2_target))),
                 "true"),
        DemoLine("det of conjugate (part 2)", format_scalar(determinant(c2)), "4g"),
        DemoLine("conjugate det surpasses det of B",
                 _bool(ghost_surpasses(determinant(c2), determinant(b2))), "true"),
    ]


def demo_6_1() -> list[DemoLine]:
    """Pseudo-inverse reverses the characteristic coefficients here."""
    a = _mat("1 0 -inf; 3 4 -inf; -inf -inf 1")
    d = determinant(a)
    n1 = pseudo_inverse(a)
    f_a = char_poly(a)
    f_n = char_poly(n1)
    scaled = [mul(d, c) for c in f_n.coeffs]
    reversed_f_a = list(reversed(f_a.coeffs))
    return [
        DemoLine("det", format_scalar(d), "6"),
        DemoLine("A^inv", format_matrix(n1), "-1 -5 -inf; -2 -4 -inf; -inf -inf -1"),
        DemoLine("char poly of A", format_poly(f_a), "6, 5g, 4, 0"),
        DemoLine("char poly of A^inv", format_poly(f_n), "-6, -2, -1g, 0"),
        DemoLine("det * char poly of A^inv",
                 ", ".join(format_scalar(c) for c in scaled), "0, 4, 5g, 6"),
        DemoLine("char poly of A reversed",
                 ", ".join(format_scalar(c) for c in reversed_f_a), "0, 4, 5g, 6"),
        DemoLine("coefficients reversed exactly", _bool(scaled == reversed_f_a), "true"),
        DemoLine("A A^inv is a pseudo-identity",
                 pseudo_identity_class(mat_mul(a, n1)).value, "pseudo_identity"),
    ]


DEMOS: dict[str, Callable[[], list[DemoLine]]] = {
    "2.30": demo_2_30,
    "3.6": demo_3_6,
    "5.3": demo_5_3,
    "6.1": demo_6_1,
}


def run_demo(demo_id: str) -> list[DemoLine]:
    if demo_id not in DEMOS:
        raise KeyError(f"unknown demo {demo_id!r}; known: {', '.join(sorted(DEMOS))}")
    return DEMOS[demo_id]()
