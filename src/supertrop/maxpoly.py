"""Univariate supertropical polynomials.

A polynomial is a dense coefficient list indexed by exponent.  Evaluation
sums its monomials supertropically, so ties and ghost coefficients ghostify
the value.  The map of a polynomial is its essential form, and every
decision about the map reads that form.  Roots are the points whose value
ghost-surpasses -inf; they come in two flavours: corner roots at the
crossover of two tangible essential monomials, and non-corner intervals
where ghost essential monomials dominate.  Two polynomials are equal as
maps when their essential forms are equal; the other comparisons evaluate
the two essential forms at -inf and at and between the breakpoints of those
forms and of their sum, the same breakpoints that give the roots.  That
evaluation runs on ints: coefficients and points scaled by their common
denominator, so ties are exact and no Fraction is added.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .errors import DegeneratePolynomialError, ParseError
from .semiring import (
    GHOST_KIND,
    NEG_INF,
    NEG_INF_KIND,
    ONE,
    TANGIBLE_KIND,
    Element,
    add,
    format_scalar,
    ghost_surpasses,
    mul,
    parse_scalar,
    power,
    rational,
)


class Polynomial:
    """Dense coefficient list, exponent 0 upward; trailing -inf trimmed.

    The identically -inf polynomial is stored as the single coefficient
    (-inf,), so the leading coefficient is -inf only in that case.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Element, ...]

    def __init__(self, coeffs: Iterable[Element]):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1].kind == NEG_INF_KIND:
            cs.pop()
        if not cs:
            cs = [NEG_INF]
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_neg_inf(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].kind == NEG_INF_KIND

    def coeff(self, exponent: int) -> Element:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return NEG_INF

    def monomials(self) -> list[tuple[int, Element]]:
        """(exponent, coefficient) pairs of the non -inf coefficients."""
        return [(i, c) for i, c in enumerate(self.coeffs) if c.kind != NEG_INF_KIND]

    def has_ghost_coeff(self) -> bool:
        return any(c.kind == GHOST_KIND for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"

    def __str__(self) -> str:
        return format_poly(self)


def poly_eval(f: Polynomial, x: Element) -> Element:
    """Supertropical sum of coeff(i) * x^i over the monomials of f."""
    acc = NEG_INF
    for i, c in f.monomials():
        acc = add(acc, mul(c, power(x, i)))
    return acc


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    n = max(len(f.coeffs), len(g.coeffs))
    return Polynomial(add(f.coeff(i), g.coeff(i)) for i in range(n))


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_neg_inf or g.is_neg_inf:
        return Polynomial([NEG_INF])
    out = [NEG_INF] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a.kind == NEG_INF_KIND:
            continue
        for j, b in enumerate(g.coeffs):
            if b.kind == NEG_INF_KIND:
                continue
            out[i + j] = add(out[i + j], mul(a, b))
    return Polynomial(out)


def poly_pow(f: Polynomial, m: int) -> Polynomial:
    if m < 0:
        raise ValueError("poly_pow expects m >= 0")
    if m == 0:
        return Polynomial([ONE])
    acc = f
    for _ in range(m - 1):
        acc = poly_mul(acc, f)
    return acc


def inflate(f: Polynomial, m: int) -> Polynomial:
    """Substitute x^m for x: coefficient at exponent i moves to i*m."""
    if m < 1:
        raise ValueError("inflate expects m >= 1")
    if m == 1 or f.is_neg_inf:
        return Polynomial(f.coeffs)
    out = [NEG_INF] * ((len(f.coeffs) - 1) * m + 1)
    for i, c in enumerate(f.coeffs):
        out[i * m] = c
    return Polynomial(out)


def _essential_exponents(f: Polynomial) -> list[int]:
    """Exponents of the essential monomials.

    A monomial is essential iff deleting it changes the evaluation map
    somewhere on tangible inputs (or at -inf).  Over the points
    (exponent, magnitude) this is exactly being a strict vertex of the
    upper concave envelope: a vertex dominates alone on an interval of
    positive length, while a monomial on the interior of an envelope edge
    only ever ties the two edge endpoints, so removing it changes neither
    the value nor the ghostness anywhere.
    """
    pts = [(i, c.value) for i, c in f.monomials()]
    if not pts:
        return []
    hull: list[tuple[int, Fraction | int]] = []
    for i, v in pts:
        while len(hull) >= 2:
            i1, v1 = hull[-2]
            i2, v2 = hull[-1]
            # Drop the middle point unless it lies strictly above the chord.
            if (v2 - v1) * (i - i1) > (v - v1) * (i2 - i1):
                break
            hull.pop()
        hull.append((i, v))
    return [i for i, _ in hull]


def essential(f: Polynomial) -> Polynomial:
    """Replace every inessential coefficient with -inf (same function pointwise)."""
    keep = set(_essential_exponents(f))
    return Polynomial(c if i in keep else NEG_INF for i, c in enumerate(f.coeffs))


def _breakpoints(mons: list[tuple[int, Element]]) -> list[Fraction | int]:
    """Crossover magnitudes of consecutive essential monomials.

    mons are the monomials of an essential form, exponent ascending, so the
    crossovers come out strictly ascending.
    """
    return [rational(a.value - b.value, j - i) for (i, a), (j, b) in zip(mons, mons[1:])]


@dataclass(frozen=True)
class Interval:
    """Closed interval of roots.  lo is tangible or -inf; hi is tangible,
    -inf (a degenerate point at -inf), or None meaning unbounded above."""

    lo: Element
    hi: Element | None

    def contains(self, x: Element) -> bool:
        if x.kind == NEG_INF_KIND:
            return self.lo.kind == NEG_INF_KIND
        if self.hi is not None and self.hi.kind == NEG_INF_KIND:
            return False
        if self.lo.kind != NEG_INF_KIND and x.value < self.lo.value:
            return False
        if self.hi is not None and x.value > self.hi.value:
            return False
        return True

    def __str__(self) -> str:
        hi = "+inf" if self.hi is None else format_scalar(self.hi)
        return f"[{format_scalar(self.lo)}, {hi}]"


@dataclass(frozen=True)
class RootSet:
    """Corner roots with multiplicities plus non-corner root intervals."""

    corner: tuple[tuple[Element, int], ...]
    noncorner: tuple[Interval, ...]

    def contains(self, x: Element) -> bool:
        """Membership by magnitude (ghost inputs are projected)."""
        if x.kind != NEG_INF_KIND and any(
            v.value == x.value for v, _ in self.corner
        ):
            return True
        return any(iv.contains(x) for iv in self.noncorner)

    def __str__(self) -> str:
        corner = ", ".join(f"({format_scalar(v)}, {m})" for v, m in self.corner) or "none"
        noncorner = ", ".join(str(iv) for iv in self.noncorner) or "none"
        return f"corner: {corner}; noncorner: {noncorner}"


def roots(f: Polynomial) -> RootSet:
    """Corner and non-corner roots of f.

    One walk over the essential monomials, exponent ascending, reads both
    kinds off.  The crossover between consecutive essential monomials
    a_i x^i and a_j x^j (i < j) sits at the (j-i)-th root of a_i / a_j.  A
    crossover of two tangible monomials is a corner root of multiplicity
    j - i.  A run of ghost essential monomials dominates one closed
    interval on which every point is a root: it opens at the crossover left
    of the run (at -inf if the run starts the walk) and closes at the
    crossover with the next tangible monomial (unbounded if none follows),
    so a crossover against a ghost monomial is swallowed by that interval
    rather than listed as a corner.  If the constant coefficient is absent
    the single point -inf is a root as well.
    """
    if f.is_neg_inf:
        raise DegeneratePolynomialError("every point is a root of the -inf polynomial")
    mons = essential(f).monomials()
    cross = [NEG_INF, *(Element(TANGIBLE_KIND, x) for x in _breakpoints(mons))]
    corner: list[tuple[Element, int]] = []
    noncorner: list[Interval] = []
    # -inf is a root whenever the constant term is absent; if the lowest
    # essential monomial is a ghost its interval already starts at -inf.
    if mons[0][0] > 0 and mons[0][1].kind == TANGIBLE_KIND:
        noncorner.append(Interval(NEG_INF, NEG_INF))
    lo = None  # left end of the open run of ghost monomials
    for t, (i, a) in enumerate(mons):
        if a.kind == GHOST_KIND:
            if lo is None:
                lo = cross[t]
        elif lo is not None:
            noncorner.append(Interval(lo, cross[t]))
            lo = None
        elif t:
            corner.append((cross[t], i - mons[t - 1][0]))
    if lo is not None:
        noncorner.append(Interval(lo, None))
    return RootSet(tuple(corner), tuple(noncorner))


def poly_ghost_surpasses(f: Polynomial, g: Polynomial) -> bool:
    """Coefficient-wise ghost surpassing (shorter operand padded with -inf)."""
    n = max(len(f.coeffs), len(g.coeffs))
    return all(ghost_surpasses(f.coeff(i), g.coeff(i)) for i in range(n))


def _comparison_grid(f: Polynomial, g: Polynomial) -> list[Element]:
    """Tangible points that decide any pointwise comparison of f and g.

    f and g must be essential forms; only the essential form of f + g is
    taken here.  The points are the breakpoints of f, g and essential(f + g),
    a midpoint inside each cell between them and a margin on both unbounded
    sides.  Inside a cell f and g are each one monomial of fixed kind, and
    their magnitudes cannot cross there: a crossing with different slopes is
    a kink of max(nu f, nu g) = nu(f + g), hence one of its breakpoints.  So
    the comparison is constant on every cell.
    """
    xs = set()
    for h in (f, g, essential(poly_add(f, g))):
        xs.update(_breakpoints(h.monomials()))
    if not xs:
        return [Element(TANGIBLE_KIND, 0)]
    pts = sorted(xs)
    grid = [pts[0] - 1]
    for k, x in enumerate(pts):
        grid.append(x)
        if k + 1 < len(pts):
            grid.append(rational(x + pts[k + 1], 2))
    grid.append(pts[-1] + 1)
    return [Element(TANGIBLE_KIND, x) for x in grid]


def _grid_values(f: Polynomial, g: Polynomial) -> tuple[list, list, list]:
    """-inf and the comparison grid of the essential forms f and g, with
    the values of f and of g at each of those points.

    The magnitudes of the values are ints on one scale, the common
    denominator of the coefficients and the points, and no Fraction is
    added.  Scaling every magnitude by one positive int keeps kinds, ties
    and order, so ghost_surpasses decides on these values exactly what it
    decides on the true ones.  At -inf only the constant term is finite.
    """
    points = [NEG_INF, *_comparison_grid(f, g)]
    fm, gm = f.monomials(), g.monomials()
    scale = 1
    for v in [c.value for _, c in fm + gm] + [x.value for x in points[1:]]:
        if scale % v.denominator:
            scale = lcm(scale, v.denominator)
    xs = [x.value.numerator * (scale // x.value.denominator) for x in points[1:]]

    def values(mons: list[tuple[int, Element]]) -> list[Element]:
        terms = [(i, c.value.numerator * (scale // c.value.denominator), c.kind)
                 for i, c in mons]
        out = [Element(terms[0][2], terms[0][1]) if terms and terms[0][0] == 0 else NEG_INF]
        for x in xs:
            best, kind = None, NEG_INF_KIND
            for i, c, k in terms:
                v = c + i * x
                if best is None or v > best:
                    best, kind = v, k
                elif v == best:
                    kind = GHOST_KIND
            out.append(NEG_INF if best is None else Element(kind, best))
        return out

    return points, values(fm), values(gm)


def poly_value_surpasses(f: Polynomial, g: Polynomial) -> bool:
    """True iff eval(f, x) ghost-surpasses eval(g, x) at every point.

    f and g are replaced by their essential forms (the same maps), which
    are then evaluated at -inf and on the comparison grid, on scaled ints:
    that decides the comparison exactly.  This is the functional
    counterpart of poly_ghost_surpasses and is strictly weaker than it.
    """
    _, fv, gv = _grid_values(essential(f), essential(g))
    return all(ghost_surpasses(a, b) for a, b in zip(fv, gv))


def poly_value_equal(f: Polynomial, g: Polynomial) -> bool:
    """True iff f and g define the same map, i.e. equal essential forms.

    Each essential monomial dominates alone on an interval of positive
    length, where the map shows its exponent, magnitude and kind, and
    essential(f) is the same map as f.
    """
    return essential(f) == essential(g)


def roots_outside(g: Polynomial, f: Polynomial) -> list[Element]:
    """Points that are roots of g but not of f, one per place they occur.

    A root is a point where the value is not tangible.  g and f are
    replaced by their essential forms (the same maps).  On each cell of the
    comparison grid each is one monomial of fixed kind, so whether a point
    is a root of either is constant there: evaluating them at -inf and on
    the grid, on scaled ints, decides containment of the root sets exactly.
    """
    points, fv, gv = _grid_values(essential(f), essential(g))
    return [x for x, fx, gx in zip(points, fv, gv)
            if gx.kind != TANGIBLE_KIND and fx.kind == TANGIBLE_KIND]


# -- text form ---------------------------------------------------------------
#
# Comma-separated coefficients from exponent 0 upward in the scalar grammar,
# e.g. '2, 2, 0' for x^2 + 2x + 2.


def parse_poly(text: str) -> Polynomial:
    parts = text.split(",")
    if not parts or not text.strip():
        raise ParseError("empty polynomial text")
    return Polynomial(parse_scalar(p) for p in parts)


def format_poly(f: Polynomial) -> str:
    return ", ".join(format_scalar(c) for c in f.coeffs)
