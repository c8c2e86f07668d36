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
forms and of their sum, the same breakpoints that give the roots.

Every function of the map (the essential form, the roots, the comparison
grid and the value comparisons) reads its coefficients once onto their
common denominator and works on ints from there: the hull by int cross
products, the crossovers and midpoints on a scale that also clears the
exponent gaps and the halving.  Coefficient-wise surpassing compares its
coefficients in pairs, by int cross products.  So ties are exact integer
ties, no Fraction is added or compared, and a rational is built only for a
root or a grid point that a function returns.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild the polynomial from its coefficients:
        # protocols 0 and 1 cannot save a class with __slots__ by default.
        return Polynomial, (self.coeffs,)

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


# A term is one finite coefficient read onto an int scale: (exponent,
# magnitude, kind), the magnitude the coefficient's value times the scale.
Term = tuple[int, int, int]


def _read(*polys: Polynomial) -> tuple[int, list[list[Term]]]:
    """The common denominator of the finite coefficients of polys, and each
    polynomial's terms on that scale, exponent ascending.

    Scaling every magnitude by one positive int keeps kinds, ties and
    order, so every decision below is taken on ints exactly as on the
    rationals they stand for.
    """
    scale = 1
    for f in polys:
        for c in f.coeffs:
            if c.kind != NEG_INF_KIND and scale % c.value.denominator:
                scale = lcm(scale, c.value.denominator)
    return scale, [[(i, c.value.numerator * (scale // c.value.denominator), c.kind)
                    for i, c in enumerate(f.coeffs) if c.kind != NEG_INF_KIND]
                   for f in polys]


def _hull(terms: list[Term]) -> list[Term]:
    """The essential terms: the strict vertices of the upper concave
    envelope of the points (exponent, magnitude), decided by int cross
    products.

    A monomial is essential iff deleting it changes the evaluation map
    somewhere on tangible inputs (or at -inf).  A vertex dominates alone on
    an interval of positive length, while a monomial on the interior of an
    envelope edge only ever ties the two edge endpoints, so removing it
    changes neither the value nor the ghostness anywhere.  Kinds play no
    part.
    """
    hull: list[Term] = []
    for t in terms:
        i, v, _ = t
        while len(hull) >= 2:
            i1, v1, _ = hull[-2]
            i2, v2, _ = hull[-1]
            # Drop the middle point unless it lies strictly above the chord.
            if (v2 - v1) * (i - i1) > (v - v1) * (i2 - i1):
                break
            hull.pop()
        hull.append(t)
    return hull


def essential(f: Polynomial) -> Polynomial:
    """Replace every inessential coefficient with -inf (same function pointwise)."""
    _, (terms,) = _read(f)
    out = [NEG_INF] * len(f.coeffs)
    for i, _, _ in _hull(terms):
        out[i] = f.coeffs[i]
    return Polynomial(out)


def _breakpoints(hull: list[Term], q: int) -> list[int]:
    """Crossovers of consecutive essential terms, strictly ascending, as ints
    on q times the terms' scale; q must be a multiple of every exponent gap.

    The terms a x^i and b x^j (i < j) cross at (a - b) / (j - i).
    """
    return [(a - b) * (q // (j - i)) for (i, a, _), (j, b, _) in zip(hull, hull[1:])]


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

    One walk over the essential terms, exponent ascending, reads both kinds
    off.  The crossover between consecutive essential monomials a_i x^i and
    a_j x^j (i < j) sits at the (j-i)-th root of a_i / a_j.  A crossover of
    two tangible monomials is a corner root of multiplicity j - i.  A run
    of ghost essential monomials dominates one closed interval on which
    every point is a root: it opens at the crossover left of the run (at
    -inf if the run starts the walk) and closes at the crossover with the
    next tangible monomial (unbounded if none follows), so a crossover
    against a ghost monomial is swallowed by that interval rather than
    listed as a corner.  If the constant coefficient is absent the single
    point -inf is a root as well.  The walk runs on f's scaled ints; a
    crossover becomes a rational only where it is reported.
    """
    if f.is_neg_inf:
        raise DegeneratePolynomialError("every point is a root of the -inf polynomial")
    scale, (terms,) = _read(f)
    hull = _hull(terms)
    corner: list[tuple[Element, int]] = []
    noncorner: list[Interval] = []
    # -inf is a root whenever the constant term is absent; if the lowest
    # essential monomial is a ghost its interval already starts at -inf.
    if hull[0][0] > 0 and hull[0][2] == TANGIBLE_KIND:
        noncorner.append(Interval(NEG_INF, NEG_INF))
    lo = NEG_INF if hull[0][2] == GHOST_KIND else None  # left end of the open ghost run
    for (i, a, _), (j, b, kind) in zip(hull, hull[1:]):
        if kind == GHOST_KIND and lo is not None:
            continue  # inside the ghost run's interval
        x = Element(TANGIBLE_KIND, rational(a - b, (j - i) * scale))
        if kind == GHOST_KIND:
            lo = x
        elif lo is not None:
            noncorner.append(Interval(lo, x))
            lo = None
        else:
            corner.append((x, j - i))
    if lo is not None:
        noncorner.append(Interval(lo, None))
    return RootSet(tuple(corner), tuple(noncorner))


def poly_ghost_surpasses(f: Polynomial, g: Polynomial) -> bool:
    """Coefficient-wise ghost surpassing (shorter operand padded with -inf).

    Coefficients are compared in pairs and never summed, so no common scale
    is needed: a ghost meets the other coefficient by an int cross product
    of numerators and denominators.
    """
    for i in range(max(len(f.coeffs), len(g.coeffs))):
        a, b = f.coeff(i), g.coeff(i)
        if a.kind == b.kind and a.value == b.value or \
                a.kind == GHOST_KIND and b.kind == NEG_INF_KIND:
            continue
        if a.kind != GHOST_KIND:
            return False
        x, y = a.value, b.value
        if x.numerator * y.denominator < y.numerator * x.denominator:
            return False
    return True


def _comparison_grid(breakpoints: list[list[int]], unit: int) -> list[int]:
    """Tangible points that decide any pointwise comparison of two maps,
    as ints on a scale of which unit is 1.

    breakpoints are those of the two maps' essential forms f and g and of
    essential(f + g), every one an even int on that scale.  The grid holds
    them, a midpoint inside each cell between them and a margin on both
    unbounded sides.  Inside a cell f and g are each one monomial of fixed
    kind, and their magnitudes cannot cross there: a crossing with
    different slopes is a kink of max(nu f, nu g) = nu(f + g), hence one of
    its breakpoints.  So the comparison is constant on every cell.
    """
    pts = sorted({x for xs in breakpoints for x in xs})
    if not pts:
        return [0]
    grid = [pts[0] - unit]
    for x, y in zip(pts, pts[1:]):
        grid += (x, (x + y) // 2)
    grid += (pts[-1], pts[-1] + unit)
    return grid


def _values(hull: list[Term], breakpoints: list[int], q: int,
            grid: list[int]) -> list[tuple[int, int | None]]:
    """(kind, magnitude) of the map of an essential form at -inf and at each
    grid point; magnitudes on the grid's scale, None for -inf.

    hull is the form's terms and breakpoints its crossovers on the grid's
    scale, q times the terms' own.  Every breakpoint is a grid point, so one
    walk finds each point's cell: the one term that dominates it, or the
    two that tie there, which makes the value ghost.  At -inf only the
    constant term is finite.
    """
    if not hull:
        return [(NEG_INF_KIND, None)] * (len(grid) + 1)
    i, c, k = hull[0]
    out = [(k, c * q) if i == 0 else (NEG_INF_KIND, None)]
    t, last = 0, len(breakpoints)
    for x in grid:
        while t < last and breakpoints[t] < x:
            t += 1
        i, c, k = hull[t]
        out.append((GHOST_KIND if t < last and breakpoints[t] == x else k, c * q + i * x))
    return out


def _grid_values(f: Polynomial, g: Polynomial) -> tuple[int, list[int], list, list]:
    """The comparison grid of the maps of f and g, with the values of f
    and of g at -inf and at each grid point.

    Both are read once onto one int scale, and the hulls of f, of g and of
    f + g are taken on those ints: the essential forms, which are the same
    maps.  The grid's scale is q times theirs, q twice the lcm of the
    exponent gaps of the three hulls, so that every breakpoint and every
    midpoint is an int.  Returns that scale, the grid and the two
    (kind, magnitude) lists, -inf first.
    """
    scale, (fs, gs) = _read(f, g)
    fhull, ghull = _hull(fs), _hull(gs)
    top: dict[int, int] = {}
    for i, v, _ in fhull + ghull:
        if i not in top or v > top[i]:
            top[i] = v
    hulls = (fhull, ghull, _hull([(i, top[i], TANGIBLE_KIND) for i in sorted(top)]))
    q = 2 * lcm(*(t[0] - s[0] for h in hulls for s, t in zip(h, h[1:])))
    fb, gb, sb = (_breakpoints(h, q) for h in hulls)
    grid = _comparison_grid([fb, gb, sb], q * scale)
    return q * scale, grid, _values(fhull, fb, q, grid), _values(ghull, gb, q, grid)


def poly_value_surpasses(f: Polynomial, g: Polynomial) -> bool:
    """True iff eval(f, x) ghost-surpasses eval(g, x) at every point.

    The essential terms of f and g (the same maps) are evaluated at -inf
    and on the comparison grid, on scaled ints: that decides the
    comparison exactly.  This is the functional counterpart of
    poly_ghost_surpasses and is strictly weaker than it.
    """
    _, _, fv, gv = _grid_values(f, g)
    # ghost_surpasses on (kind, magnitude): equal, or a ghost at least as large
    return all(a == b or a[0] == GHOST_KIND and (b[1] is None or a[1] >= b[1])
               for a, b in zip(fv, gv))


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
    evaluated by their essential terms (the same maps).  On each cell of
    the comparison grid each is one monomial of fixed kind, so whether a
    point is a root of either is constant there: evaluating them at -inf
    and on the grid, on scaled ints, decides containment of the root sets
    exactly.  Only the points returned become rationals.
    """
    unit, grid, fv, gv = _grid_values(f, g)
    return [NEG_INF if x is None else Element(TANGIBLE_KIND, rational(x, unit))
            for x, fx, gx in zip([None, *grid], fv, gv)
            if gx[0] != TANGIBLE_KIND and fx[0] == TANGIBLE_KIND]


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
