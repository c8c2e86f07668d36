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
common denominator, by semiring.read_ints, and works on ints from there:
the hull by int cross products, the crossovers and midpoints on a scale
that also clears the exponent gaps and the halving.  On that scale a
coefficient or a value is the package's one int form of a scalar, a
magnitude (None for -inf) and a ghost flag, as a tropmat.Matrix view holds
it, and the value comparison is semiring.ghost_surpasses_ints, as the
matrix comparison is.  Coefficient-wise surpassing reads both padded
coefficient lists onto one scale and calls the same rule.  So ties are
exact integer ties, no Fraction is added or compared, and a rational is
built, by semiring.element_of, only for a root or a grid point that a
function returns.  This module converts no Element itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable

from .errors import DegeneratePolynomialError, ParseError, SupertropicalError
from .semiring import (
    GHOST_KIND,
    NEG_INF,
    NEG_INF_KIND,
    ONE,
    Element,
    Immutable,
    add,
    element_of,
    format_scalar,
    ghost_surpasses_ints,
    mul,
    parse_scalar,
    power,
    read_ints,
)


class Polynomial(Immutable):
    """Dense coefficient list, exponent 0 upward; trailing -inf trimmed.

    The identically -inf polynomial is stored as the single coefficient
    (-inf,), so the leading coefficient is -inf only in that case.
    Immutable, as Element and Matrix are: once built, no attribute can be
    assigned or deleted, so its hash and its equality never change.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Element, ...]

    def __init__(self, coeffs: Iterable[Element]):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1].kind == NEG_INF_KIND:
            cs.pop()
        if not cs:
            cs = [NEG_INF]
        _set_coeffs(self, tuple(cs))

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
        # protocols 0 and 1 cannot save a class with __slots__ by default,
        # and restoring the slot would go through __setattr__.  Protocols 0
        # and 1 write a coefficient's int as decimal text, so they refuse
        # one past the int-to-str digit limit (ValueError); 2 and up do not.
        return Polynomial, (self.coeffs,)

    def __repr__(self) -> str:
        try:
            return f"Polynomial({format_poly(self)!r})"
        except SupertropicalError:  # a coefficient past the int-to-str digit limit
            return f"Polynomial({', '.join(repr(c) for c in self.coeffs)})"

    def __str__(self) -> str:
        return format_poly(self)


# The constructor goes around Polynomial's refusal of assignment through the
# slot's own setter.
_set_coeffs = Polynomial.coeffs.__set__


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
# magnitude, ghost flag), the magnitude the coefficient's value times the
# scale.
Term = tuple[int, int, bool]


def _read(*polys: Polynomial) -> tuple[int, list[list[Term]]]:
    """The common denominator of the finite coefficients of polys, and each
    polynomial's terms on that scale, exponent ascending.

    Scaling every magnitude by one positive int keeps ghost flags, ties
    and order, so every decision below is taken on ints exactly as on the
    rationals they stand for.
    """
    mag, gh, scale = read_ints([c for f in polys for c in f.coeffs])
    terms, lo = [], 0
    for f in polys:
        hi = lo + len(f.coeffs)
        terms.append([(i, m, g) for i, (m, g) in enumerate(zip(mag[lo:hi], gh[lo:hi]))
                      if m is not None])
        lo = hi
    return scale, terms


def _hull(terms: list[Term]) -> list[Term]:
    """The essential terms: the strict vertices of the upper concave
    envelope of the points (exponent, magnitude), decided by int cross
    products.

    A monomial is essential iff deleting it changes the evaluation map
    somewhere on tangible inputs (or at -inf).  A vertex dominates alone on
    an interval of positive length, while a monomial on the interior of an
    envelope edge only ever ties the two edge endpoints, so removing it
    changes neither the value nor the ghostness anywhere.  Ghost flags
    play no part.
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
    if hull[0][0] > 0 and not hull[0][2]:
        noncorner.append(Interval(NEG_INF, NEG_INF))
    lo = NEG_INF if hull[0][2] else None  # left end of the open ghost run
    for (i, a, _), (j, b, g) in zip(hull, hull[1:]):
        if g and lo is not None:
            continue  # inside the ghost run's interval
        x = element_of(a - b, False, (j - i) * scale)
        if g:
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

    Both padded coefficient lists are read onto one int scale, and
    semiring.ghost_surpasses_ints compares them coefficient by coefficient.
    """
    n = max(len(f.coeffs), len(g.coeffs))
    mag, gh, _ = read_ints(f.coeffs + (NEG_INF,) * (n - len(f.coeffs))
                           + g.coeffs + (NEG_INF,) * (n - len(g.coeffs)))
    return ghost_surpasses_ints(mag[:n], gh[:n], mag[n:], gh[n:])


def _comparison_grid(breakpoints: list[list[int]], unit: int) -> list[int]:
    """Tangible points that decide any pointwise comparison of two maps,
    as ints on a scale of which unit is 1.

    breakpoints are those of the two maps' essential forms f and g and of
    essential(f + g), every one an even int on that scale.  The grid holds
    them, a midpoint inside each cell between them and a margin on both
    unbounded sides.  Inside a cell f and g are each one monomial with a
    fixed ghost flag, and their magnitudes cannot cross there: a crossing
    with different slopes is a kink of max(nu f, nu g) = nu(f + g), hence
    one of its breakpoints.  So the comparison is constant on every cell.
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
            grid: list[int]) -> tuple[list, list]:
    """The map of an essential form at -inf and at each grid point, as a
    list of magnitudes on the grid's scale (None for -inf) and a list of
    ghost flags.

    hull is the form's terms and breakpoints its crossovers on the grid's
    scale, q times the terms' own.  Every breakpoint is a grid point, so one
    walk finds each point's cell: the one term that dominates it, or the
    two that tie there, which makes the value ghost.  At -inf only the
    constant term is finite.
    """
    if not hull:
        return [None] * (len(grid) + 1), [False] * (len(grid) + 1)
    i, c, g = hull[0]
    mag, gh = ([c * q], [g]) if i == 0 else ([None], [False])
    t, last = 0, len(breakpoints)
    for x in grid:
        while t < last and breakpoints[t] < x:
            t += 1
        i, c, g = hull[t]
        mag.append(c * q + i * x)
        gh.append(g or t < last and breakpoints[t] == x)
    return mag, gh


def _grid_values(f: Polynomial, g: Polynomial) -> tuple[int, list[int], tuple, tuple]:
    """The comparison grid of the maps of f and g, with the values of f
    and of g at -inf and at each grid point.

    Both are read once onto one int scale, and the hulls of f, of g and of
    f + g are taken on those ints: the essential forms, which are the same
    maps.  The grid's scale is q times theirs, q twice the lcm of the
    exponent gaps of the three hulls, so that every breakpoint and every
    midpoint is an int.  Returns that scale, the grid and the values of f
    and of g, each as its magnitudes and its ghost flags, -inf first.
    """
    scale, (fs, gs) = _read(f, g)
    fhull, ghull = _hull(fs), _hull(gs)
    top: dict[int, int] = {}
    for i, v, _ in fhull + ghull:
        if i not in top or v > top[i]:
            top[i] = v
    hulls = (fhull, ghull, _hull([(i, top[i], False) for i in sorted(top)]))
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
    return ghost_surpasses_ints(*fv, *gv)


def poly_value_equal(f: Polynomial, g: Polynomial) -> bool:
    """True iff f and g define the same map, i.e. equal essential forms.

    Each essential monomial dominates alone on an interval of positive
    length, where the map shows its exponent, magnitude and kind, and
    essential(f) is the same map as f.
    """
    return essential(f) == essential(g)


def roots_outside(g: Polynomial, f: Polynomial) -> list[Element]:
    """Points that are roots of g but not of f, one per place they occur.

    A root is a point where the value is ghost or -inf.  g and f are
    evaluated by their essential terms (the same maps).  On each cell of
    the comparison grid each is one monomial with a fixed ghost flag, so
    whether a point is a root of either is constant there: evaluating them
    at -inf and on the grid, on scaled ints, decides containment of the
    root sets exactly.  Only the points returned become rationals.
    """
    unit, grid, (fm, fg), (gm, gg) = _grid_values(f, g)
    return [element_of(x, False, unit)
            for x, fx, fgx, gx, ggx in zip([None, *grid], fm, fg, gm, gg)
            if (ggx or gx is None) and not (fgx or fx is None)]


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
