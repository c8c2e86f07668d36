"""Polynomial evaluation, essential forms, and root extraction."""

import copy
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supertrop import (
    NEG_INF,
    DegeneratePolynomialError,
    Element,
    Interval,
    ParseError,
    Polynomial,
    essential,
    format_poly,
    ghost,
    ghost_surpasses,
    inflate,
    mul,
    parse_poly,
    poly_add,
    poly_eval,
    poly_ghost_surpasses,
    poly_mul,
    poly_pow,
    poly_value_equal,
    poly_value_surpasses,
    power,
    roots,
    roots_outside,
    tangible,
)
from supertrop import maxpoly
from supertrop.maxpoly import _breakpoints, _grid_values, _hull, _read
from supertrop.semiring import rational

from conftest import (
    FRACTION_OPS,
    _all_pairs_grid,
    el,
    ghost_poly,
    naive_breakpoints,
    naive_comparison_grid,
    naive_essential,
    naive_essential_exponents,
    naive_eval,
    naive_roots,
    naive_value_equal,
    naive_value_surpasses,
    poly,
    typed_element,
    typed_roots,
)

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=4)
coeffs = st.one_of(st.just(NEG_INF), rationals.map(tangible), rationals.map(ghost))
polys = st.lists(coeffs, min_size=1, max_size=7).map(Polynomial).filter(
    lambda f: not f.is_neg_inf
)


# -- evaluation -------------------------------------------------------------------


@pytest.mark.parametrize(
    "f, x, expected",
    [
        ("2, 2, 0", "0", "2g"),
        ("2, 2, 0", "2", "4g"),
        ("2, 2, 0", "1", "3"),
        ("5g, 4, 0", "1", "5g"),
        ("5g, 4, 0", "4", "8g"),
        ("2, 2, 0", "-inf", "2"),
        ("5g, 4, 0", "-inf", "5g"),
    ],
)
def test_eval_cases(f, x, expected):
    assert poly_eval(poly(f), el(x)) == el(expected)


@given(polys)
def test_eval_at_neg_inf_is_constant_coeff(f):
    assert poly_eval(f, NEG_INF) == f.coeffs[0]


@given(polys, polys, coeffs)
def test_eval_is_multiplicative(f, g, x):
    assert poly_eval(poly_mul(f, g), x) == mul(poly_eval(f, x), poly_eval(g, x))


@given(polys, polys, coeffs)
def test_eval_is_additive(f, g, x):
    from supertrop import add

    assert poly_eval(poly_add(f, g), x) == add(poly_eval(f, x), poly_eval(g, x))


# -- arithmetic -------------------------------------------------------------------


def test_poly_mul_cases():
    assert poly_mul(poly("0, 0"), poly("0, 0")) == poly("0, 0g, 0")
    assert poly_mul(poly("2, 0"), poly("3, 0")) == poly("5, 3, 0")
    assert poly_pow(poly("1, 0"), 1) == poly("1, 0")


@given(polys, polys, polys)
def test_poly_mul_assoc_comm(f, g, h):
    assert poly_mul(f, g) == poly_mul(g, f)
    assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))


@given(polys, st.integers(min_value=0, max_value=4))
def test_poly_pow_is_the_repeated_product(f, m):
    """m - 1 products starting from f; the unit only for m = 0."""
    want = Polynomial([tangible(0)])
    for _ in range(m):
        want = poly_mul(want, f)
    assert poly_pow(f, m) == want
    assert poly_pow(Polynomial([NEG_INF]), m) == (
        Polynomial([NEG_INF]) if m else Polynomial([tangible(0)]))


def test_normalization_trims_leading_neg_inf():
    f = Polynomial([tangible(1), NEG_INF, NEG_INF])
    assert f.degree == 0
    assert f == Polynomial([tangible(1)])


def test_inflate_cases():
    assert inflate(poly("5g, 4, 0"), 2) == poly("5g, -inf, 4, -inf, 0")
    f = poly("1, 2, 3")
    assert inflate(f, 1) == f
    assert inflate(poly("3"), 7) == poly("3")


# -- essential form -----------------------------------------------------------------


def test_essential_cases():
    f = poly("2, 2, 0")
    assert essential(f) == f
    assert essential(poly("5, 0, 0")) == poly("5, -inf, 0")
    assert essential(poly("3")) == poly("3")


def _grid_spanning_breakpoints(f, min_points=100):
    """Tangible sample points covering every pairwise monomial crossover."""
    mons = f.monomials()
    xs = set()
    for a_idx in range(len(mons)):
        i, a = mons[a_idx]
        for j, b in mons[a_idx + 1:]:
            xs.add(Fraction(a.value - b.value, j - i))
    if not xs:
        xs = {Fraction(0)}
    lo, hi = min(xs) - 2, max(xs) + 2
    pts = set(xs)
    for k in range(min_points + 1):
        pts.add(lo + (hi - lo) * Fraction(k, min_points))
    return sorted(pts)


@given(polys)
def test_essential_preserves_the_function(f):
    es = essential(f)
    for x in _grid_spanning_breakpoints(f):
        assert poly_eval(es, tangible(x)) == poly_eval(f, tangible(x))
    assert poly_eval(es, NEG_INF) == poly_eval(f, NEG_INF)


@given(polys)
def test_essential_is_minimal(f):
    """Dropping any essential monomial changes the function somewhere."""
    es = essential(f)
    grid = [tangible(x) for x in _grid_spanning_breakpoints(f)] + [NEG_INF]
    for i, c in es.monomials():
        without = Polynomial(
            NEG_INF if j == i else d for j, d in enumerate(es.coeffs)
        )
        assert any(poly_eval(without, x) != poly_eval(es, x) for x in grid)


# -- roots ----------------------------------------------------------------------------


def test_roots_corner_cases():
    rs = roots(poly("2, 2, 0"))
    assert rs.corner == ((el("0"), 1), (el("2"), 1))
    assert rs.noncorner == ()

    rs = roots(poly("5g, 4, 0"))
    assert rs.corner == ((el("4"), 1),)
    assert rs.noncorner == (Interval(NEG_INF, el("1")),)

    rs = roots(poly("7, 0"))
    assert rs.corner == ((el("7"), 1),)

    with pytest.raises(DegeneratePolynomialError):
        roots(Polynomial([NEG_INF]))


def test_roots_multiplicity():
    # x^3 + 3: single corner at 1 with multiplicity 3
    rs = roots(poly("3, -inf, -inf, 0"))
    assert rs.corner == ((el("1"), 3),)


def test_roots_at_neg_inf():
    # no constant term: -inf is an isolated root
    rs = roots(poly("-inf, 0"))
    assert rs.corner == ()
    assert rs.noncorner == (Interval(NEG_INF, NEG_INF),)
    assert rs.contains(NEG_INF)
    # ghost lowest monomial: the interval absorbs -inf
    rs = roots(poly("-inf, 0g, 0"))
    assert rs.noncorner == (Interval(NEG_INF, el("0")),)
    assert rs.contains(NEG_INF)


def test_roots_ghost_leading():
    # ghost leading monomial dominates an upward-unbounded interval
    rs = roots(poly("0, -inf, 0g"))
    assert rs.noncorner == (Interval(el("0"), None),)
    assert rs.contains(el("100"))
    assert not rs.contains(el("-1"))


def test_all_ghost_constant():
    rs = roots(poly("5g"))
    assert rs.noncorner == (Interval(NEG_INF, None),)
    assert rs.corner == ()


@given(polys)
def test_root_soundness(f):
    """Every reported root point evaluates to a ghost or -inf."""
    rs = roots(f)
    pts = [v for v, _ in rs.corner]
    for iv in rs.noncorner:
        pts.append(NEG_INF if iv.lo.is_neg_inf else iv.lo)
        if iv.hi is not None and not iv.hi.is_neg_inf:
            pts.append(iv.hi)
            if not iv.lo.is_neg_inf:
                pts.append(tangible(Fraction(iv.lo.value + iv.hi.value, 2)))
            else:
                pts.append(tangible(iv.hi.value - 1))
        elif iv.hi is None:
            base = 0 if iv.lo.is_neg_inf else iv.lo.value
            pts.append(tangible(base + 7))
    for r in pts:
        assert ghost_surpasses(poly_eval(f, r), NEG_INF)


tangible_polys = st.lists(
    st.one_of(st.just(NEG_INF), rationals.map(tangible)), min_size=2, max_size=6
).map(Polynomial).filter(lambda f: not f.is_neg_inf and f.degree >= 1)


@given(tangible_polys)
def test_root_completeness_for_tangible_polys(f):
    """Between and beyond the corner roots a ghost-free polynomial stays
    tangible, so the reported roots are all of them."""
    rs = roots(f)
    assert rs.noncorner == () or rs.noncorner == (Interval(NEG_INF, NEG_INF),)
    values = [v.value for v, _ in rs.corner]
    probes = []
    if values:
        probes.append(min(values) - 1)
        probes.append(max(values) + 1)
        for a, b in zip(values, values[1:]):
            probes.append(Fraction(a + b, 2))
    else:
        probes = [Fraction(0), Fraction(5)]
    for x in probes:
        if x not in values:
            assert poly_eval(f, tangible(x)).is_tangible
    # multiplicities sum to the essential exponent span
    mons = essential(f).monomials()
    assert sum(m for _, m in rs.corner) == mons[-1][0] - mons[0][0]


# -- coefficient-wise and functional comparison ----------------------------------------


def test_poly_ghost_surpasses_cases():
    assert poly_ghost_surpasses(poly("6g, 3g, 0"), poly("5, 1g, 0"))
    f = poly("2, 2, 0")
    assert poly_ghost_surpasses(f, f)
    assert not poly_ghost_surpasses(poly("2, 2, 0"), poly("2, 4, 0"))
    # padding with -inf
    assert poly_ghost_surpasses(poly("1g, 0g"), poly("1"))


@given(polys)
def test_value_relations_are_reflexive_up_to_essential(f):
    assert poly_value_surpasses(f, f)
    assert poly_value_equal(f, essential(f))


def test_value_surpasses_weaker_than_coefficientwise():
    lhs = inflate(poly("4, 0"), 2)      # x^2 + 4
    rhs = poly_pow(poly("2, 0"), 2)     # x^2 + 2g x + 4
    assert lhs == poly("4, -inf, 0")
    assert not poly_ghost_surpasses(lhs, rhs)
    assert poly_value_surpasses(lhs, rhs)
    assert poly_value_equal(lhs, rhs)


def _tie_heavy_poly(rng, degree, num, den):
    """Numerators in [-num, num] over den, 1/4 -inf and 1/5 ghost coefficients."""
    cs = []
    for _ in range(degree + 1):
        if rng.randrange(4) == 0:
            cs.append(NEG_INF)
            continue
        v = Fraction(rng.randint(-num, num), den)
        cs.append(ghost(v) if rng.randrange(5) == 0 else tangible(v))
    return Polynomial(cs)


def _tie_heavy_pairs(count, seed):
    """Seeded (f, g) pairs: independent draws, inflate/poly_pow pairs as the
    characteristic polynomial power law compares them, f against a copy with
    one coefficient moved, and f against its essential form."""
    rng = random.Random(seed)
    for t in range(count):
        num, den = rng.choice((2, 4)), rng.choice((1, 2, 3))
        kind = t % 4
        f = _tie_heavy_poly(rng, rng.randint(0, 3 if kind == 1 else 5), num, den)
        if kind == 0:
            yield f, _tie_heavy_poly(rng, rng.randint(0, 5), num, den)
        elif kind == 1:
            m = rng.randint(2, 3)
            yield inflate(f, m), poly_pow(f, m)
        elif kind == 2:
            cs = list(f.coeffs)
            cs[rng.randrange(len(cs))] = _tie_heavy_poly(rng, 0, num, den).coeffs[0]
            yield f, Polynomial(cs)
        else:
            yield f, essential(f)


# Fraction, ghost and -inf coefficients; a missing constant term; single
# monomials; ghost runs at the low end, the high end and both; collinear
# and tied coefficients; the -inf polynomial.
EDGE_POLYS = [poly(s) for s in (
    "5g", "3", "-1/2", "-inf, -inf, 2/3", "-inf, 0", "-inf, 0g, 0", "0, -inf, 0g",
    "1g, 1/2g, 0, -1/3g, -2g", "1/2, 1/2g, 1/2, 1/2g", "0, 0, 0, 0", "2g, -3/2",
    "-inf, 1, 0, -3/2, 2g", "-inf, -1/3g, 1/3g, 5/6", "4, -inf, -inf, -inf, 0g",
    "-inf, 7/3, -inf, -1/6g, 1/4g", "-inf",
)]


def _oracle_polys(count, seed):
    """EDGE_POLYS, then both sides of the seeded tie-heavy pairs."""
    yield from EDGE_POLYS
    for f, g in _tie_heavy_pairs(count, seed):
        yield f
        yield g


def _edge_pairs():
    """Every ordered pair of EDGE_POLYS."""
    for f in EDGE_POLYS:
        for g in EDGE_POLYS:
            yield f, g


def _oracle_pairs(count, seed):
    """Every ordered pair of EDGE_POLYS, then the seeded tie-heavy pairs
    both ways round."""
    yield from _edge_pairs()
    for f, g in _tie_heavy_pairs(count, seed):
        yield f, g
        yield g, f


def test_value_comparisons_match_the_all_pairs_oracle():
    mismatches = []
    outcomes = {"surpasses": set(), "equal": set()}
    for f, g in [*_tie_heavy_pairs(3200, seed=2013), *_edge_pairs()]:
        for a, b in ((f, g), (g, f)):
            got = poly_value_surpasses(a, b)
            outcomes["surpasses"].add(got)
            if got != naive_value_surpasses(a, b):
                mismatches.append(("surpasses", str(a), str(b)))
        got = poly_value_equal(f, g)
        outcomes["equal"].add(got)
        if got != naive_value_equal(f, g) or got != (essential(f) == essential(g)):
            mismatches.append(("equal", str(f), str(g)))
    assert mismatches == []
    # the mix decides both ways, so agreement is not vacuous
    assert outcomes == {"surpasses": {True, False}, "equal": {True, False}}


def _corner_values(f):
    return {v.value for v, _ in roots(f).corner}


def test_power_comparisons_hold_at_degree_n():
    """The characteristic-power law compares inflate(f, m) with g^m; by the
    Frobenius property (a + b)^m = a^m + b^m it is the same comparison of f
    with g_m, g's coefficient-wise m-th power, at x^m.  On the tie-heavy
    pairs, read as (f_{A^m}, f_A), the literal and the degree-n forms agree
    on value surpassing, value equality and the onto law for corner roots,
    for m = 2 and 3, on pairs that fail the comparison as well."""
    disagree = []
    outcomes = {"surpasses": set(), "equal": set(), "onto": set()}
    for f, g in _tie_heavy_pairs(1600, seed=2029):
        for m in (2, 3):
            lhs, rhs = inflate(f, m), poly_pow(g, m)
            g_m = Polynomial(power(c, m) for c in g.coeffs)
            pairs = {
                "surpasses": (poly_value_surpasses(lhs, rhs), poly_value_surpasses(f, g_m)),
                "equal": (poly_value_equal(lhs, rhs), poly_value_equal(f, g_m)),
            }
            if not (f.is_neg_inf or g.is_neg_inf):
                pairs["onto"] = (
                    _corner_values(lhs) <= _corner_values(rhs),
                    _corner_values(f) <= {m * r for r in _corner_values(g)},
                )
            for name, (literal, degree_n) in pairs.items():
                outcomes[name].add(literal)
                if literal != degree_n:
                    disagree.append((name, m, str(f), str(g)))
    assert disagree == []
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


def test_eval_matches_the_dense_walk():
    """poly_eval over the monomials against the dense-walk oracle, at -inf,
    tangible and ghost points, on tie-heavy, inflated and -inf polynomials."""
    rng = random.Random(2019)
    for f, g in _tie_heavy_pairs(1200, seed=2019):
        pts = [NEG_INF, *_all_pairs_grid(f, g)[1:6]]
        pts += [ghost(x.value) for x in pts[1:3]]
        pts.append(ghost(Fraction(rng.randint(-9, 9), rng.randint(1, 3))))
        for h in (f, g, inflate(f, 2), Polynomial([NEG_INF])):
            for x in pts:
                assert poly_eval(h, x) == naive_eval(h, x), (str(h), str(x))


def test_map_comparisons_evaluate_only_essential_forms(monkeypatch):
    """poly_value_surpasses and roots_outside read the maps off the essential
    terms: every term list the grid evaluator walks is its own hull, though
    the operands are passed as they are."""
    seen = []
    walk = maxpoly._values

    def recorded(hull, breakpoints, q, grid):
        seen.append(hull)
        return walk(hull, breakpoints, q, grid)

    monkeypatch.setattr(maxpoly, "_values", recorded)
    inessential = 0
    for f, g in _tie_heavy_pairs(400, seed=2023):
        inessential += essential(f) != f
        for a, b in ((f, g), (g, f)):
            poly_value_surpasses(a, b)
            roots_outside(a, b)
    assert inessential and seen
    assert [h for h in seen if _hull(h) != h] == []


def test_map_comparisons_take_three_hulls(monkeypatch):
    """One for each operand's essential form and one for their sum: the
    comparison grid takes the operands' essential forms as given, and the
    sum's hull is taken on the operands' scaled ints."""
    calls = []
    take = maxpoly._hull
    monkeypatch.setattr(maxpoly, "_hull", lambda terms: calls.append(1) or take(terms))
    for f, g in _tie_heavy_pairs(50, seed=11):
        for compare in (poly_value_surpasses, roots_outside):
            calls.clear()
            compare(f, g)
            assert len(calls) == 3, (compare.__name__, str(f), str(g))


def test_roots_outside_past_the_end_of_the_other_interval():
    """g's root interval [-1/3, +inf) leaves f's [-inf, 7/2] at 7/2; -inf,
    -1/3 and 8/3 are roots of both, 9/2 of g alone."""
    f, g = poly("2g, -3/2"), poly("-inf, 1, 0, -3/2, 2g")
    assert str(roots(f)) == "corner: none; noncorner: [-inf, 7/2]"
    assert all(roots(f).contains(el(x)) for x in ("-inf", "-1/3", "8/3"))
    assert roots_outside(g, f) == [el("9/2")]


def _is_root(f, x):
    return not naive_eval(f, x).is_tangible


def test_roots_outside_matches_a_dense_rational_oracle():
    """Root-set containment against a dense sample: the all-pairs grid of f
    and g (-inf, every pairwise crossover of their monomials, the midpoints
    between them and a margin) and 40 evenly spaced rationals two past the
    outermost crossovers of each."""
    outcomes = set()
    for f, g in _tie_heavy_pairs(800, seed=2017):
        pts = _all_pairs_grid(f, g) + [tangible(x) for h in (f, g)
                                       for x in _grid_spanning_breakpoints(h, 40)]
        for a, b in ((f, g), (g, f)):
            got = roots_outside(a, b)
            assert all(_is_root(a, x) and not _is_root(b, x) for x in got)
            want = any(_is_root(a, x) and not _is_root(b, x) for x in pts)
            assert bool(got) == want, (str(a), str(b))
            outcomes.add(want)
    assert outcomes == {True, False}


def test_adding_a_ghost_polynomial_keeps_the_roots():
    """f = g + h with every coefficient of h ghost or -inf: f ghost-surpasses
    g, every root of g is a root of f (f(x) = g(x) + h(x), and h(x) is not
    tangible), and a ghost-free f equals g.  The similarity check asserts
    only the first; this test checks the other two."""
    rng = random.Random(2031)
    ghost_free = 0
    for _ in range(600):
        den = rng.choice((1, 2))
        g = _tie_heavy_poly(rng, rng.randint(1, 6), 3, den)
        f = poly_add(g, ghost_poly(rng, rng.randint(1, 6), 3, den))
        assert poly_ghost_surpasses(f, g)
        assert roots_outside(g, f) == [], (str(g), str(f))
        if not f.has_ghost_coeff():
            ghost_free += 1
            assert f == g
    assert ghost_free >= 10


def test_grid_comparisons_match_poly_eval_on_the_same_grid():
    """poly_value_surpasses and roots_outside against poly_eval at -inf and
    on the same comparison grid, built by the Element-level oracle
    (test_comparison_grid_matches_the_oracle shows it is the library's), on
    tie-heavy pairs over denominators 1..3 and every pair of EDGE_POLYS;
    the points outside match in value type too.
    Pairs f = g + h with h ghost or -inf, h over its own denominator, make
    the surpassing true and the outside roots empty often enough that both
    answers occur."""
    rng = random.Random(2043)
    pairs = [*_tie_heavy_pairs(600, seed=2043), *_edge_pairs()]
    for _ in range(300):
        g = _tie_heavy_poly(rng, rng.randint(0, 6), 3, rng.randint(1, 3))
        pairs.append((poly_add(g, ghost_poly(rng, rng.randint(0, 6), 3, rng.randint(1, 3))), g))
    outcomes = {"surpasses": set(), "outside": set()}
    for f, g in pairs:
        for a, b in ((f, g), (g, f)):
            ea, eb = essential(a), essential(b)
            points = [NEG_INF, *naive_comparison_grid(ea, eb)]
            want = all(ghost_surpasses(poly_eval(ea, x), poly_eval(eb, x)) for x in points)
            assert poly_value_surpasses(a, b) == want, (str(a), str(b))
            outside = [x for x in points
                       if not poly_eval(ea, x).is_tangible and poly_eval(eb, x).is_tangible]
            assert [typed_element(x) for x in roots_outside(a, b)] == \
                [typed_element(x) for x in outside], (str(a), str(b))
            outcomes["surpasses"].add(want)
            outcomes["outside"].add(bool(outside))
    assert outcomes == {"surpasses": {True, False}, "outside": {True, False}}


def test_comparison_grid_is_linear_in_degree():
    """Each essential form has at most degree-many breakpoints, and the grid
    adds a midpoint per cell and two margins.  The first pair has 16
    monomials a side, whose all-pairs grid has 333 points against a bound
    of 91."""
    squares = Polynomial(tangible(-i * i) for i in range(16))
    shifted = Polynomial(tangible(-i * i + i % 3) for i in range(16))
    for f, g in [(squares, shifted), *_tie_heavy_pairs(400, seed=7)]:
        bound = 2 * (f.degree + g.degree + max(f.degree, g.degree)) + 1
        assert len(_grid_values(essential(f), essential(g))[1]) <= bound, (str(f), str(g))


# -- the int scale against the Element-level oracles ------------------------------

def _typed_values(xs):
    return [(x, type(x)) for x in xs]


def test_essential_matches_the_oracle():
    for f in _oracle_polys(800, seed=2047):
        _, (terms,) = _read(f)
        assert [i for i, _, _ in _hull(terms)] == naive_essential_exponents(f), str(f)
        assert essential(f).coeffs == naive_essential(f).coeffs, str(f)


def test_breakpoints_match_the_oracle():
    """The crossovers on the grid's scale, read back as rationals, are the
    oracle's, value and value type."""
    lengths = set()
    for f in _oracle_polys(800, seed=2053):
        scale, (terms,) = _read(f)
        hull = _hull(terms)
        q = 2 * lcm(*(t[0] - s[0] for s, t in zip(hull, hull[1:])))
        got = [rational(x, q * scale) for x in _breakpoints(hull, q)]
        want = naive_breakpoints(naive_essential(f).monomials())
        assert _typed_values(got) == _typed_values(want), str(f)
        lengths.add(len(got))
    assert {0, 1, 2, 3} <= lengths


def test_roots_match_the_oracle():
    kinds = set()
    for f in _oracle_polys(1600, seed=2039):
        if f.is_neg_inf:
            with pytest.raises(DegeneratePolynomialError):
                roots(f)
            with pytest.raises(DegeneratePolynomialError):
                naive_roots(f)
            continue
        got = roots(f)
        assert typed_roots(got) == typed_roots(naive_roots(f)), str(f)
        kinds.update(type(v.value).__name__ for v, _ in got.corner)
        kinds.update("-inf point" if iv.hi is not None and iv.hi.is_neg_inf else "interval"
                     for iv in got.noncorner)
    assert kinds == {"int", "Fraction", "-inf point", "interval"}


def test_comparison_grid_matches_the_oracle():
    """The grid the comparisons evaluate, read back as rationals, is the
    oracle's point for point, value type included, and each value on it
    is poly_eval's there, kind, value and value type."""
    for f, g in _oracle_pairs(600, seed=2063):
        ef, eg = essential(f), essential(g)
        unit, grid, fv, gv = _grid_values(ef, eg)
        points = [NEG_INF] + [tangible(rational(x, unit)) for x in grid]
        want = naive_comparison_grid(ef, eg)
        assert [typed_element(x) for x in points[1:]] == [typed_element(x) for x in want]
        for h, values in ((ef, fv), (eg, gv)):
            got = [NEG_INF if v is None else Element(k, rational(v, unit)) for k, v in values]
            assert [typed_element(x) for x in got] == \
                [typed_element(poly_eval(h, x)) for x in points], (str(f), str(g))


def test_poly_ghost_surpasses_matches_the_coefficient_oracle():
    """On tie-heavy pairs and on sums g + h with h ghost or -inf, over
    mixed denominators, so that both answers occur."""
    rng = random.Random(2071)
    pairs = list(_oracle_pairs(800, seed=2071))
    for _ in range(400):
        g = _tie_heavy_poly(rng, rng.randint(0, 6), 3, rng.randint(1, 3))
        f = poly_add(g, ghost_poly(rng, rng.randint(0, 6), 3, rng.randint(1, 3)))
        pairs += [(f, g), (g, f)]
    outcomes = set()
    for f, g in pairs:
        n = max(len(f.coeffs), len(g.coeffs))
        want = all(ghost_surpasses(f.coeff(i), g.coeff(i)) for i in range(n))
        assert poly_ghost_surpasses(f, g) == want, (str(f), str(g))
        outcomes.add(want)
    assert outcomes == {True, False}


def test_maxpoly_maps_do_no_fraction_arithmetic(monkeypatch):
    """Every map-level function, on Fraction and ghost polynomials, gives
    the same result with Fraction's arithmetic and order replaced by a
    raising stub: the work is on scaled ints."""
    f = poly("1/4, -inf, 2/3g, -1/5, -7/6")
    g = poly("-1/2g, 1/3, 1/6g, -inf, -1/3")
    h = poly("-inf, 5/6g, -1/4, -inf, -2/3")
    s = poly_add(g, poly("-1/2g, -inf, 1/6g, 1/2g"))
    calls = [lambda: essential(f), lambda: essential(g), lambda: roots(f),
             lambda: roots(g), lambda: roots(h), lambda: roots(s)]
    for a, b in ((f, g), (g, f), (f, h), (h, g), (s, g), (g, s), (f, f)):
        calls += [lambda a=a, b=b: poly_value_surpasses(a, b),
                  lambda a=a, b=b: poly_value_equal(a, b),
                  lambda a=a, b=b: roots_outside(a, b),
                  lambda a=a, b=b: poly_ghost_surpasses(a, b)]
    want = [call() for call in calls]
    assert True in want and False in want and any(type(w) is list and w for w in want)

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic in a maxpolynomial map function")

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, no_arithmetic)
    got = [call() for call in calls]
    monkeypatch.undo()
    assert got == want


# -- text form ---------------------------------------------------------------------------


def test_poly_round_trip():
    for text in ["2, 2, 0", "6, 5g, 4, 0", "-inf, -1/2g, 3"]:
        assert format_poly(parse_poly(text)) == text


def test_poly_parse_rejects():
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("1, x")


def test_elements_and_polynomials_survive_pickle_and_copy():
    """pickle at every protocol, copy.copy and copy.deepcopy give an equal
    Element or Polynomial of the same value types."""
    copiers = [lambda x, p=p: pickle.loads(pickle.dumps(x, p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.copy, copy.deepcopy]
    items = [NEG_INF, tangible(3), ghost(Fraction(-1, 2)), poly("1, -inf, 1/3g"), poly("-inf")]
    for x in items:
        for copier in copiers:
            c = copier(x)
            assert c == x and type(c) is type(x)
            es = c.coeffs if isinstance(c, Polynomial) else (c,)
            want = x.coeffs if isinstance(x, Polynomial) else (x,)
            assert [typed_element(e) for e in es] == [typed_element(e) for e in want]
