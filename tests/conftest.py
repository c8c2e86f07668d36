"""Shared test helpers: compact builders and independent oracles."""

import sys
from fractions import Fraction
from itertools import combinations, permutations

from supertrop import (
    DegeneratePolynomialError,
    DimensionMismatchError,
    Element,
    Interval,
    Matrix,
    NEG_INF,
    ONE,
    Polynomial,
    RootSet,
    add,
    ghost,
    ghost_surpasses,
    identity,
    mat_add,
    mul,
    parse_scalar,
    poly_add,
    tangible,
)
from supertrop.lawcheck import GenConfig
from supertrop.semiring import GHOST_KIND, TANGIBLE_KIND, rational

# The arithmetic and order operators of Fraction.  A guard test replaces
# them with a raising stub to show that a layer works on scaled ints only.
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                "__lt__", "__le__", "__gt__", "__ge__")


def rebind_everywhere(monkeypatch, module, name, wrap) -> None:
    """Point every supertrop module's binding of module.name at
    wrap(original), so calls through any import of it, the defining
    module's own included, reach the wrapper; monkeypatch undoes it."""
    original = getattr(module, name)
    wrapper = wrap(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "supertrop":
            for attr, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, attr, wrapper)


def tie_heavy_cfgs(count: int, seed: int) -> list[GenConfig]:
    """count configs at n = 1..6 in turn: numerators in [-2, 2] over 1 or
    2, -inf and ghost with probability 1/4 each, seeds from seed on.  The
    draws on which the laws that the law checks derive instead of assert
    are tested as theorems."""
    return [GenConfig(n=1 + t % 6, numerator_range=(-2, 2), denominator=1 + t // 6 % 2,
                      neginf_prob=Fraction(1, 4), ghost_prob=Fraction(1, 4), seed=seed + t)
            for t in range(count)]


def el(s: str):
    return parse_scalar(s)


def mat(s: str) -> Matrix:
    """Build a matrix from 'row; row; ...' with space-separated scalars."""
    return Matrix.from_rows(
        [[parse_scalar(tok) for tok in row.split()] for row in s.split(";")]
    )


def poly(s: str) -> Polynomial:
    """Coefficients from exponent 0 upward, comma separated."""
    return Polynomial(parse_scalar(p) for p in s.split(","))


def ghost_poly(rng, degree: int, num: int, den: int) -> Polynomial:
    """Each coefficient -inf or a ghost numerator in [-num, num] over den,
    with even odds: a polynomial that, added to another, is ghost-surpassed
    by the sum coefficient-wise."""
    return Polynomial(
        NEG_INF if rng.randrange(2) else ghost(Fraction(rng.randint(-num, num), den))
        for _ in range(degree + 1)
    )


def naive_det(a: Matrix, rows=None, cols=None):
    """Independent permanent oracle: fold the scalar semiring ops over every
    permutation track, one at a time.  With rows and cols, the permanent of
    that submatrix (the unit when both are empty)."""
    assert a.is_square
    rows = range(a.rows) if rows is None else rows
    cols = range(a.cols) if cols is None else cols
    es, n = a.entries, a.cols
    acc = NEG_INF
    for perm in permutations(cols):
        track = ONE
        for r, c in zip(rows, perm):
            track = mul(track, es[r * n + c])
        acc = add(acc, track)
    return acc


def naive_adj(a: Matrix) -> Matrix:
    """Adjoint oracle: entry (i, j) is naive_det of the minor deleting row j
    and column i."""
    n = a.rows
    return Matrix(n, n, (
        naive_det(a, [r for r in range(n) if r != j], [c for c in range(n) if c != i])
        for i in range(n) for j in range(n)
    ))


def naive_char_poly(a: Matrix) -> Polynomial:
    """Characteristic polynomial oracle: the coefficient of x^k sums naive_det
    over every (n-k) x (n-k) principal submatrix."""
    n = a.rows
    coeffs = [ONE] * (n + 1)
    for size in range(1, n + 1):
        acc = NEG_INF
        for subset in combinations(range(n), size):
            acc = add(acc, naive_det(a, subset, subset))
        coeffs[n - size] = acc
    return Polynomial(coeffs)


def naive_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product oracle: fold the scalar semiring ops over every index k of
    every entry, -inf terms included."""
    if a.cols != b.rows:
        raise DimensionMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    aes, bes, n, m = a.entries, b.entries, a.cols, b.cols
    out = []
    for i in range(a.rows):
        for j in range(m):
            acc = NEG_INF
            for k in range(n):
                acc = add(acc, mul(aes[i * n + k], bes[k * m + j]))
            out.append(acc)
    return Matrix(a.rows, m, out)


def naive_power_sum(coeffs, a: Matrix) -> Matrix:
    """Power sum oracle: the sum of c_i A^i with A^0 = I, each power by
    naive_mat_mul, each term scaled by the scalar mul and added by mat_add,
    -inf coefficients included."""
    def times(c, m):
        return m.map(lambda e: mul(c, e))

    acc = times(coeffs[0], identity(a.rows))
    p = None
    for c in coeffs[1:]:
        p = a if p is None else naive_mat_mul(p, a)
        acc = mat_add(acc, times(c, p))
    return acc


def naive_star(a: Matrix) -> Matrix:
    """Kleene star oracle: the power sum I + A + ... + A^(n-1), by repeated
    naive_mat_mul and mat_add.  Ties in the sum come out ghost, so compare
    it with the star in magnitude."""
    acc = p = identity(a.rows)
    for _ in range(a.rows - 1):
        p = naive_mat_mul(p, a)
        acc = mat_add(acc, p)
    return acc


def _all_pairs_grid(f: Polynomial, g: Polynomial) -> list:
    """-inf, every pairwise crossover of the combined monomials of f and g, a
    midpoint inside each cell and a margin on both unbounded sides."""
    mons = f.monomials() + g.monomials()
    xs = {Fraction(a.value - b.value, j - i)
          for k, (i, a) in enumerate(mons) for j, b in mons[k + 1:] if i != j}
    pts = sorted(xs) or [Fraction(0)]
    grid = [pts[0] - 1, pts[-1] + 1]
    grid += pts + [(x + y) / 2 for x, y in zip(pts, pts[1:])]
    return [NEG_INF] + [tangible(x) for x in grid]


def naive_eval(f: Polynomial, x):
    """Evaluation oracle: walk the dense coefficient list with a running
    power of x, skipping the -inf coefficients."""
    acc = f.coeffs[0]
    xp = ONE
    for c in f.coeffs[1:]:
        xp = mul(xp, x)
        if not c.is_neg_inf:
            acc = add(acc, mul(c, xp))
    return acc


def naive_value_surpasses(f: Polynomial, g: Polynomial) -> bool:
    """Pointwise ghost surpassing oracle, sampled on the all-pairs grid."""
    return all(ghost_surpasses(naive_eval(f, x), naive_eval(g, x))
               for x in _all_pairs_grid(f, g))


def naive_value_equal(f: Polynomial, g: Polynomial) -> bool:
    """Pointwise equality oracle, sampled on the all-pairs grid."""
    return all(naive_eval(f, x) == naive_eval(g, x) for x in _all_pairs_grid(f, g))


# -- maxpolynomial oracles: the Element-level map functions ---------------------


def typed_element(e) -> tuple:
    """An Element as (kind, value, value type), so that a comparison also
    tells an int from an equal Fraction."""
    return (e.kind, e.value, type(e.value))


def typed_roots(rs: RootSet) -> tuple:
    """A RootSet with every Element typed."""
    return ([(typed_element(v), m) for v, m in rs.corner],
            [(typed_element(iv.lo), iv.hi and typed_element(iv.hi)) for iv in rs.noncorner])


def naive_essential_exponents(f: Polynomial) -> list[int]:
    """Exponents of the strict vertices of the upper concave envelope of
    the points (exponent, value), by Fraction cross products."""
    hull = []
    for i, c in f.monomials():
        v = c.value
        while len(hull) >= 2:
            i1, v1 = hull[-2]
            i2, v2 = hull[-1]
            if (v2 - v1) * (i - i1) > (v - v1) * (i2 - i1):
                break
            hull.pop()
        hull.append((i, v))
    return [i for i, _ in hull]


def naive_essential(f: Polynomial) -> Polynomial:
    keep = set(naive_essential_exponents(f))
    return Polynomial(c if i in keep else NEG_INF for i, c in enumerate(f.coeffs))


def naive_breakpoints(mons) -> list:
    """Crossovers of consecutive monomials of an essential form, as
    canonical rationals."""
    return [rational(a.value - b.value, j - i) for (i, a), (j, b) in zip(mons, mons[1:])]


def naive_roots(f: Polynomial) -> RootSet:
    """Roots oracle: walk the essential monomials with every crossover an
    Element, a corner between two tangible monomials and an interval over
    each run of ghost ones."""
    if f.is_neg_inf:
        raise DegeneratePolynomialError("every point is a root of the -inf polynomial")
    mons = naive_essential(f).monomials()
    cross = [NEG_INF, *(Element(TANGIBLE_KIND, x) for x in naive_breakpoints(mons))]
    corner, noncorner = [], []
    if mons[0][0] > 0 and mons[0][1].kind == TANGIBLE_KIND:
        noncorner.append(Interval(NEG_INF, NEG_INF))
    lo = None
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


def naive_comparison_grid(f: Polynomial, g: Polynomial) -> list:
    """Comparison grid oracle for essential forms f and g: the breakpoints
    of f, g and the essential form of poly_add(f, g), a Fraction midpoint
    inside each cell and a margin of 1 on both unbounded sides."""
    xs = set()
    for h in (f, g, naive_essential(poly_add(f, g))):
        xs.update(naive_breakpoints(h.monomials()))
    if not xs:
        return [tangible(0)]
    pts = sorted(xs)
    grid = [pts[0] - 1]
    for k, x in enumerate(pts):
        grid.append(x)
        if k + 1 < len(pts):
            grid.append(rational(x + pts[k + 1], 2))
    grid.append(pts[-1] + 1)
    return [Element(TANGIBLE_KIND, x) for x in grid]
