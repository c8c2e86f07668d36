"""Shared test helpers: compact builders and independent oracles."""

import sys
from fractions import Fraction
from itertools import combinations, permutations

from supertrop import (
    DimensionMismatchError,
    Matrix,
    NEG_INF,
    ONE,
    Polynomial,
    add,
    ghost,
    ghost_surpasses,
    identity,
    mat_add,
    mul,
    parse_scalar,
    tangible,
)


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
    acc = NEG_INF
    for perm in permutations(cols):
        track = ONE
        for r, c in zip(rows, perm):
            track = mul(track, a.at(r, c))
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
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            acc = NEG_INF
            for k in range(a.cols):
                acc = add(acc, mul(arow[k], b.at(k, j)))
            out.append(acc)
    return Matrix(a.rows, b.cols, out)


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
