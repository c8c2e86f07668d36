"""The subset-fold kernels against the enumeration oracles, on tie-heavy
inputs, and their self-checks as typed errors."""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from supertrop import (
    DEFAULT_DET_CAP,
    NEG_INF,
    ONE,
    Element,
    Matrix,
    NotDefiniteError,
    NotNonSingularError,
    Polynomial,
    RootSet,
    SizeCapExceededError,
    StrictlySingularError,
    VerificationError,
    add,
    adjugate,
    char_poly,
    classify,
    conjugate,
    definite_form,
    determinant,
    eigenvalues,
    eval_at_matrix,
    ghost,
    hat_matrix,
    identity,
    invert,
    is_definite,
    kleene_star,
    mat_mul,
    mat_pow,
    mul,
    neg_inf_matrix,
    power_sum,
    pseudo_inverse,
    tangible,
    to_ghost,
    to_tangible,
    tropmat,
)
from supertrop.lawcheck import Constraint, GenConfig, gen_matrix
from supertrop.semiring import element_of

from conftest import (
    FRACTION_OPS,
    mat,
    naive_adj,
    naive_char_poly,
    naive_det,
    naive_mat_mul,
    naive_power_sum,
    naive_roots,
    naive_star,
    poly,
    typed_roots,
)

# Matrices per order; the oracles enumerate n! tracks per minor.
COUNTS = {1: 40, 2: 60, 3: 60, 4: 60, 5: 40, 6: 25, 7: 10}


def tie_heavy(n, seed):
    """Numerators in [-2, 2] over 1 or 2, a fifth -inf and a tenth ghosts:
    maxima are often tied, which is where ghost-ness is decided."""
    return gen_matrix(GenConfig(n=n, numerator_range=(-2, 2), denominator=1 + seed % 2,
                                neginf_prob=Fraction(1, 5), ghost_prob=Fraction(1, 10),
                                seed=seed))


def fresh(a):
    """A new Matrix with a's entries and an empty memo."""
    return Matrix(a.rows, a.cols, a.entries)


def cases(n):
    return [tie_heavy(n, 100 * n + t) for t in range(COUNTS[n])]


def mixed_cases(n):
    """Numerators in [-4, 4] over 1, 2 or 3, so the kernels' common scale is
    rarely 1, with the same -inf and ghost rates as tie_heavy."""
    return [gen_matrix(GenConfig(n=n, numerator_range=(-4, 4), denominator=1 + t % 3,
                                 neginf_prob=Fraction(1, 5), ghost_prob=Fraction(1, 10),
                                 seed=1000 * n + t))
            for t in range(COUNTS[n])]


def definite_cases(n):
    """The definite factors of the non-singular mixed_cases(n)."""
    return [definite_form(a)[1] for a in mixed_cases(n) if determinant(a).is_tangible]


def tie_heavy_definite(n, count):
    """Definite factors of non-singular draws with numerators in [-2, 2]
    over 1 or 2, a third -inf and a third ghosts: the heaviest paths
    between two indices often tie or pass through a ghost."""
    return [gen_matrix(GenConfig(n=n, numerator_range=(-2, 2), denominator=1 + t % 2,
                                 neginf_prob=Fraction(1, 3), ghost_prob=Fraction(1, 3),
                                 seed=700 * n + t), Constraint.DEFINITE)
            for t in range(count)]


def naive_pinv(a):
    """The adjoint oracle scaled by the inverse of the determinant oracle,
    ghosted when det is ghost."""
    d = naive_det(a)
    c = invert(to_tangible(d))
    c = to_ghost(c) if d.is_ghost else c
    return naive_adj(a).map(lambda e: mul(c, e))


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
def test_eigenvalues_match_oracle_on_ties(n):
    """The roots of f_A against the Element-level roots oracle of the
    characteristic polynomial oracle, kind, value and value type, on
    tie-heavy draws and on draws over denominators 1..3."""
    for a in cases(n) + mixed_cases(n):
        assert typed_roots(eigenvalues(a)) == typed_roots(naive_roots(naive_char_poly(a))), a


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


def test_pseudo_inverse_matches_oracle_scaling():
    """The adjoint oracle scaled by the inverse of the determinant oracle,
    ghosted when det is ghost; undefined when det is -inf."""
    kinds = set()
    for n in sorted(COUNTS):
        for a in mixed_cases(n):
            d = naive_det(a)
            kinds.add(d.kind)
            if d.is_neg_inf:
                with pytest.raises(StrictlySingularError):
                    pseudo_inverse(a)
                continue
            assert pseudo_inverse(a) == naive_pinv(a)
    assert len(kinds) == 3


def product_factor(rng, rows, cols):
    """Numerators in [-2, 2] over 1, 2 or 3, drawn entry by entry so one
    matrix mixes its denominators; a fifth -inf, a tenth ghosts, and in a
    third of the draws a whole row, in another third a whole column of -inf."""
    entries = []
    for _ in range(rows * cols):
        if rng.randrange(5) == 0:
            entries.append(NEG_INF)
            continue
        v = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        entries.append(ghost(v) if rng.randrange(10) == 0 else tangible(v))
    blank = rng.randrange(3)
    if blank == 1:
        i = rng.randrange(rows)
        entries[i * cols:(i + 1) * cols] = [NEG_INF] * cols
    elif blank == 2:
        j = rng.randrange(cols)
        entries[j::cols] = [NEG_INF] * rows
    return Matrix(rows, cols, entries)


def product_shapes(rng):
    """(rows, inner, cols): squares of order 1..10, each also times an n x 1
    column, and rectangular shapes up to 6 a side."""
    for n in range(1, 11):
        for _ in range(12):
            yield n, n, n
            yield n, n, 1
    for _ in range(150):
        yield rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)


def test_mat_mul_matches_oracle_on_ties():
    """Each entry of the product against the scalar fold: same kind, same
    value and the same value type (int when integral, else Fraction)."""
    rng = random.Random(2042)
    kinds = set()
    for p, q, r in product_shapes(rng):
        a, b = product_factor(rng, p, q), product_factor(rng, q, r)
        got, want = mat_mul(a, b), naive_mat_mul(a, b)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert [(e.kind, e.value, type(e.value)) for e in got.entries] == \
            [(e.kind, e.value, type(e.value)) for e in want.entries], (a, b)
        kinds.update((e.is_ghost, type(e.value)) for e in got.entries)
    # -inf, tangibles and ghosts occur, the latter with both value types
    assert kinds == {(False, type(None)), (False, int), (False, Fraction),
                     (True, int), (True, Fraction)}


def tie_heavy_entry(rng):
    """A quarter -inf, a third ghost, the rest tangible; numerators in
    [-2, 2] over 1, 2 or 3."""
    kind = rng.randrange(12)
    if kind < 3:
        return NEG_INF
    v = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    return ghost(v) if kind < 7 else tangible(v)


def typed(m):
    return [(e.kind, e.value, type(e.value)) for e in m.entries]


# Coefficient lists whose denominators, ghosts and -inf gaps the matrix
# alone does not have, so the common scale must include the coefficients.
FIXED_COEFFS = ["1/2, -inf, 1/3g", "-inf, -inf, 0", "2g", "-inf, 1/6, -inf, -5/4g, -inf"]


@pytest.mark.parametrize("n", range(1, 7))
def test_power_sum_matches_oracle_on_ties(n):
    """power_sum, mat_pow (k = 0..n+1) and eval_at_matrix against the
    Element-level power sum: same kind, value and value type entrywise."""
    rng = random.Random(3000 + n)
    int_matrix = Matrix(n, n, [tangible(rng.randint(-2, 2)) for _ in range(n * n)])
    for f in FIXED_COEFFS:
        cs = poly(f).coeffs
        assert typed(power_sum(cs, int_matrix)) == typed(naive_power_sum(cs, int_matrix))
    for _ in range(30):
        a = Matrix(n, n, [tie_heavy_entry(rng) for _ in range(n * n)])
        for k in range(n + 2):
            cs = [NEG_INF] * k + [ONE]
            assert typed(mat_pow(a, k)) == typed(naive_power_sum(cs, a)), (a, k)
        cs = [tie_heavy_entry(rng) for _ in range(rng.randint(1, n + 2))]
        assert typed(power_sum(cs, a)) == typed(naive_power_sum(cs, a)), (a, cs)
        f = char_poly(a)
        assert typed(eval_at_matrix(f, a)) == typed(naive_power_sum(f.coeffs, a)), a
    assert power_sum([], int_matrix) == neg_inf_matrix(n, n)


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_kleene_star_matches_power_sum_oracle(n):
    ds = definite_cases(n)
    assert ds
    for d in ds:
        want = hat_matrix(naive_star(d))
        assert kleene_star(d) == want


def definiteness_cases(n, count):
    """Numerators in [-3, 1] over 1 or 2, a quarter -inf and 15% ghosts off
    the diagonal; the diagonal is tangible 0 except for 5% ghost-0 entries.
    Cycles of weight exactly 0 are common, and they decide definiteness."""
    rng = random.Random(n)
    out = []
    for _ in range(count):
        entries = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    entries.append(to_ghost(ONE) if rng.random() < 0.05 else ONE)
                elif rng.random() < 0.25:
                    entries.append(NEG_INF)
                else:
                    v = tangible(Fraction(rng.randint(-3, 1), rng.randint(1, 2)))
                    entries.append(to_ghost(v) if rng.random() < 0.15 else v)
        out.append(Matrix(n, n, entries))
    return out


def with_zero_cycle(d):
    """A definite d with its first finite-star off-diagonal entry (i, j)
    raised so that the heaviest cycle through it weighs exactly 0: a tie
    with the identity track, so not definite."""
    star = naive_star(d)
    n = d.rows
    for i, j in permutations(range(n), 2):
        back = star.at(j, i)
        if not back.is_neg_inf:
            rows = d.to_rows()
            rows[i][j] = tangible(-back.value)
            return Matrix.from_rows(rows)
    return None


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_is_definite_matches_determinant_oracle_on_ties(n):
    """The cycle test of the closure against the definition: a tangible-0
    diagonal and a permanent of exactly tangible 0.  Random draws thin out
    to non-definite ones as n grows, so definite draws and their zero-cycle
    variants are checked too."""
    definite = [gen_matrix(GenConfig(n=n, numerator_range=(-3, 1), denominator=1 + t % 2,
                                     neginf_prob=Fraction(1, 4), ghost_prob=Fraction(3, 20),
                                     seed=500 * n + t), Constraint.DEFINITE)
                for t in range(COUNTS[n])]
    tied = [m for m in map(with_zero_cycle, definite) if m is not None]
    verdicts = []
    for a in definiteness_cases(n, 4 * COUNTS[n]) + definite + tied:
        want = all(a.at(i, i) == ONE for i in range(n)) and naive_det(a) == ONE
        assert is_definite(a) == want
        verdicts.append(want)
    assert verdicts.count(True) >= COUNTS[n]
    assert verdicts.count(False) >= COUNTS[n] or n == 1


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_definite_form_splits_a_permuted_definite_matrix(n):
    """definite_form(P * D) is (P, D) for a generalized permutation P and a
    definite D: P * D's dominant track is P's, and its entries are P's."""
    rng = random.Random(n)
    ds = definite_cases(n)
    assert ds
    for d in ds:
        perm = rng.sample(range(n), n)
        entries = [NEG_INF] * (n * n)
        for i in range(n):
            entries[i * n + perm[i]] = tangible(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        p = Matrix(n, n, entries)
        assert definite_form(mat_mul(p, d)) == (p, d)


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_conductor_carries_the_determinant(n):
    """The theorem behind definite_form's unfolded conductor: on tie-heavy
    non-singular draws with Fractions, ghosts and -inf, the conductor of
    either side, folded here, has det(A) as its determinant."""
    ghosted = scaled = 0
    for t in range(2 * COUNTS[n]):
        a = gen_matrix(GenConfig(n=n, numerator_range=(-2, 2), denominator=1 + t % 3,
                                 neginf_prob=Fraction(1, 4), ghost_prob=Fraction(1, 4),
                                 seed=1300 * n + t), Constraint.NON_SINGULAR)
        for side in ("left", "right"):
            conductor, _ = definite_form(fresh(a), side)
            assert determinant(conductor) == determinant(a), (a, side)
        ghosted += any(e.is_ghost for e in a.entries)
        scaled += a._view[2] > 1
    assert scaled >= COUNTS[n] // 2
    assert ghosted >= COUNTS[n] // 2 or n == 1  # a 1x1 ghost is singular


def test_kernels_fold_their_input_once(monkeypatch):
    """pseudo_inverse runs one forward and one backward fold, definite_form
    one fold of A (its conductor is checked without one), and kleene_star none:
    definiteness is the closure's own cycle test.  Nor do the adjoint and
    the pseudo-inverse of a definite matrix fold: both are its closure."""
    folds = []
    fold = tropmat._fold
    monkeypatch.setattr(tropmat, "_fold", lambda *args: folds.append(1) or fold(*args))
    a = mat("1 0 -1; 3 4 -inf; 0 -2 2")
    d = mat("0 -1 -3; -2 0 -1; -inf -2 0")
    for call, want in [(lambda: pseudo_inverse(a), 2),
                       (lambda: definite_form(fresh(a)), 1),
                       (lambda: kleene_star(d), 0),
                       (lambda: adjugate(fresh(d)), 0),
                       (lambda: pseudo_inverse(fresh(d)), 0)]:
        folds.clear()
        call()
        assert len(folds) == want


@pytest.mark.parametrize("n", range(1, 7))
def test_definite_inverse_matches_oracle_on_ties(n, monkeypatch):
    """adj(D) and D^inv of a definite D are read from its closure, with no
    fold, and equal the adjoint oracle, kind, value and value type, whether
    the closure was made first (by kleene_star or is_definite) or by the
    adjoint or the pseudo-inverse itself, or det was kept first by a
    forward fold (determinant's, or char_poly's x-free part), the one fold
    made; kleene_star(D) is then their tangible projection.  Each D is
    checked with its ghosts and as hat(D), whose ghost entries come from
    tied paths alone."""
    folds = []
    fold = tropmat._fold
    monkeypatch.setattr(tropmat, "_fold", lambda *args: folds.append(1) or fold(*args))
    folding = (determinant, char_poly)
    ghosted = {False: 0, True: 0}
    for d in tie_heavy_definite(n, COUNTS[n]):
        for x, tangible_only in ((d, False), (hat_matrix(d), True)):
            oracle = naive_adj(x)
            want, star = exact(oracle), hat_matrix(oracle)
            ghosted[tangible_only] += oracle.entries != star.entries
            for first in (kleene_star, is_definite, adjugate, pseudo_inverse, *folding):
                for kernel in (adjugate, pseudo_inverse):
                    m = fresh(x)
                    folds.clear()
                    first(m)
                    assert exact(kernel(m)) == want, (x, first, kernel)
                    assert kleene_star(m) == star
                    assert len(folds) == int(first in folding)
    if n >= 2:
        assert ghosted[False] >= COUNTS[n] // 4
    if n >= 3:
        assert ghosted[True] >= COUNTS[n] // 5


def test_tangible_zero_diagonal_without_definiteness_is_folded(monkeypatch):
    """A tangible-0 diagonal with a cycle of weight 0 (det ghost) or a
    positive cycle is not definite: its adjoint and pseudo-inverse come from
    the fold, forward and backward, and equal the oracles."""
    folds = []
    fold = tropmat._fold
    monkeypatch.setattr(tropmat, "_fold", lambda *args: folds.append(1) or fold(*args))
    for text, det_ghost in [("0 1; -1 0", True),
                            ("0 1 -inf; -inf 0 2g; -3 -inf 0", True),
                            ("0 2; -1 0", False),
                            ("0 -1 1/2; -inf 0 -1; 1 -inf 0", False)]:
        a = mat(text)
        assert naive_det(a).is_ghost == det_ghost and not is_definite(a)
        for kernel, oracle in ((adjugate, naive_adj), (pseudo_inverse, naive_pinv)):
            for closed_first in (False, True):
                m = fresh(a)
                if closed_first:
                    assert not is_definite(m)
                folds.clear()
                assert exact(kernel(m)) == exact(oracle(a)), (text, kernel)
                assert len(folds) == 2


def traced_fold(fold, *args):
    """fold(*args) and every layer list it built, each as it stood when the
    fold moved on: a line tracer on the fold's frame notes each new list
    bound to `layer`."""
    code = fold.__code__
    layers = []

    def on_line(frame, event, arg):
        layer = frame.f_locals.get("layer")
        if layer is not None and (not layers or layers[-1] is not layer):
            layers.append(layer)
        return on_line

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
    try:
        table = fold(*args)
    finally:
        sys.settrace(before)
    return table, layers


def recorded_folds(monkeypatch):
    """Route tropmat's two folds, the permanent's (_fold) and the
    characteristic one above degree 0 (_x_fold), through traced_fold; each
    fold appends (name, slots, (mag, gh), layers) to the returned list."""
    seen = []
    for name in ("_fold", "_x_fold"):
        def fold(*args, _name=name, _original=getattr(tropmat, name)):
            table, layers = traced_fold(_original, *args)
            seen.append((_name, len(table[0]), table, layers))
            return table

        monkeypatch.setattr(tropmat, name, fold)
    return seen


def check_layers(n, size, mag, layers):
    """One layer per row plus the empty set; layer r lists each finite slot
    whose low n bits have r set bits, each once."""
    full = (1 << n) - 1
    assert len(layers) == n + 1
    for r, layer in enumerate(layers):
        assert len(set(layer)) == len(layer)
        assert set(layer) == {k for k in range(size)
                              if mag[k] is not None and (k & full).bit_count() == r}


def naive_x_slot(a, deg, cols):
    """The coefficient of x^deg in the permanent of the first len(cols)
    rows of xI + A on the columns cols: the rows that take x take their
    diagonal column, so it sums, over every such set T of deg rows, the
    permanent of the other rows on the other columns."""
    rows = range(len(cols))
    acc = NEG_INF
    for t in combinations([r for r in rows if r in cols], deg):
        acc = add(acc, naive_det(a, [r for r in rows if r not in t],
                                 [c for c in cols if c not in t]))
    return acc


@pytest.mark.parametrize("n", range(1, 7))
def test_fold_table_matches_oracle_on_ties(n, monkeypatch):
    """Every slot S of the determinant's table is the permanent of the first
    |S| rows on columns S (None where no placement reaches S), and every
    slot (deg - 1) << n | S of the characteristic table is the coefficient
    of x^deg in the permanent of the first |S| rows of xI + A on columns
    S.  char_poly extends the table that det(A) left in the slot, folding
    nothing at degree 0; on a fresh copy it folds A forward itself, into
    the same table."""
    seen = recorded_folds(monkeypatch)
    full = (1 << n) - 1
    kinds, scales = set(), set()
    for a in cases(n)[:12] + mixed_cases(n)[:12]:
        scale = a._view[2]
        scales.add(scale)
        seen.clear()
        x = fresh(a)
        determinant(x)
        char_poly(x)
        char_poly(fresh(a))
        assert [name for name, _, _, _ in seen] == ["_fold", "_x_fold"] * 2
        [(_, size, (mag, gh), layers), (_, csize, (cmag, cgh), clayers),
         (_, _, table, _), (_, _, ctable, _)] = seen
        assert (size, csize) == (full + 1, n << n)
        assert (table, ctable) == ((mag, gh), (cmag, cgh))
        for s in range(full + 1):
            cols = [c for c in range(n) if s >> c & 1]
            for deg, (m, g) in enumerate([(mag[s], gh[s])] + [
                    (cmag[d << n | s], cgh[d << n | s]) for d in range(n)]):
                want = naive_x_slot(a, deg, cols)
                got = element_of(m, g, scale)
                assert (got, m is None) == (want, want.is_neg_inf), (a, deg, s)
                kinds.add(got.kind)
        check_layers(n, size, mag, layers)
        check_layers(n, csize, cmag, clayers)
    assert len(kinds) == 3 and len(scales) > 1


def test_each_fold_returns_one_flat_table(monkeypatch):
    """On a 5x5 matrix every fold returns two lists of slots, one of int
    magnitudes or None and one of ghost flags: 2^n slots for det, the
    adjoint's minors, the definite form's one fold and the x-free part of
    the characteristic polynomial, n 2^n for its degrees above 0, and
    never a dict."""
    n = 5
    a = next(m for m in mixed_cases(n) if determinant(m).is_tangible)
    seen = recorded_folds(monkeypatch)
    for call, sizes in [(determinant, [1 << n]), (adjugate, [1 << n, 1 << n]),
                        (char_poly, [1 << n, n << n]), (definite_form, [1 << n])]:
        seen.clear()
        call(fresh(a))
        assert [size for _, size, _, _ in seen] == sizes
        for _, size, table, _ in seen:
            assert type(table) is tuple and len(table) == 2
            mag, gh = table
            assert type(mag) is list and type(gh) is list
            assert len(mag) == len(gh) == size
            assert all(m is None or type(m) is int for m in mag)
            assert all(type(g) is bool for g in gh)


# Magnitudes inside the kernels are ints scaled by the common denominator.
def test_kernels_do_no_fraction_arithmetic(monkeypatch):
    a = mat("1/2 -1/3 -inf; 2/3g 0 -1/6; -inf 5/6 -1/2")
    d = mat("0 -1/2 -inf; -1/3 0 -2/3g; -5/6 -inf 0")
    assert is_definite(d)
    p = poly("1/4, -inf, 2/3g, -1/5")
    calls = [(tropmat.determinant, a), (tropmat.adjugate, a), (tropmat.pseudo_inverse, a),
             (tropmat.char_poly, a), (tropmat.is_definite, d),
             (tropmat.kleene_star, d), (lambda m: tropmat.mat_mul(m, d), a),
             (lambda m: tropmat.mat_pow(m, 0), a), (lambda m: tropmat.mat_pow(m, 3), a),
             (lambda m: tropmat.mat_pow(m, 4), a),
             (lambda m: eval_at_matrix(p, m), a),
             (lambda m: (tropmat.adjugate(m), tropmat.pseudo_inverse(m)), a)]
    want = [f(x) for f, x in calls]

    def no_arithmetic(*args):
        raise AssertionError("Fraction arithmetic inside a kernel or product")

    for name in FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, no_arithmetic)
    # fresh copies, so that no result is read back from the first run's memo
    got = [f(fresh(x)) for f, x in calls]
    monkeypatch.undo()
    assert got == want


@pytest.mark.parametrize("seed, numerators", [(12, (-2, 2)), (13, (-1000, 1000))])
def test_order_twelve_laplace_and_constant_coefficient(seed, numerators):
    a = gen_matrix(GenConfig(n=12, numerator_range=numerators, denominator=2, seed=seed))
    d = determinant(a)
    product = mat_mul(a, adjugate(a))
    assert [product.at(i, i) for i in range(12)] == [d] * 12
    assert char_poly(a).coeff(0) == d


def test_one_size_guard_comes_before_any_fold(monkeypatch):
    """Every kernel entry point refuses an order above DEFAULT_DET_CAP
    before it folds anything."""
    def no_fold(*args):
        raise AssertionError("folded a matrix above the size cap")

    monkeypatch.setattr(tropmat, "_fold", no_fold)
    big = identity(DEFAULT_DET_CAP + 1)
    for call in (determinant, classify, is_definite, adjugate, pseudo_inverse,
                 char_poly, eigenvalues, definite_form,
                 kleene_star, lambda m: conjugate(m, m)):
        with pytest.raises(SizeCapExceededError):
            call(big)


# Each self-check is forced to fail by a monkeypatch; run under -O, where an
# assert would have vanished.
FORCED_FAILURES = r'''
import sys
from supertrop import VerificationError
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


def full_set_only(rows):
    """A flat fold table whose only finite slot is a tangible 0 at the full
    set, which no row extends."""
    size = 1 << len(rows)
    mag = [None] * size
    mag[size - 1] = 0
    return mag, [False] * size


dominant_track = tropmat._dominant_track


def off_by_one(rows, mag):
    """The dominant track with the magnitude of its first entry raised by
    one: still a permutation, so the conductor, which keeps A's entries,
    passes its shape check, but the definite factor's first row is
    shifted by one too many."""
    return [(c, w + (r == 0)) for r, (c, w) in enumerate(dominant_track(rows, mag))]


# a fresh A for each case, so that no case reads another's kept fold
text = "1 0; 3 4"
print(forced({"_fold": full_set_only}, lambda: tropmat.definite_form(mat(text))))
print(forced({"_dominant_track": off_by_one}, lambda: tropmat.definite_form(mat(text))))
print(forced({"is_definite": lambda m: False},
             lambda: tropmat.definite_form(mat(text))))
print(forced({"is_invertible": lambda m: False},
             lambda: tropmat.definite_form(mat(text))))
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
        "conductor is not a tangible generalized permutation",
    ]


def test_reassembly_check_compares_ghost_flags(monkeypatch):
    """The product check compares ghost flags as well as magnitudes: when
    the returned factors are read back without their ghost flags, the
    definite form of a matrix with a ghost entry off its track does not
    reassemble, on either side."""
    ints = tropmat._ints
    monkeypatch.setattr(tropmat, "_ints", lambda view, scale: (
        ints(view, scale)[0], (False,) * len(view[1])))
    for side in ("left", "right"):
        with pytest.raises(VerificationError, match="failed to reassemble"):
            definite_form(mat("1 0g; 3 4"), side)


# -- the memo: each kernel result is kept on its matrix ---------------------------


MEMO_KERNELS = {
    "determinant": determinant,
    "classify": classify,
    "adjugate": adjugate,
    "pseudo_inverse": pseudo_inverse,
    "char_poly": char_poly,
    "eigenvalues": eigenvalues,
    "is_definite": is_definite,
    "kleene_star": kleene_star,
    "definite_form": definite_form,
}


def exact(x):
    """x with each Element as (kind, value, value type), so that an int and
    an equal Fraction differ."""
    if isinstance(x, Element):
        return (x.kind, x.value, type(x.value))
    if isinstance(x, Matrix):
        return (x.rows, x.cols, [exact(e) for e in x.entries])
    if isinstance(x, Polynomial):
        return exact(x.coeffs)
    if isinstance(x, (list, tuple)):
        return [exact(y) for y in x]
    if isinstance(x, RootSet):
        return (exact(x.corner), str(x))
    return x


def outcome(kernel, a):
    try:
        return exact(kernel(a))
    except (StrictlySingularError, NotDefiniteError, NotNonSingularError) as exc:
        return type(exc)


def memo_cases():
    """Tie-heavy matrices of order 1..5 with Fractions, ghosts and -inf
    (strictly singular, singular and non-singular ones), plus definite
    factors, some with tied and ghost paths, so that every kernel both
    answers and raises."""
    out = []
    for n in range(1, 6):
        out += (mixed_cases(n)[:16] + cases(n)[:8] + definite_cases(n)[:8]
                + tie_heavy_definite(n, 8))
    return out


def test_kept_results_equal_fresh_ones_in_any_order():
    rng = random.Random(77)
    names = list(MEMO_KERNELS)
    orders = [names, names[::-1]] + [rng.sample(names, len(names)) for _ in range(3)]
    raised = set()
    for a in memo_cases():
        want = {name: outcome(k, fresh(a)) for name, k in MEMO_KERNELS.items()}
        raised.update(w for w in want.values() if isinstance(w, type))
        for order in orders:
            m = fresh(a)
            for name in order + order:
                assert outcome(MEMO_KERNELS[name], m) == want[name], (a, order, name)
    assert raised == {StrictlySingularError, NotDefiniteError, NotNonSingularError}


def test_kernels_on_int_built_draws_equal_fresh_ones_in_two_orders():
    """On tie-heavy draws over 2, 3 and 6, with ghosts and -inf (so their
    scales are rarely 1 and often reducible), each kept kernel, the
    product and the power sum run in both orders, twice, on a matrix built
    from the draw's ints equal the same kernel on a copy built from its
    Elements.  Every kernel reads the draw's own ints (the closure writes
    into a copy of them), so afterwards the draw still holds its entries."""
    extra = {"square": lambda m: mat_mul(m, m), "power_sum": lambda m: power_sum(
        [tangible(Fraction(1, 6)), NEG_INF, ghost(0), ONE], m)}
    kernels = {**MEMO_KERNELS, **extra}
    names = list(kernels)
    scales = set()
    for t in range(90):
        cfg = GenConfig(n=1 + t % 5, numerator_range=(-2, 2), denominator=(2, 3, 6)[t % 3],
                        neginf_prob=Fraction(1, 5), ghost_prob=Fraction(1, 5), seed=4000 + t)
        constraint = (Constraint.NONE, Constraint.NON_SINGULAR, Constraint.DEFINITE)[t // 3 % 3]
        a = fresh(gen_matrix(cfg, constraint))
        scales.add(a._view[2])
        want = {name: outcome(k, fresh(a)) for name, k in kernels.items()}
        for order in (names, names[::-1]):
            m = gen_matrix(cfg, constraint)
            for name in order + order:
                assert outcome(kernels[name], m) == want[name], (a, name)
            assert m == a
    assert scales == {1, 2, 3, 6}


def test_pickled_and_copied_matrices_equal_the_original():
    """pickle (every protocol), copy.copy and copy.deepcopy of a matrix
    built from Elements or from ints, with Fractions, ghosts and -inf among
    its entries, give an equal matrix on the same view, with an empty memo
    even where the original's holds every kernel result, and with the
    original's kernel results.  A matrix holding an int past the int-to-str
    digit limit pickles at protocols 2 and up; protocols 0 and 1 write ints
    as decimal text, so they raise ValueError on it."""
    cfg = GenConfig(n=4, numerator_range=(-2, 2), denominator=6, neginf_prob=Fraction(1, 5),
                    ghost_prob=Fraction(1, 5), seed=11)
    drawn = gen_matrix(cfg, Constraint.NON_SINGULAR)
    a = mat("1/2 -inf 3g; 0g 1 -1/3; -inf 2 0")
    sources = [a, Matrix.from_ints(3, 3, *a._view), drawn, fresh(drawn), mat("-inf"),
               Matrix.from_ints(1, 1, [None], [False], 1)]
    copiers = [lambda m, p=p: pickle.loads(pickle.dumps(m, p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.copy, copy.deepcopy]
    for m in sources:
        want = {name: outcome(k, m) for name, k in MEMO_KERNELS.items()}
        assert m._memo
        for copier in copiers:
            c = copier(m)
            assert (c, c._view, c._memo) == (m, m._view, None) and c is not m
            assert {name: outcome(k, c) for name, k in MEMO_KERNELS.items()} == want
    huge = Matrix.from_ints(2, 2, [10 ** 5000, None, 1, -10 ** 5000], [True, False] * 2, 7)
    for protocol in (0, 1):
        with pytest.raises(ValueError):
            pickle.dumps(huge, protocol)
    for copier in copiers[2:]:
        c = copier(huge)
        assert (c, c._view) == (huge, huge._view) and c is not huge


def test_kept_adjoint_keeps_strict_singularity():
    for text in ("0 1; -inf -inf", "1 -inf 2g; 0 -inf 1/2; -1 -inf 3", "-inf"):
        a = mat(text)
        adjugate(a)
        for _ in range(2):
            with pytest.raises(StrictlySingularError):
                pseudo_inverse(a)
        b = mat(text)
        char_poly(b)
        with pytest.raises(StrictlySingularError):
            pseudo_inverse(b)


def test_size_cap_is_checked_before_the_memo():
    a = mat("1 0 -1; 3 4 -inf; 0 -2 2")
    assert determinant(a) == determinant(fresh(a))
    with pytest.raises(SizeCapExceededError):
        determinant(a, cap=a.rows - 1)
    assert determinant(a, cap=a.rows) == determinant(fresh(a))


def test_returned_results_do_not_write_back_into_the_memo():
    """A second kleene_star starts from the kept closure, not from the first
    star.  char_poly returns its kept polynomial itself, which is
    immutable, so no caller can edit what a later call returns."""
    for d in definite_cases(4)[:10]:
        star = kleene_star(d)
        assert kleene_star(d) == star == kleene_star(fresh(d))
        assert d._memo["closure"] == tropmat._closure(fresh(d))
        assert is_definite(d)
    for a in mixed_cases(4)[:10]:
        f = char_poly(a)
        assert char_poly(a) is f is a._memo["coeffs"]


def test_memo_holds_no_fold_table_at_order_twelve():
    """After every kernel has run on a definite 12x12 matrix, and on a
    non-singular one that is not definite (so that its adjoint and
    pseudo-inverse come from the fold), each memo holds the kept results
    and n^2-sized lists only: no dict (no 2^n fold table), no kernel rows
    and no container longer than n^2."""
    n = 12
    rng = random.Random(12)
    definite = []
    for i in range(n):
        for j in range(n):
            if i == j:
                definite.append(ONE)
            elif rng.randrange(5) == 0:
                definite.append(NEG_INF)
            else:
                v = Fraction(-rng.randint(1, 8), rng.randint(1, 2))
                definite.append(ghost(v) if rng.randrange(10) == 0 else tangible(v))
    # The same entries with a track of 20..30 laid over them: every other
    # track is 20 or more lighter, so det is tangible and far above 0.
    perm = rng.sample(range(n), n)
    folded = [tangible(rng.randint(20, 30)) if at % n == perm[at // n] else e
              for at, e in enumerate(definite)]

    def walk(x):
        assert not isinstance(x, dict)
        if isinstance(x, Matrix):
            assert x._memo is None
            walk(x.entries)
        elif isinstance(x, Polynomial):
            walk(x.coeffs)
        elif isinstance(x, (list, tuple)):
            assert len(x) <= n * n
            for y in x:
                walk(y)

    for entries, closed in ((definite, True), (folded, False)):
        a = Matrix(n, n, entries)
        for kernel in MEMO_KERNELS.values():
            outcome(kernel, a)
        assert set(a._memo) == {"det", "adj", "pinv", "coeffs", "closure"}
        assert (a._memo["closure"] is not None) == closed
        assert determinant(a).is_tangible
        for value in a._memo.values():
            walk(value)


# -- the handoff slot: the last forward fold goes to the next kernel --------------


def test_handoff_keeps_one_table_at_order_twelve():
    """After determinant on 20 distinct 12x12 matrices, each memo holds no
    container longer than n^2, and at most one fold table (two lists of
    2^n slots) is alive: the last matrix's, in the handoff slot."""
    n = 12
    size = 1 << n

    def tables():
        gc.collect()
        return sum(1 for x in gc.get_objects() if type(x) is list and len(x) == size)

    determinant(identity(2))  # drops any table an earlier test left in the slot
    before = tables()
    mats = [gen_matrix(GenConfig(n=n, numerator_range=(-4, 4), denominator=2, seed=s))
            for s in range(20)]
    for a in mats:
        determinant(a)
    assert tables() - before <= 2
    assert tropmat._handoff[0] is mats[-1]
    for a in mats:
        assert set(a._memo) == {"det"}
        assert not isinstance(a._memo["det"], (list, tuple, dict))
    adjugate(mats[-1])  # folds backward over the table and leaves it in the slot
    assert tropmat._handoff[0] is mats[-1]
    assert tables() - before <= 2
    determinant(identity(2))  # a fold of another matrix frees it
    assert tables() == before


def test_handed_table_is_dropped_by_another_matrix():
    """No table outlives the adjoint or the pseudo-inverse of a different
    matrix: its fold drops the slot's table and leaves its own there."""
    for kernel in (adjugate, pseudo_inverse):
        a, b = mat("1 0 -1; 3 4 -inf; 0 -2 2"), mat("0 1; 2 0")
        determinant(a)
        assert tropmat._handoff[0] is a
        table = tropmat._handoff[3]
        kernel(b)
        assert tropmat._handoff[0] is b
        assert sys.getrefcount(table) == 2  # the local and the call's argument


def test_handed_table_answers_only_its_own_matrix(monkeypatch):
    """The slot is keyed by identity: after det(A) and det(B), adj(A)
    folds A forward and backward itself; a matrix B with A's entries never
    reads A's table; only A itself, straight after det(A), folds backward
    alone, or not at all for its definite form."""
    folds = []
    fold = tropmat._fold
    monkeypatch.setattr(tropmat, "_fold", lambda *args: folds.append(1) or fold(*args))
    seen = 0
    for a, b in zip(mixed_cases(5), mixed_cases(5)[1:]):
        if not determinant(a).is_tangible or a.entries == b.entries:
            continue
        seen += 1
        want_adj, want_pinv = exact(naive_adj(a)), exact(pseudo_inverse(fresh(a)))
        want_form = exact(definite_form(fresh(a)))
        x, y = fresh(a), fresh(b)
        determinant(x)
        determinant(y)
        folds.clear()
        assert exact(adjugate(x)) == want_adj
        assert len(folds) == 2
        for kernel, want, cost in [(adjugate, want_adj, 2), (pseudo_inverse, want_pinv, 2),
                                   (definite_form, want_form, 1)]:
            x, twin = fresh(a), fresh(a)
            determinant(x)
            folds.clear()
            assert exact(kernel(twin)) == want
            assert len(folds) == cost, kernel
            x = fresh(a)
            determinant(x)
            folds.clear()
            assert exact(kernel(x)) == want
            assert len(folds) == cost - 1, kernel  # the backward half, or none
    assert seen >= 5


def test_definite_form_after_the_adjoint_folds_nothing(monkeypatch):
    """The forward fold behind adj(A) or A^inv stays in the slot: a later
    definite_form(A) backtracks over it, folds nothing and equals the form
    of a fresh copy."""
    folds = []
    fold = tropmat._fold
    monkeypatch.setattr(tropmat, "_fold", lambda *args: folds.append(1) or fold(*args))
    seen = 0
    for a in mixed_cases(5):
        if not determinant(fresh(a)).is_tangible or is_definite(fresh(a)):
            continue
        seen += 1
        want = exact(definite_form(fresh(a)))
        for first in (adjugate, pseudo_inverse):
            x = fresh(a)
            first(x)
            folds.clear()
            assert exact(definite_form(x)) == want
            assert len(folds) == 0, first
    assert seen >= 5


def test_handed_rows_are_never_mutated(monkeypatch):
    """char_poly extends the slot's table without writing to it or to its
    rows: after det(A) and char_poly(A), the slot still holds A's kernel
    rows, and adj(A), folding backward alone over them, equals adj of a
    fresh copy."""
    folds = []
    fold = tropmat._fold
    monkeypatch.setattr(tropmat, "_fold", lambda *args: folds.append(1) or fold(*args))
    for n in (1, 3, 5):
        for a in mixed_cases(n)[:10]:
            want = exact(adjugate(fresh(a)))
            x = fresh(a)
            determinant(x)
            char_poly(x)
            assert tropmat._handoff[1] == tropmat._kernel_rows(fresh(a))[0]
            folds.clear()
            assert exact(adjugate(x)) == want
            assert len(folds) == 1


def test_no_fold_runs_beside_another_matrix_table(monkeypatch):
    """With det(A)'s 12x12 table in the slot, each folding kernel on a fresh
    B drops it before its first fold: no other table (two lists of 2^n
    slots) is alive while B is folded."""
    n = 12
    size = 1 << n

    def tables():
        gc.collect()
        return sum(1 for x in gc.get_objects() if type(x) is list and len(x) == size)

    determinant(identity(2))  # drops any table an earlier test left in the slot
    before = tables()
    a, b = [gen_matrix(GenConfig(n=n, numerator_range=(-4, 4), denominator=2, seed=s))
            for s in (0, 1)]
    seen = []
    fold = tropmat._fold

    def spy(*args):
        if not seen:
            seen.append(tables() - before)
        return fold(*args)

    monkeypatch.setattr(tropmat, "_fold", spy)
    for kernel in (determinant, adjugate, pseudo_inverse, definite_form, char_poly):
        x = fresh(a)
        determinant(x)
        assert tropmat._handoff[0] is x and tables() - before == 2
        seen.clear()
        outcome(kernel, fresh(b))
        assert seen == [0], kernel


def test_two_threads_sharing_the_slot_get_single_thread_results(monkeypatch):
    """Two threads run the five folding kernels in opposite orders on the
    same fresh matrices.  Each fold and each read of a matrix's rows ends by
    yielding to the other thread, so their kernels interleave inside each
    other's calls: every read of the slot checks its matrix, so each result
    equals the one a lone caller gets from a fresh copy."""
    kernels = [determinant, adjugate, pseudo_inverse, definite_form, char_poly]
    mats = [a for n in (3, 4, 5) for a in mixed_cases(n)]
    want = [[outcome(k, fresh(a)) for k in kernels] for a in mats]
    shared = [fresh(a) for a in mats]

    def yielding(f):
        def call(*args):
            out = f(*args)
            time.sleep(0)  # releases the interpreter to the other thread
            return out
        return call

    monkeypatch.setattr(tropmat, "_fold", yielding(tropmat._fold))
    monkeypatch.setattr(tropmat, "_kernel_rows", yielding(tropmat._kernel_rows))
    wrong, errors = [], []

    def run(order):
        try:
            for t, m in enumerate(shared):
                for k in order:
                    if outcome(kernels[k], m) != want[t][k]:
                        wrong.append((mats[t], kernels[k].__name__))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(order,))
               for order in (range(5), range(4, -1, -1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []


def test_every_forward_fold_leaves_the_rows_for_char_poly(monkeypatch):
    """Every forward fold of A, det's, the adjoint's, the pseudo-inverse's
    or the definite form's, leaves A's kernel rows in the handoff slot:
    char_poly then reads A's rows no second time, keeps none in the memo
    and equals a fresh copy's coefficients."""
    reads = []
    kernel_rows = tropmat._kernel_rows
    monkeypatch.setattr(tropmat, "_kernel_rows",
                        lambda m: reads.append(m) or kernel_rows(m))
    for a in mixed_cases(5)[:10]:
        want = exact(char_poly(fresh(a)))
        for first in ([determinant, adjugate], [adjugate], [pseudo_inverse], [definite_form],
                      [adjugate, definite_form], [pseudo_inverse, definite_form]):
            x = fresh(a)
            reads.clear()
            for kernel in first:
                outcome(kernel, x)
            assert exact(char_poly(x)) == want
            assert reads == [x] and "rows" not in x._memo


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_char_poly_matches_oracle_in_every_order(n):
    """char_poly equals the principal-minor oracle, kind, value and value
    type, whether it folds A forward itself (alone, or after another
    matrix's fold emptied the slot) or extends the forward fold that
    determinant, adjugate or definite_form left in the slot; its
    coefficient 0 is the kept det itself."""
    other = fresh(mixed_cases(n)[-1])
    kinds, scaled = set(), 0
    for a in cases(n) + mixed_cases(n):
        want = exact(naive_char_poly(a))
        for first in ([], [determinant], [adjugate], [definite_form],
                      [determinant, lambda _: determinant(fresh(other))]):
            x = fresh(a)
            for kernel in first:
                outcome(kernel, x)
            f = char_poly(x)
            assert exact(f) == want, (a, first)
            assert f.coeffs[0] is determinant(x)
        kinds.update(e.kind for e in a.entries)
        scaled += a._view[2] > 1
    assert len(kinds) == 3 or n == 1
    assert scaled >= COUNTS[n] // 4


def test_char_poly_after_determinant_folds_no_degree_zero_state(monkeypatch):
    """Right after det(A), char_poly(A) folds nothing forward: it extends
    the table det left in the slot, the one _x_fold receives, and leaves
    it there.  On a fresh matrix it folds A forward once and leaves the
    slot empty, so no 2^n table outlives it."""
    folds, extended = [], []
    fold, x_fold = tropmat._fold, tropmat._x_fold
    monkeypatch.setattr(tropmat, "_fold", lambda *args: folds.append(1) or fold(*args))
    monkeypatch.setattr(tropmat, "_x_fold", lambda rows, fm, fg: extended.append(fm)
                        or x_fold(rows, fm, fg))
    for n in (1, 3, 5):
        for a in mixed_cases(n)[:10]:
            x = fresh(a)
            determinant(x)
            slot = tropmat._handoff
            folds.clear()
            extended.clear()
            char_poly(x)
            assert folds == [] and extended == [slot[3]]
            assert tropmat._handoff is slot
            folds.clear()
            char_poly(fresh(a))
            assert len(folds) == 1 and tropmat._handoff is None


def test_kept_det_is_never_rebuilt():
    """det's Element is built once, by the first kernel that needs it:
    after determinant(A), the adjoint, the pseudo-inverse, the definite
    form and the characteristic polynomial of A all read it back, so
    determinant(A) returns the same object, on non-singular tie-heavy
    draws and on their definite factors, whose adjoint is the closure."""
    seen = 0
    for n in range(1, 6):
        for a in cases(n) + mixed_cases(n):
            if not determinant(a).is_tangible:
                continue
            seen += type(determinant(a).value) is Fraction
            for x in (fresh(a), fresh(definite_form(a)[1])):
                d = determinant(x)
                adjugate(x)
                pseudo_inverse(x)
                definite_form(x)
                assert determinant(x) is d, x
                assert char_poly(x).coeffs[0] is d
    assert seen >= 50


# -- shared result scalars ---------------------------------------------------------


def scaled_cases(dens, count, seed):
    """Matrices of order 2..5 whose entries have the denominators dens (and
    common scale lcm(dens)): numerators in [-2, 2], a fifth -inf and a fifth
    ghosts, so equal values, ghosts and ties fill every result."""
    rng = random.Random(seed)
    out = []
    for t in range(count):
        n = 2 + t % 4
        entries = []
        for _ in range(n * n):
            if rng.randrange(5) == 0:
                entries.append(NEG_INF)
                continue
            v = Fraction(rng.randint(-2, 2), rng.choice(dens))
            entries.append(ghost(v) if rng.randrange(5) == 0 else tangible(v))
        out.append(Matrix(n, n, entries))
    return out


def definite_of(a):
    """A with a tangible-0 diagonal and each off-diagonal value v replaced
    by -|v| - 1: every cycle is negative, so the result is definite."""
    n = a.rows
    return Matrix(n, n, [ONE if i == j else e if e.is_neg_inf
                         else Element(e.kind, -abs(e.value) - 1)
                         for i in range(n) for j, e in enumerate(a.row(i))])


@pytest.mark.parametrize("dens, scale", [((1,), 1), ((1, 2), 2), ((2, 3), 6)])
def test_shared_scalars_equal_the_per_entry_oracle(dens, scale, monkeypatch):
    """Every result built from scaled ints equals, kind, value and value
    type, the same result with each entry built by its own element_of call,
    and each distinct scalar of one read of a result's entries is one
    object.  (A star's scale may be 1 at dens (1, 2): definite_of drops the
    diagonal.)"""
    mats = [a for a in scaled_cases(dens, 80, scale) if a._view[2] == scale]
    assert len(mats) >= 40
    coeffs = [tangible(Fraction(1, dens[-1])), NEG_INF, ghost(0), ONE]
    on_any = [lambda a: mat_mul(a, hat_matrix(a)), lambda a: power_sum(coeffs, a),
              adjugate, lambda a: kleene_star(definite_of(a))]
    on_defined = [pseudo_inverse, lambda a: (adjugate(a), pseudo_inverse(a))]
    defined = [a for a in mats if not determinant(a).is_neg_inf]
    formable = [a for a in mats if determinant(a).is_tangible]
    assert formable
    cases_ = [(f, a) for f in on_any for a in mats]
    cases_ += [(f, a) for f in on_defined for a in defined]
    cases_ += [(lambda a: definite_form(a)[1], a) for a in formable]
    cases_ += [(lambda a: definite_form(a, "right")[1], a) for a in formable]

    def entries(x):
        """The entries of each result matrix, read once."""
        return [m.entries for m in (x if isinstance(x, tuple) else (x,))]

    got = [entries(f(fresh(a))) for f, a in cases_]  # built by elements_of
    monkeypatch.setattr(tropmat, "elements_of", lambda mag, gh, s: [
        element_of(m, g, s) for m, g in zip(mag, gh)])
    want = [entries(f(fresh(a))) for f, a in cases_]
    assert exact(got) == exact(want)
    kinds, types, tied = set(), set(), 0
    for out in got:
        for es in out:
            finite = [e for e in es if not e.is_neg_inf]
            kinds.update(e.kind for e in es)
            types.update(type(e.value) for e in finite)
            values = {(e.kind, e.value) for e in finite}
            tied += len(values) < len(finite)
            assert len({id(e) for e in finite}) == len(values)
    assert len(kinds) == 3 and tied > len(got) // 2
    assert types == ({int} if scale == 1 else {int, Fraction})
