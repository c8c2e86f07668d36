"""Characteristic polynomials, eigen-relations, and similarity laws."""

import random
from fractions import Fraction

import pytest

from supertrop import (
    NEG_INF,
    ONE,
    DimensionMismatchError,
    Interval,
    StrictlySingularError,
    char_poly,
    check_eigenpair,
    conjugate,
    determinant,
    eigenvalues,
    essential,
    eval_at_matrix,
    ghost,
    ghost_surpasses,
    identity,
    inflate,
    is_ghost_matrix,
    kth_root,
    mat_add,
    mat_mul,
    mat_pow,
    poly_add,
    poly_eval,
    poly_ghost_surpasses,
    poly_pow,
    poly_value_equal,
    poly_value_surpasses,
    power,
    roots,
    roots_outside,
    scalar_mul,
    tangible,
    trace,
)
from supertrop.lawcheck import Constraint, GenConfig, gen_matrix

from conftest import el, ghost_poly, mat, poly


# -- characteristic polynomial ------------------------------------------------------


def test_char_poly_cases():
    assert char_poly(mat("0 0; 1 2")) == poly("2, 2, 0")
    assert char_poly(mat("1 2; 3 4")) == poly("5g, 4, 0")
    a = mat("1 0 -inf; 3 4 -inf; -inf -inf 1")
    assert char_poly(a) == poly("6, 5g, 4, 0")
    from supertrop import pseudo_inverse

    assert char_poly(pseudo_inverse(a)) == poly("-6, -2, -1g, 0")


def test_char_poly_agrees_with_det_of_shifted_matrix():
    rng = random.Random(5)
    for t in range(40):
        n = rng.choice([2, 3, 4])
        a = gen_matrix(GenConfig(n=n, seed=100 + t))
        f = char_poly(a)
        for _ in range(12):
            x = tangible(Fraction(rng.randint(-24, 24), rng.choice([1, 1, 2])))
            shifted = mat_add(scalar_mul(x, identity(n)), a)
            assert poly_eval(f, x) == determinant(shifted)


def test_trace_cases():
    assert trace(mat("1 2; 3 4")) == el("4")
    assert trace(identity(2)) == el("0g")
    assert trace(mat("3 5; -inf 3")) == el("3g")


# -- eigenvalues ----------------------------------------------------------------------


def test_eigenvalues_cases():
    rs = eigenvalues(mat("0 0; 1 2"))
    assert rs.corner == ((el("0"), 1), (el("2"), 1))
    rs = eigenvalues(mat("1 2; 3 4"))
    assert rs.corner == ((el("4"), 1),)
    assert rs.noncorner == (Interval(NEG_INF, el("1")),)
    rs = eigenvalues(mat("2 -inf; -inf 5"))
    assert rs.corner == ((el("2"), 1), (el("5"), 1))


def test_strictly_singular_matrix_has_neg_inf_eigenvalue():
    rs = eigenvalues(mat("-inf 0; -inf -inf"))
    assert rs.contains(NEG_INF)
    assert rs.noncorner == (Interval(NEG_INF, NEG_INF),)


def test_check_eigenpair():
    assert check_eigenpair(identity(2), [ONE, ONE], ONE)
    assert check_eigenpair(mat("2 -inf; -inf 5"), [ONE, NEG_INF], el("2"))
    assert check_eigenpair(mat("0 0; 1 2"), [el("0"), el("2")], el("2"))
    assert not check_eigenpair(mat("0 0; 1 2"), [el("0"), el("2")], el("5"))
    with pytest.raises(ValueError):
        check_eigenpair(identity(2), [ghost(0), ONE], ONE)
    with pytest.raises(ValueError):
        check_eigenpair(identity(2), [ONE, ONE], ghost(0))
    with pytest.raises(DimensionMismatchError):
        check_eigenpair(identity(2), [ONE], ONE)


def test_corner_eigenvalues_admit_eigenpair_style_roots():
    """Every corner eigenvalue is a root: the polynomial value there ghosts."""
    for t in range(30):
        a = gen_matrix(GenConfig(n=3, seed=400 + t))
        f = char_poly(a)
        for v, _ in eigenvalues(a).corner:
            assert ghost_surpasses(poly_eval(f, v), NEG_INF)


# -- matrix substitution ------------------------------------------------------------------


def test_eval_at_matrix_cases():
    a = mat("0 0; 1 2")
    assert eval_at_matrix(poly("2, 2, 0"), a) == mat("2g 2g; 3g 4g")
    assert eval_at_matrix(poly("5"), a) == mat("5 -inf; -inf 5")
    assert eval_at_matrix(poly("-inf, 0"), a) == a


def test_powers_start_from_the_matrix(monkeypatch):
    """No product with the identity: mat_pow(A, k) makes k - 1 products and
    A substituted into its characteristic polynomial makes n - 1, counted
    at the product step that mat_mul and the power sum share."""
    from supertrop import tropmat

    products = []
    product = tropmat._product

    def counted(*args):
        products.append(1)
        return product(*args)

    monkeypatch.setattr(tropmat, "_product", counted)
    for n in range(1, 6):
        a = gen_matrix(GenConfig(n=n, seed=70 + n))
        want = identity(n)
        for k in range(5):
            products.clear()
            assert mat_pow(a, k) == want
            assert len(products) == max(k - 1, 0)
            want = mat_mul(want, a)
        products.clear()
        eval_at_matrix(char_poly(a), a)
        assert len(products) == n - 1


def test_hamilton_cayley_sampled():
    for t in range(60):
        n = 2 + t % 4
        a = gen_matrix(GenConfig(n=n, seed=800 + t))
        assert is_ghost_matrix(eval_at_matrix(char_poly(a), a))


def test_ghost_polynomial_added_to_char_poly_is_ghost_at_the_matrix():
    """(f_B + h)(B) = f_B(B) + h(B) is ghost for every h whose coefficients
    are ghost or -inf: f_B(B) by Hamilton-Cayley, h(B) term by term.  With
    f_B + h the characteristic polynomial of a conjugate of B, this is why
    the similarity check need not evaluate it at B."""
    rng = random.Random(1300)
    for t in range(60):
        n, den = 2 + t % 4, 1 + t % 2
        b = gen_matrix(GenConfig(n=n, numerator_range=(-3, 3), denominator=den, seed=900 + t))
        h = ghost_poly(rng, rng.randint(0, n), 3, den)
        assert is_ghost_matrix(eval_at_matrix(poly_add(char_poly(b), h), b))


# -- similarity ---------------------------------------------------------------------------


def test_conjugate_cases():
    assert conjugate(mat("2 0; 1 0"), mat("1 2; 3 1")) == mat("3 1; 5 3")
    b = mat("0 0; 1 2")
    assert conjugate(identity(2), b) == b
    assert conjugate(mat("0 1g; -inf 0"), b) == mat("2g 3g; 1 2g")
    with pytest.raises(StrictlySingularError):
        conjugate(mat("-inf -inf; -inf -inf"), b)
    with pytest.raises(DimensionMismatchError):
        conjugate(identity(3), b)


def test_similarity_laws_sampled():
    for t in range(50):
        n = 2 + t % 3
        a = gen_matrix(GenConfig(n=n, seed=1200 + t), Constraint.NON_SINGULAR)
        b = gen_matrix(GenConfig(n=n, seed=1700 + t))
        bp = conjugate(a, b)
        fp, fb = char_poly(bp), char_poly(b)
        assert poly_ghost_surpasses(fp, fb)
        assert ghost_surpasses(determinant(bp), determinant(b))
        assert ghost_surpasses(trace(bp), trace(b))
        if not fp.has_ghost_coeff():
            assert fp == fb
        assert roots_outside(fb, fp) == []
        assert is_ghost_matrix(eval_at_matrix(fp, b))


def test_similar_charpolys_coincide_for_definite_reduction():
    """Conjugating by A and by its right definite form gives the same
    characteristic polynomial."""
    from supertrop import definite_form

    for t in range(40):
        n = 2 + t % 3
        a = gen_matrix(GenConfig(n=n, seed=2500 + t), Constraint.NON_SINGULAR)
        b = gen_matrix(GenConfig(n=n, seed=3500 + t))
        _, a_bar = definite_form(a, "right")
        assert char_poly(conjugate(a, b)) == char_poly(conjugate(a_bar, b))


# -- powers of the characteristic polynomial -------------------------------------------------


def test_charpoly_power_relations_sampled():
    """The property test for root_power_containment, which chk_charpoly_power
    derives rather than asserts: every corner root of A powers up into a
    root of A^m.  The other relations are checked here in their literal
    form, inflate(f_{A^m}, m) against f_A^m.  40 draws at the default
    probabilities for n = 1..4, then 200 tie-heavy ones for n = 1..5:
    numerators in [-2, 2] over 2, 1/3 ghost."""
    cfgs = [GenConfig(n=1 + t % 4, seed=4500 + t) for t in range(40)]
    cfgs += [GenConfig(n=1 + t % 5, numerator_range=(-2, 2), denominator=2,
                       ghost_prob=Fraction(1, 3), seed=4600 + t) for t in range(200)]
    for t, cfg in enumerate(cfgs):
        m = 2 + t % 2
        a = gen_matrix(cfg)
        f_a = char_poly(a)
        f_am = char_poly(mat_pow(a, m))
        lhs = inflate(f_am, m)
        rhs = poly_pow(f_a, m)
        assert poly_value_surpasses(lhs, rhs)
        if not f_am.has_ghost_coeff():
            assert essential(lhs) == essential(rhs)
            assert poly_value_equal(lhs, rhs)
        # corner roots transfer both ways
        ra, ram = roots(f_a), roots(f_am)
        for v, _ in ra.corner:
            assert ram.contains(power(v, m))
        corner_a = {v.value for v, _ in ra.corner}
        for v, _ in ram.corner:
            assert kth_root(v, m).value in corner_a


def test_power_eigenvalue_containment_example():
    # squaring the running example adds a non-corner region but keeps 0^2, 2^2
    a = mat("0 0; 1 2")
    ram = eigenvalues(mat_pow(a, 2))
    for v, _ in eigenvalues(a).corner:
        assert ram.contains(power(v, 2))
    assert ram.contains(el("1"))  # the new ghost interval
    assert not eigenvalues(a).contains(el("1"))
