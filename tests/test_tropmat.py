"""Matrix arithmetic, determinants, pseudo-inverses, definite forms, stars."""

import pickle
import random
from fractions import Fraction

import pytest

from supertrop import (
    NEG_INF,
    ONE,
    BadIndicesError,
    DimensionMismatchError,
    Matrix,
    NotDefiniteError,
    NotInvertibleError,
    NotNonSingularError,
    ParseError,
    PseudoIdentityClass,
    SingularityClass,
    SizeCapExceededError,
    StrictlySingularError,
    SupertropicalError,
    adjugate,
    classify,
    definite_form,
    determinant,
    diag,
    diag_multiplier_matrix,
    format_matrix,
    gaussian_matrix,
    ghost,
    ghost_surpasses,
    identity,
    is_definite,
    is_ghost_matrix,
    is_invertible,
    is_triangular,
    kleene_star,
    load_matrix,
    mat_add,
    mat_ghost_surpasses,
    mat_mul,
    mat_nu_equiv,
    mat_pow,
    matrix_from_dict,
    matrix_from_json,
    matrix_to_dict,
    matrix_to_json,
    mul,
    power,
    pseudo_identity_class,
    pseudo_inverse,
    pseudo_inverse_iter,
    tangible,
    transposition_matrix,
)
from supertrop import tropmat
from supertrop.lawcheck import Constraint, GenConfig, gen_matrix

from conftest import el, mat, naive_det, tie_heavy_cfgs, typed_element


def _random_cfgs(count, sizes=(2, 3, 4), seed=0):
    return [GenConfig(n=sizes[t % len(sizes)], seed=seed + t) for t in range(count)]


# -- products and sums -----------------------------------------------------------


def test_mat_mul_square_of_example():
    a = mat("0 0; 1 2")
    assert mat_mul(a, a) == mat("1 2; 3 4")
    assert mat_mul(identity(2), a) == a


def test_mat_add_ghostifies_ties():
    a = mat("0 0; 1 2")
    assert mat_add(a, a) == mat("0g 0g; 1g 2g")


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mat_mul(mat("0 0; 1 2"), mat("0 0 0; 1 2 3; 4 5 6"))
    with pytest.raises(DimensionMismatchError):
        mat_add(mat("0 0; 1 2"), mat("0; 1"))
    with pytest.raises(DimensionMismatchError):
        determinant(mat("0 0 0; 1 2 3"))
    with pytest.raises(DimensionMismatchError):
        mat_nu_equiv(mat("0 0; 1 2"), mat("0 0"))
    with pytest.raises(DimensionMismatchError):
        Matrix.from_rows([])
    with pytest.raises(DimensionMismatchError, match="ragged"):
        Matrix.from_rows([[ONE, ONE], [ONE]])


# -- determinant -------------------------------------------------------------------


def test_determinant_cases():
    assert determinant(mat("1 0 -inf; 3 4 -inf; -inf -inf 1")) == el("6")
    assert determinant(identity(4)) == ONE
    assert determinant(mat("0 0; 0 0")) == el("0g")
    assert determinant(mat("-inf -inf; -inf -inf")) == NEG_INF
    # a dominant track through a ghost entry ghosts the determinant
    assert determinant(mat("5g 0; -inf 1")) == el("6g")


def test_determinant_size_cap():
    with pytest.raises(SizeCapExceededError):
        determinant(identity(17))
    assert determinant(identity(16)) == ONE


def test_determinant_matches_permanent_oracle():
    for cfg in _random_cfgs(120, sizes=(1, 2, 3, 4, 5), seed=500):
        a = gen_matrix(cfg)
        assert determinant(a) == naive_det(a)


def test_classify_cases():
    assert classify(mat("0 0; 1 2")) is SingularityClass.NON_SINGULAR
    assert classify(mat("0 0; 0 0")) is SingularityClass.SINGULAR
    assert classify(mat("-inf -inf; -inf -inf")) is SingularityClass.STRICTLY_SINGULAR


# -- adjoint and pseudo-inverse -------------------------------------------------------


def test_adjugate_cases():
    a = mat("1 0 -inf; 3 4 -inf; -inf -inf 1")
    assert adjugate(a) == mat("5 1 -inf; 4 2 -inf; -inf -inf 5")
    assert adjugate(identity(3)) == identity(3)
    # 2x2 closed form, ghosts included
    b = mat("1 2g; 3 4")
    assert adjugate(b) == mat("4 2g; 3 1")
    assert adjugate(Matrix(1, 1, [tangible(9)])) == Matrix(1, 1, [ONE])


def test_pseudo_inverse_cases():
    a = mat("1 0 -inf; 3 4 -inf; -inf -inf 1")
    assert pseudo_inverse(a) == mat("-1 -5 -inf; -2 -4 -inf; -inf -inf -1")
    assert pseudo_inverse(identity(3)) == identity(3)
    b = mat("0 0 -inf; -inf 0 0; 1 -inf 0")
    assert pseudo_inverse(b) == mat("-1 -1 -1; 0 -1 -1; 0 0 -1")
    with pytest.raises(StrictlySingularError):
        pseudo_inverse(mat("-inf -inf; -inf -inf"))


def test_pseudo_inverse_of_singular_is_ghost_scaled():
    a = mat("0 0; 0 0")
    assert pseudo_inverse(a) == mat("0g 0g; 0g 0g")


def test_pseudo_inverse_iterates():
    a = mat("0 0 -inf; -inf 0 0; 1 -inf 0")
    n1 = pseudo_inverse_iter(a, 1)
    n2 = pseudo_inverse_iter(a, 2)
    n3 = pseudo_inverse_iter(a, 3)
    n4 = pseudo_inverse_iter(a, 4)
    assert n2 == mat("0 0 -1g; 0g 0 0; 1 0g 0")
    assert n3 == mat("-1g -1 -1; 0 -1g -1; 0 0 -1g")
    assert mat_nu_equiv(n3, n1)
    assert n4 == n2
    with pytest.raises(ValueError):
        pseudo_inverse_iter(a, 0)
    # the 1x1 pseudo-inverse is the scalar inverse
    assert pseudo_inverse(Matrix(1, 1, [tangible(5)])) == Matrix(1, 1, [tangible(-5)])


def test_two_by_two_double_pseudo_inverse_is_identity_map():
    rng = random.Random(7)
    for t in range(60):
        a = gen_matrix(GenConfig(n=2, seed=900 + t), Constraint.NON_SINGULAR)
        assert pseudo_inverse_iter(a, 2) == a


def test_pseudo_identity_classification():
    a = mat("1 0 -inf; 3 4 -inf; -inf -inf 1")
    ia = mat_mul(a, pseudo_inverse(a))
    assert ia == mat("0 -4g -inf; 2g 0 -inf; -inf -inf 0")
    assert pseudo_identity_class(ia) is PseudoIdentityClass.PSEUDO_IDENTITY
    assert pseudo_identity_class(identity(3)) is PseudoIdentityClass.PSEUDO_IDENTITY
    assert pseudo_identity_class(mat("0 5; -inf 0")) is PseudoIdentityClass.NEITHER
    # singular instance: ghost pseudo-identity
    s = mat("0 0; 0 0")
    gi = mat_mul(s, pseudo_inverse(s))
    assert pseudo_identity_class(gi) is PseudoIdentityClass.GHOST_PSEUDO_IDENTITY


def test_pseudo_identity_fact_on_randoms():
    for cfg in _random_cfgs(60, sizes=(2, 3, 4), seed=321):
        a = gen_matrix(cfg)
        cls = classify(a)
        if cls is SingularityClass.STRICTLY_SINGULAR:
            continue
        want = (
            PseudoIdentityClass.PSEUDO_IDENTITY
            if cls is SingularityClass.NON_SINGULAR
            else PseudoIdentityClass.GHOST_PSEUDO_IDENTITY
        )
        pinv = pseudo_inverse(a)
        assert pseudo_identity_class(mat_mul(a, pinv)) is want
        assert pseudo_identity_class(mat_mul(pinv, a)) is want


# -- determinant laws ----------------------------------------------------------------


def test_det_product_rule_sampled():
    for t in range(60):
        a = gen_matrix(GenConfig(n=3, seed=2000 + t))
        b = gen_matrix(GenConfig(n=3, seed=3000 + t))
        assert ghost_surpasses(determinant(mat_mul(a, b)),
                               mul(determinant(a), determinant(b)))


def test_det_multiplicative_for_invertible_factor():
    """det(P A) = det(P) det(A) for invertible P.  On tie-heavy draws the
    pseudo-inverse is as multiplicative: (P X Q)^inv = Q^inv X^inv P^inv
    exactly, ghosts included, for invertible P and Q and any X with det(X)
    not -inf, since each minor of P X Q is one minor of X times tangible
    entries of P and Q.  With P = Q the left conductor, this is the lemma
    by which the period check's conductor sandwich gives period two."""
    for t in range(40):
        p = gen_matrix(GenConfig(n=3, seed=4000 + t), Constraint.INVERTIBLE)
        a = gen_matrix(GenConfig(n=3, seed=5000 + t))
        assert determinant(mat_mul(p, a)) == mul(determinant(p), determinant(a))
        assert determinant(mat_mul(a, p)) == mul(determinant(a), determinant(p))
    kinds = set()
    for cfg in tie_heavy_cfgs(600, 4500):
        x = gen_matrix(cfg)
        p = gen_matrix(GenConfig(n=cfg.n, seed=cfg.seed + 1000), Constraint.INVERTIBLE)
        q = gen_matrix(GenConfig(n=cfg.n, seed=cfg.seed + 2000), Constraint.INVERTIBLE)
        d = determinant(x)
        if d.is_neg_inf:
            continue
        pxq = mat_mul(mat_mul(p, x), q)
        assert determinant(pxq) == mul(mul(determinant(p), d), determinant(q))
        want = mat_mul(mat_mul(pseudo_inverse(q), pseudo_inverse(x)), pseudo_inverse(p))
        assert pseudo_inverse(pxq) == want, x
        kinds.add((d.is_ghost, any(e.is_ghost for e in want.entries)))
    assert kinds == {(False, False), (False, True), (True, True)}


def test_adjoint_determinant_rules_sampled():
    for cfg in _random_cfgs(60, sizes=(2, 3, 4), seed=6000):
        a = gen_matrix(cfg)
        d = determinant(a)
        n = a.rows
        assert determinant(mat_mul(a, adjugate(a))) == power(d, n)
        assert determinant(adjugate(a)) == power(d, n - 1)


def test_adjoint_of_product_surpasses():
    for t in range(40):
        a = gen_matrix(GenConfig(n=3, seed=7000 + t))
        b = gen_matrix(GenConfig(n=3, seed=8000 + t))
        assert mat_ghost_surpasses(adjugate(mat_mul(a, b)),
                                   mat_mul(adjugate(b), adjugate(a)))


# -- definite matrices ------------------------------------------------------------------


def test_is_definite_cases():
    assert is_definite(identity(3))
    assert is_definite(mat("0 -1; -2 0"))
    assert not is_definite(mat("0 0 -inf; -inf 0 0; 1 -inf 0"))  # det = 1
    assert not is_definite(mat("0 0; 0 0"))  # det ghosts


def test_definite_form_left():
    conductor, definite = definite_form(mat("1 0; 3 4"), "left")
    assert conductor == mat("1 -inf; -inf 4")
    assert definite == mat("0 -1; -1 0")
    i3 = identity(3)
    assert definite_form(i3, "left") == (i3, i3)
    d = diag([tangible(2), tangible(5)])
    assert definite_form(d, "left") == (d, identity(2))


def test_definite_form_both_sides_reassemble():
    for t in range(50):
        a = gen_matrix(GenConfig(n=3, seed=9000 + t), Constraint.NON_SINGULAR)
        p, left_bar = definite_form(a, "left")
        assert mat_mul(p, left_bar) == a
        assert is_definite(left_bar)
        assert is_invertible(p)
        assert determinant(p) == determinant(a)
        q, right_bar = definite_form(a, "right")
        assert mat_mul(right_bar, q) == a
        assert is_definite(right_bar)


def test_definite_form_requires_nonsingular():
    with pytest.raises(NotNonSingularError):
        definite_form(mat("0 0; 0 0"), "left")
    with pytest.raises(ValueError, match="side"):
        definite_form(identity(2), "up")


def test_walk_products_of_definite_matrices_never_exceed_unit():
    rng = random.Random(31)
    for t in range(40):
        n = rng.choice([2, 3, 4])
        a = gen_matrix(GenConfig(n=n, seed=10000 + t), Constraint.DEFINITE)
        for _ in range(8):
            walk = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]
            prod = ONE
            for u, v in zip(walk, walk[1:] + walk[:1]):
                prod = mul(prod, a.at(u, v))
            assert prod.is_neg_inf or prod.value <= 0


# -- elementary and invertible matrices ---------------------------------------------------


def test_elementary_constructors():
    assert transposition_matrix(2, 0, 1) == mat("-inf 0; 0 -inf")
    assert diag_multiplier_matrix(3, 0, tangible(4)) == mat(
        "4 -inf -inf; -inf 0 -inf; -inf -inf 0"
    )
    assert gaussian_matrix(2, 1, 0, el("7")) == mat("0 -inf; 7 0")
    with pytest.raises(BadIndicesError):
        transposition_matrix(2, 0, 0)
    with pytest.raises(BadIndicesError):
        gaussian_matrix(2, 0, 5, el("1"))
    with pytest.raises(NotInvertibleError):
        diag_multiplier_matrix(2, 0, ghost(1))
    with pytest.raises(BadIndicesError):
        diag_multiplier_matrix(2, 5, ONE)


def test_is_invertible():
    assert is_invertible(transposition_matrix(3, 0, 2))
    assert is_invertible(identity(3))
    assert is_invertible(diag_multiplier_matrix(3, 1, tangible(4)))
    assert not is_invertible(gaussian_matrix(3, 0, 1, tangible(0)))
    assert not is_invertible(mat("0 0; -inf 0"))
    assert not is_invertible(mat("0g -inf; -inf 0"))


# -- powers and star ------------------------------------------------------------------------


def test_mat_pow():
    a = mat("0 0; 1 2")
    assert mat_pow(a, 2) == mat("1 2; 3 4")
    assert mat_pow(a, 0) == identity(2)
    d = mat("0 -1; -2 0")
    assert mat_nu_equiv(mat_pow(d, 3), mat_pow(d, 1))
    with pytest.raises(ValueError):
        mat_pow(a, -1)


def test_matrix_refuses_assignment_after_construction():
    """A kept det answers for the entries it was computed from, so no
    attribute can be assigned or deleted once the matrix is built."""
    a = mat("3")
    assert determinant(a) == el("3")
    for name, value in (("entries", (el("5"),)), ("rows", 2), ("cols", 2), ("_memo", None),
                        ("_view", ((5,), (False,), 1))):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == "Matrix(1x1: 3)"
    assert determinant(a) == el("3")
    assert determinant(Matrix(1, 1, (el("5"),))) == el("5")


def random_ints(rng, size):
    """size flat magnitudes and ghost flags: a fifth -inf, a fifth of the
    rest ghost, often all even or all multiples of 3, so that a scale
    dividing them is often reducible."""
    step = rng.choice((1, 2, 3, 6))
    mag = [None if rng.randrange(5) == 0 else step * rng.randint(-4, 4) for _ in range(size)]
    return mag, [m is not None and rng.randrange(5) == 0 for m in mag]


def typed(es):
    return [typed_element(e) for e in es]


def test_matrix_from_ints_behaves_as_its_entries():
    """A matrix built from ints equals, hashes, prints and serializes as the
    matrix built from the same Elements, whichever is read first and
    however often, and reads onto the same ints (the least common
    denominator of its entries, whatever scale it was given).  For both,
    `at` and `row` give the entries `entries` gives, and the matrix rebuilt
    from `entries` has the same view, equals it and hashes as it does.
    Assigning or deleting `entries` raises."""
    rng = random.Random(5)
    for t in range(200):
        rows, cols, scale = 1 + t % 3, 1 + t % 4, rng.choice((1, 2, 3, 4, 6, 12))
        mag, gh = random_ints(rng, rows * cols)
        want = Matrix(rows, cols, [NEG_INF if m is None
                                   else (ghost if g else tangible)(Fraction(m, scale))
                                   for m, g in zip(mag, gh)])
        for reads in ("dict", "hash", "eq", "repr"):
            a = Matrix.from_ints(rows, cols, mag, gh, scale)
            with pytest.raises(AttributeError):
                a.entries = want.entries
            assert a._view == want._view
            got = {"dict": lambda: matrix_to_dict(a), "hash": lambda: hash(a),
                   "eq": lambda: a == want, "repr": lambda: repr(a)}
            expected = {"dict": matrix_to_dict(want), "hash": hash(want), "eq": True,
                        "repr": repr(want)}
            assert got[reads]() == expected[reads]
            assert typed(a.entries) == typed(want.entries)
            assert (a, hash(a), repr(a), matrix_to_dict(a), a._view) == \
                (want, hash(want), repr(want), matrix_to_dict(want), want._view)
            for m in (a, want):
                again = Matrix(rows, cols, m.entries)
                assert (again._view, again, hash(again)) == (m._view, m, hash(m))
                assert typed(m.at(i, j) for i in range(rows) for j in range(cols)) == \
                    typed(m.entries)
                assert typed(e for i in range(rows) for e in m.row(i)) == typed(m.entries)
            with pytest.raises(AttributeError):
                a.entries = want.entries
            with pytest.raises(AttributeError):
                del a.entries


def test_matrix_from_ints_checks_its_shape_and_scale():
    for args in ((2, 2, [1, 2, 3], [False] * 3, 1), (1, 2, [1, 2], [False], 1),
                 (0, 1, [], [], 1)):
        with pytest.raises(DimensionMismatchError):
            Matrix.from_ints(*args)
    for scale in (0, -2, 1.0, Fraction(1)):
        with pytest.raises(ValueError):
            Matrix.from_ints(1, 1, [1], [False], scale)
    with pytest.raises(ValueError, match="-inf"):  # a ghost flag at -inf
        Matrix.from_ints(2, 2, [0, None, None, 0], [False, True, False, False], 1)
    # a magnitude that is not an int or None, or a ghost flag that is not a
    # bool, would make a view that prints like another and compares unequal
    for size, mag, gh in ((1, [1.5], [False]), (1, [True], [False]), (1, [Fraction(1)], [False]),
                          (2, [0, 1, 1, 0], [False, 2, False, False]), (1, [None], [0])):
        with pytest.raises(ValueError, match="int"):
            Matrix.from_ints(size, size, mag, gh, 1)


class _Forged:
    """Pickles as the matrix Matrix.from_ints builds from its arguments."""

    def __init__(self, *args):
        self.args = args

    def __reduce__(self):
        return Matrix.from_ints, self.args


def test_a_matrix_shape_must_be_an_int():
    """A shape that is not an int, a float or a bool among them, raises
    ValueError from both constructors and from unpickling, as a bad scale
    does; before, 2.0 built a matrix whose kernels failed with a TypeError
    and True one that printed as Matrix(Truex1: 0)."""
    for rows, cols in ((2.0, 2), (2, 2.0), (True, 1), (1, True), (Fraction(2), 1), ("1", 1)):
        size = int(rows) * int(cols)
        args = (rows, cols, (0,) * size, (False,) * size, 1)
        for build in (lambda: Matrix.from_ints(*args), lambda: Matrix(rows, cols, [ONE] * size),
                      lambda: pickle.loads(pickle.dumps(_Forged(*args)))):
            with pytest.raises(ValueError, match="ints"):
                build()
    assert repr(Matrix.from_ints(1, 1, [0], [False], 1)) == "Matrix(1x1: 0)"


def test_equality_and_hash_read_the_view_and_build_no_element(monkeypatch):
    """A 16x16 matrix from ints and the same matrix from Elements compare
    and hash equal, and a copy with one ghost flag changed compares
    unequal, with every builder of Elements patched to raise."""
    rng = random.Random(16)
    mag, gh = random_ints(rng, 256)
    a = Matrix.from_ints(16, 16, mag, gh, 6)
    b = Matrix(16, 16, a.entries)
    k = next(i for i, m in enumerate(mag) if m is not None)
    c = Matrix.from_ints(16, 16, mag, gh[:k] + [not gh[k]] + gh[k + 1:], 6)

    def no_element(*args):
        raise AssertionError("an Element was built")

    monkeypatch.setattr(tropmat, "elements_of", no_element)
    monkeypatch.setattr(tropmat, "element_of", no_element)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != c and c != b


def test_is_triangular():
    assert is_triangular(mat("1 2; -inf 3")) and is_triangular(mat("1 -inf; 2 3"))
    assert is_triangular(mat("5")) and is_triangular(mat("1 -inf; -inf 2g"))
    assert not is_triangular(mat("1 2; 3 4")) and not is_triangular(mat("-inf -inf -inf"))
    assert not is_triangular(mat("0 -inf 1; -inf 0 -inf; 2 -inf 0"))


def test_format_matrix_is_the_repr_body():
    a = mat("0 -1/2g; -inf 3")
    assert format_matrix(a) == "0 -1/2g; -inf 3"
    assert repr(a) == "Matrix(2x2: 0 -1/2g; -inf 3)"


def test_repr_never_raises_past_the_int_digit_limit():
    a = Matrix(1, 2, [tangible(10 ** 4300), NEG_INF])
    with pytest.raises(SupertropicalError):
        format_matrix(a)
    assert repr(a) == "Matrix(1x2: Element(tangible, 4301 digits) Element('-inf'))"


def test_kleene_star_cases():
    d = mat("0 -1; -2 0")
    assert kleene_star(d) == d
    assert kleene_star(identity(3)) == identity(3)
    a = mat("0 -5 -5; -5 0 -5; -5 -5 0")
    assert kleene_star(a) == a
    with pytest.raises(NotDefiniteError):
        kleene_star(mat("0 0; 1 2"))


def test_integral_results_are_stored_as_int():
    """Integral values are ints, as the semiring promises, also when they
    come from adding or scaling Fractions."""
    half = el("1/2")
    h = mat("0 -1/2 -inf; -inf 0 -1/2; -inf -inf 0")
    star = kleene_star(h)
    assert star.at(0, 2) == tangible(-1)
    values = [mul(half, half).value, mul(half, el("3/2g")).value, power(half, 4).value]
    for m in (mat_mul(h, h), star):
        values += [e.value for e in m.entries if not e.is_neg_inf]
    integral = [v for v in values if v.denominator == 1]
    assert len(integral) > 3
    assert all(type(v) is int for v in integral)


def test_star_agrees_with_pseudo_inverse_and_powers():
    """On definite draws the star, A^inv and A^(n-1) share one magnitude.
    So do the corollaries the stabilization check leaves to this test:
    A^inv is the adjoint, A^inv is its own pseudo-inverse in magnitude,
    and A A^inv and the powers past n-1 keep that magnitude.  The draws
    are default ones at n = 2..4 and tie-heavy ones at n = 1..6."""
    draws = [gen_matrix(GenConfig(n=2 + t % 3, seed=11000 + t), Constraint.DEFINITE)
             for t in range(40)]
    draws += [gen_matrix(cfg, Constraint.DEFINITE) for cfg in tie_heavy_cfgs(240, 11100)]
    ghosts = 0
    for a in draws:
        n = a.rows
        s = kleene_star(a)
        pinv = pseudo_inverse(a)
        assert pinv == adjugate(a)
        assert mat_nu_equiv(s, pinv)
        assert mat_nu_equiv(pseudo_inverse(pinv), pinv)
        assert mat_nu_equiv(mat_mul(a, pinv), pinv)
        p = mat_pow(a, n - 1)
        assert mat_nu_equiv(s, p)
        for _ in range(3):
            p = mat_mul(p, a)
            assert mat_nu_equiv(p, pinv)
        ghosts += any(e.is_ghost for e in pinv.entries)
    assert ghosts > 40


def test_pseudo_inverse_magnitude_reads_only_magnitudes():
    """Flipping every ghost flag of X leaves the magnitude of X^inv as it
    was, and strict singularity too: the lemma by which the period check's
    conductor sandwich carries to every pair of iterates.  The fourth
    iterate matches the second, and on non-singular draws the third
    matches the first, the period the check derives instead of asserting.
    The draws have numerators in [-2, 2], with a third of them ghost at
    n = 2..5, and tie-heavy ones at n = 1..6."""
    def flip(x):
        return x.map(lambda e: e if e.is_neg_inf
                      else ghost(e.value) if e.is_tangible else tangible(e.value))

    cfgs = [GenConfig(n=2 + t % 4, numerator_range=(-2, 2),
                      ghost_prob=Fraction(1, 3), seed=12000 + t) for t in range(60)]
    periods = 0
    for cfg in cfgs + tie_heavy_cfgs(180, 12100):
        for constraint in (Constraint.NON_SINGULAR, Constraint.NONE):
            x = gen_matrix(cfg, constraint)
            cls = classify(x)
            if cls is SingularityClass.STRICTLY_SINGULAR:
                with pytest.raises(StrictlySingularError):
                    pseudo_inverse(flip(x))
                continue
            assert mat_nu_equiv(pseudo_inverse(x), pseudo_inverse(flip(x)))
            assert mat_nu_equiv(pseudo_inverse_iter(x, 4), pseudo_inverse_iter(x, 2))
            if cls is SingularityClass.NON_SINGULAR:
                assert mat_nu_equiv(pseudo_inverse_iter(x, 3), pseudo_inverse(x))
                periods += 1
    assert periods > 300


# -- entrywise relations ----------------------------------------------------------------------


def test_mat_relations():
    assert mat_ghost_surpasses(mat("2g 3g; 1 2g"), mat("1 3; 1 2"))
    a = mat("0 5g; 1 2")
    assert mat_ghost_surpasses(a, a)
    assert not mat_ghost_surpasses(mat("1 0; 0 1"), mat("2 0; 0 1"))
    assert mat_nu_equiv(mat("1g 2; 3 4g"), mat("1 2g; 3g 4"))
    assert is_ghost_matrix(mat("1g 2g; -inf 0g"))
    assert not is_ghost_matrix(mat("1g 2; -inf 0g"))
    with pytest.raises(DimensionMismatchError):
        mat_ghost_surpasses(mat("0"), mat("0 0"))


def test_mat_relations_on_ints_match_the_scalar_relations():
    """mat_ghost_surpasses, mat_nu_equiv and is_ghost_matrix compare the
    matrices' ints; on tie-heavy pairs at different scales, each built from
    ints or from Elements, they agree with ghost_surpasses and equal
    magnitudes entry by entry."""
    rng = random.Random(9)
    seen = {True: 0, False: 0}
    for t in range(400):
        n = 1 + t % 3
        mag, gh = random_ints(rng, n * n)
        if t % 3:  # the same magnitudes, with each ghost flag redrawn
            other = (mag, [m is not None and rng.randrange(2) == 0 for m in mag], 2)
        else:
            other = (*random_ints(rng, n * n), 3)
        for x, y in (((mag, gh, 2), other), (other, (mag, gh, 2))):
            xs, ys = Matrix.from_ints(n, n, *x).entries, Matrix.from_ints(n, n, *y).entries
            want = (all(ghost_surpasses(e, f) for e, f in zip(xs, ys)),
                    all(e.value == f.value for e, f in zip(xs, ys)),
                    all(not f.is_tangible for f in ys))
            for a, b in ((Matrix.from_ints(n, n, *x), Matrix.from_ints(n, n, *y)),
                         (Matrix(n, n, xs), Matrix.from_ints(n, n, *y)),
                         (Matrix.from_ints(n, n, *x), Matrix(n, n, ys))):
                assert (mat_ghost_surpasses(a, b), mat_nu_equiv(a, b), is_ghost_matrix(b)) == want
            seen[want[0]] += 1
    assert min(seen.values()) > 100


# -- JSON format ---------------------------------------------------------------------------------


def test_matrix_json_round_trip():
    a = mat("1 -1/2g -inf; 3 4 0g; -inf -inf 1")
    assert matrix_from_json(matrix_to_json(a)) == a
    d = matrix_to_dict(a)
    assert d["rows"] == 3 and d["cols"] == 3
    assert d["entries"][0] == ["1", "-1/2g", "-inf"]


@pytest.mark.parametrize(
    "bad",
    [
        {"rows": 1, "cols": 1},
        {"rows": 1, "cols": 1, "entries": [["0"]], "extra": 1},
        {"rows": 2, "cols": 1, "entries": [["0"]]},
        {"rows": 1, "cols": 2, "entries": [["0"]]},
        {"rows": 1, "cols": 1, "entries": [["nope"]]},
        {"rows": 0, "cols": 1, "entries": []},
        {"rows": 1, "cols": 1, "entries": [[0]]},
        {"rows": True, "cols": True, "entries": [["1"]]},
        [1, 2],
    ],
)
def test_matrix_json_strictness(bad):
    with pytest.raises(ParseError):
        matrix_from_dict(bad)


def test_matrix_json_text_errors(tmp_path):
    """Each bad text is a ParseError, not the decoder's own exception."""
    deep = "[" * 100000 + "]" * 100000
    long_int = '{"rows": ' + "1" * 5000 + "}"
    for text in ("{not json", deep, long_int):
        with pytest.raises(ParseError):
            matrix_from_json(text)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"rows": 1, "cols": 1, "entries": [["\xff"]]}')
    with pytest.raises(ParseError, match="not UTF-8"):
        load_matrix(str(latin1))
