"""Generators, checkers, reports: determinism, constraints, replay."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from supertrop import (
    DEFAULT_DET_CAP,
    NEG_INF,
    ConstraintUnsatisfiableError,
    Matrix,
    NotDefiniteError,
    NotNonSingularError,
    ONE,
    SingularityClass,
    SizeCapExceededError,
    char_poly,
    classify,
    determinant,
    diag,
    ghost,
    ghost_surpasses,
    identity,
    is_definite,
    is_invertible,
    matrix_to_dict,
    mul,
    power,
    pseudo_inverse,
    tangible,
)
from supertrop import lawcheck, maxpoly, spectral, tropmat
from supertrop.semiring import rational
from supertrop.lawcheck import (
    CHECK_IDS,
    CHECKS,
    CheckDef,
    Constraint,
    GenConfig,
    TrialResult,
    chk_adj_product,
    chk_adj_rules,
    chk_charpoly_power,
    chk_reversal_conjecture,
    chk_det_product,
    chk_definite_stabilization,
    chk_hamilton_cayley,
    chk_nabla_period,
    chk_similarity,
    explore_conjecture,
    gen_matrix,
    replay,
    run_check,
    run_suite,
    _entry_drawer,
    _gen_with_rng,
    _sub_seed,
)

from conftest import mat, rebind_everywhere, tie_heavy_cfgs


# -- generation --------------------------------------------------------------------


def test_gen_is_deterministic():
    cfg = GenConfig(n=3, seed=42)
    assert gen_matrix(cfg) == gen_matrix(cfg)
    assert gen_matrix(cfg) != gen_matrix(GenConfig(n=3, seed=43))


@pytest.mark.parametrize("constraint, predicate", [
    (Constraint.DEFINITE, is_definite),
    (Constraint.INVERTIBLE, is_invertible),
    (Constraint.NON_SINGULAR,
     lambda a: classify(a) is SingularityClass.NON_SINGULAR),
])
def test_gen_constraints(constraint, predicate):
    for t in range(25):
        for n in (1, 2, 3, 5, 7):
            a = gen_matrix(GenConfig(n=n, seed=100 * t + n), constraint)
            assert predicate(a)


def test_gen_definite_reaches_positive_entries():
    """A definite draw is not confined to the matrices dominated outright,
    whose off-diagonal entries are all negative."""
    positive = 0
    for seed in range(50):
        d = gen_matrix(GenConfig(n=6, seed=seed), Constraint.DEFINITE)
        positive += any(
            not d.at(i, j).is_neg_inf and d.at(i, j).value > 0
            for i in range(6) for j in range(6) if i != j
        )
    assert positive >= 25


def test_gen_definite_with_every_entry_neg_inf_is_identity():
    for n in range(1, 7):
        cfg = GenConfig(n=n, neginf_prob=1, seed=n)
        assert gen_matrix(cfg, Constraint.DEFINITE) == identity(n)


def test_gen_triangular_is_upper_and_nonsingular():
    for t in range(25):
        a = gen_matrix(GenConfig(n=4, seed=t), Constraint.TRIANGULAR)
        assert classify(a) is SingularityClass.NON_SINGULAR
        for i in range(4):
            assert a.at(i, i).is_tangible
            for j in range(i):
                assert a.at(i, j).is_neg_inf


def test_gen_unsatisfiable_constraint():
    # every entry forced to -inf: no matrix is non-singular
    cfg = GenConfig(n=2, neginf_prob=1, seed=0)
    with pytest.raises(ConstraintUnsatisfiableError):
        gen_matrix(cfg, Constraint.NON_SINGULAR)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(n=0)
    with pytest.raises(ValueError):
        GenConfig(n=2, numerator_range=(5, 1))
    with pytest.raises(ValueError):
        GenConfig(n=2, neginf_prob=2)
    with pytest.raises(ValueError):
        GenConfig(n=2, ghost_prob=0.5)
    with pytest.raises(ValueError):
        GenConfig(n=2, denominator=0)
    with pytest.raises(ValueError, match="64 unsigned bits"):
        GenConfig(n=2, seed=1 << 64)
    # Sizes, bounds, the denominator and the seed are ints, not bools or
    # floats; a probability is an int or a Fraction, not a bool.
    for kwargs in [{"n": True}, {"n": 2.0}, {"n": 2, "seed": 1.5}, {"n": 2, "seed": True},
                   {"n": 2, "denominator": 2.0}, {"n": 2, "denominator": True},
                   {"n": 2, "numerator_range": (-1.5, 2)},
                   {"n": 2, "numerator_range": (0, True)},
                   {"n": 2, "neginf_prob": True}, {"n": 2, "ghost_prob": False}]:
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


@pytest.mark.parametrize("bad", [[-2, 2], (0,), (-1, 0, 1), "ab", None])
def test_gen_config_numerator_range_is_a_tuple_of_two(bad):
    """A list would make a frozen config that hash() refuses, and a tuple
    of another length would fail to unpack: both raise a ValueError that
    names the field."""
    with pytest.raises(ValueError, match="numerator_range must be a tuple of two ints"):
        GenConfig(n=2, numerator_range=bad)
    hash(GenConfig(n=2, numerator_range=(-2, 2)))  # a tuple hashes


@pytest.mark.parametrize("trials", [True, False, -1, 2.5, "3", None])
def test_a_bad_trial_count_is_refused_before_any_draw(trials, monkeypatch):
    """run_check, run_suite and explore_conjecture refuse a trial count
    other than an int >= 0, a bool included, with ValueError and before
    any matrix is drawn, so no report says it ran True or -1 trials."""
    drawn = []
    monkeypatch.setattr(lawcheck, "_gen_with_rng", lambda *args: drawn.append(1))
    cfg = GenConfig(n=2, seed=1)
    for run in (lambda: run_check("det_product", cfg, trials), lambda: run_suite(cfg, trials),
                lambda: explore_conjecture(cfg, trials)):
        with pytest.raises(ValueError, match="trials must be an int >= 0"):
            run()
    assert drawn == []
    monkeypatch.undo()
    assert run_check("det_product", cfg, 0).to_dict()["trials"] == 0


@pytest.mark.parametrize("kwargs", [
    {},
    {"neginf_prob": Fraction(0)},
    {"neginf_prob": Fraction(1)},
    {"ghost_prob": Fraction(0)},
    {"numerator_range": (0, 0)},
    {"numerator_range": (-(1 << 70), 1 << 70)},
    {"denominator": 3},
], ids=repr)
def test_entry_draws_take_the_bits_of_randrange_and_randint(kwargs):
    """A draw takes the very bits randrange(d) < num and randint(lo, hi)
    take, so a seed keeps its matrices; with a probability of denominator 1,
    randrange(1) still takes one bit.  A draw of count entries gives
    their numerators (None for -inf) and ghost flags; as a 1 x count
    matrix over the denominator they are the entries the stdlib calls
    give, value types included."""
    cfg = GenConfig(n=2, **kwargs)
    ours, stdlib = random.Random(2024), random.Random(2024)
    draw = _entry_drawer(ours, cfg)
    lo, hi = cfg.numerator_range
    neginf, ghost_p = cfg.neginf_prob, cfg.ghost_prob

    def reference(kinds):
        if kinds and stdlib.randrange(neginf.denominator) < neginf.numerator:
            return NEG_INF
        v = rational(stdlib.randint(lo, hi), cfg.denominator)
        if kinds and stdlib.randrange(ghost_p.denominator) < ghost_p.numerator:
            return ghost(v)
        return tangible(v)

    for i in range(1000):
        kinds, count = i % 6 != 5, 1 + i % 4
        mag, gh = draw(count, kinds)
        want = [reference(kinds) for _ in range(count)]
        got = Matrix.from_ints(1, count, mag, gh, cfg.denominator).entries
        assert [(e, type(e.value)) for e in got] == [(e, type(e.value)) for e in want]
        assert all(type(g) is bool for g in gh)
    assert ours.getstate() == stdlib.getstate()


@pytest.mark.parametrize("constraint", list(Constraint))
def test_gen_draws_no_floats(constraint, monkeypatch):
    """Entry kinds are exact Bernoulli draws on the rational probabilities,
    so generation never asks the generator for a float."""
    def no_float(self):
        raise AssertionError("float draw in exact generation")

    monkeypatch.setattr(random.Random, "random", no_float)
    for seed in range(5):
        gen_matrix(GenConfig(n=3, seed=seed), constraint)


def test_gen_fractional_entries():
    cfg = GenConfig(n=3, denominator=3, neginf_prob=0, ghost_prob=0, seed=9)
    a = gen_matrix(cfg)
    assert all(e.is_tangible for e in a.entries)


# -- individual checkers on pinned instances ------------------------------------------


def test_chk_det_product_on_identity():
    r = chk_det_product(identity(3), identity(3))
    assert r.ok


def test_chk_det_product_example():
    r = chk_det_product(mat("0 0; 1 2"), mat("1 2; 3 1"))
    assert r.ok


def test_chk_adj_rules_example():
    assert chk_adj_rules(mat("1 0 -inf; 3 4 -inf; -inf -inf 1")).ok
    assert chk_adj_rules(identity(4)).ok
    assert chk_adj_rules(mat("0 0; 0 0")).ok  # singular instances too


def test_chk_nabla_period_examples():
    assert chk_nabla_period(mat("0 0 -inf; -inf 0 0; 1 -inf 0")).ok
    assert chk_nabla_period(identity(3)).ok
    with pytest.raises(NotNonSingularError):
        chk_nabla_period(mat("0 0; 0 0"))


def _count_calls(monkeypatch, name):
    """Count calls to the library function `name` through every module that
    binds it.  Products are counted at tropmat's private product step, which
    mat_mul and the power sum share."""
    calls = []
    for module in (tropmat, maxpoly, spectral, lawcheck):
        if hasattr(module, name):
            monkeypatch.setattr(module, name,
                                lambda *args, _f=getattr(module, name): calls.append(1) or _f(*args))
    return calls


def _count_folds(monkeypatch):
    folds = []
    fold = tropmat._fold
    monkeypatch.setattr(tropmat, "_fold", lambda *args: folds.append(1) or fold(*args))
    return folds


def test_law_checks_fold_each_quantity_once(monkeypatch):
    """Each check gets freshly built matrices, so no result is kept from an
    earlier call.  The adjoint rules fold twice for the adjoint, which also
    gives det(A), then once for each of det(A adj A) and det(adj A).  The
    similarity check folds for its classify guard, the conjugate's
    pseudo-inverse (1: the guard's fold is its forward half) and the two
    characteristic polynomials, multiplies only to form the conjugate, and
    leaves the corollaries of its law to the tier-1 tests: no root
    containment and no substitution of B.  The period check's guard is its
    definite_form call (A alone: the conductor is not folded), then 1 for
    A's pseudo-inverse (the guard's fold is its forward half) and 2 for the
    second one, and it forms no third.  The stabilization check folds nothing: A is
    definite, so its pseudo-inverse is read from the closure that
    kleene_star makes, and A^inv's own pseudo-inverse is not formed.  It
    makes the n - 2 products of A^(n-1) and one for A^inv A, and calls no
    adjugate.  Each check reports only its kept keys."""
    folds = _count_folds(monkeypatch)
    a = "1 0 -1; 3 4 -inf; 0 -2 2"
    b = "0 2g -inf; -1 1 3; 2 -inf -2"
    d = "0 -1 -2; -3 0 -1; -2 -4 0"
    for call, want in [(lambda: chk_adj_rules(mat(a)), 4),
                       (lambda: chk_similarity(mat(a), mat(b)), 4),
                       (lambda: chk_nabla_period(mat(a)), 4),
                       (lambda: chk_definite_stabilization(mat(d)), 0)]:
        folds.clear()
        assert call().ok
        assert len(folds) == want
    products = _count_calls(monkeypatch, "_product")
    adjugates = _count_calls(monkeypatch, "adjugate")
    corollaries = (_count_calls(monkeypatch, "roots_outside")
                   + _count_calls(monkeypatch, "eval_at_matrix"))
    for call, want in [(lambda: chk_similarity(mat(a), mat(b)), 2),
                       (lambda: chk_definite_stabilization(mat(d)), 2)]:
        products.clear()
        assert call().ok
        assert len(products) == want
    assert adjugates == []
    assert corollaries == []
    inverses = _count_calls(monkeypatch, "pseudo_inverse")
    for call, want in [(lambda: chk_nabla_period(mat(a)), 2),
                       (lambda: chk_definite_stabilization(mat(d)), 1)]:
        inverses.clear()
        assert call().ok
        assert len(inverses) == want
    # with every comparison in lawcheck answering no, the keys are the kept laws'
    for name in ("poly_ghost_surpasses", "ghost_surpasses", "is_ghost_matrix",
                 "mat_ghost_surpasses", "mat_nu_equiv", "is_definite"):
        monkeypatch.setattr(lawcheck, name, lambda *args: False)
    monkeypatch.setattr(lawcheck, "power", lambda *args: NEG_INF)
    for call, keys in [
        (lambda: chk_det_product(mat(a), mat(b)), ["det_ab", "det_a_det_b"]),
        (lambda: chk_adj_rules(mat(a)),
         ["det_a_adj", "det_pow_n", "det_adj", "det_pow_n_minus_1"]),
        (lambda: chk_adj_product(mat(a), mat(b)), ["adj_ab", "adj_b_adj_a"]),
        (lambda: chk_similarity(mat(a), mat(b)), ["charpoly"]),
        (lambda: chk_nabla_period(mat(a)), ["conductor_sandwich"]),
        (lambda: chk_definite_stabilization(mat(d)),
         ["pseudo_inverse_definite", "power_n_minus_1", "left_pseudo_identity"]),
        (lambda: chk_hamilton_cayley(mat(a)), ["char_poly_at_a"]),
    ]:
        res = call()
        assert not res.ok
        assert list(res.details) == keys


def test_similarity_guard_reads_the_draws_determinant(monkeypatch):
    """In a run_check trial the draw's classify folds A once per attempt;
    the check's own classify guard then reads the kept det and folds
    nothing."""
    folds = _count_folds(monkeypatch)
    costs = []
    classify_ = lawcheck.classify

    def counted(m):
        before = len(folds)
        out = classify_(m)
        costs.append(len(folds) - before)
        return out

    monkeypatch.setattr(lawcheck, "classify", counted)
    for seed in range(5):
        costs.clear()
        assert run_check("similarity", GenConfig(n=4, seed=seed), 1).passes == 1
        assert costs[:-1] == [1] * (len(costs) - 1) and costs[-1] == 0


@pytest.mark.parametrize("check_id, after_draw", [
    ("nabla_period", 3), ("definite_stabilization", 0),
    ("similarity", 3), ("reversal_conjecture", 2)])
def test_run_check_trial_hands_the_draws_fold_on(check_id, after_draw, monkeypatch):
    """In one run_check trial at n = 5 the draw's classify folds once per
    attempt, and that fold is the forward half of the next pseudo-inverse,
    the table of the next definite form or the x-free part of the next
    characteristic polynomial.  After it: the period check folds the
    backward half of A^inv and 2 for the second pseudo-inverse; neither
    the DEFINITE draw nor the check folds (no definite form folds its
    conductor, and the check's one pseudo-inverse is of a definite matrix,
    read from its closure); the similarity check folds the backward half
    of A^inv and the x-free parts of the characteristic polynomials of B
    and of the conjugate; the reversal check extends the draw's fold into
    f_A, then folds the backward half of A^inv and the x-free part of
    f_(A^inv)."""
    folds = _count_folds(monkeypatch)
    drawn = []
    classify_ = lawcheck.classify

    def counted(m):
        before = len(folds)
        out = classify_(m)
        drawn.append(len(folds) - before)
        return out

    monkeypatch.setattr(lawcheck, "classify", counted)
    for seed in range(4):
        folds.clear()
        drawn.clear()
        assert run_check(check_id, GenConfig(n=5, seed=seed), 1).passes == 1
        assert len(folds) - sum(drawn) == after_draw, seed


@pytest.mark.parametrize("n", [2, 4, 5])
def test_every_check_reads_each_fresh_matrix_once(n, monkeypatch):
    """Every check, on fresh copies of its draws (empty memos, the handoff
    slot emptied), reads each matrix's kernel rows at most once.  Only a
    slot miss in _forward reads them, so a second read is a second forward
    fold of the same matrix: the reversal check once folded a fresh A for
    its characteristic polynomial and again for its pseudo-inverse."""
    read = []
    kernel_rows = tropmat._kernel_rows
    monkeypatch.setattr(tropmat, "_kernel_rows", lambda m: read.append(m) or kernel_rows(m))
    for check_id, defn in CHECKS.items():
        for seed in range(4):
            drawn = lawcheck._inputs({}, seed, GenConfig(n=n, seed=seed), defn)
            args = [Matrix.from_ints(m.rows, m.cols, *m._view) for m in drawn]
            monkeypatch.setattr(tropmat, "_handoff", None)
            read.clear()
            defn.fn(*args)
            assert len({id(m) for m in read}) == len(read), (check_id, seed)


def test_definite_stabilization_closes_the_draw_once(monkeypatch):
    """The DEFINITE draw's definite_form decides that D is definite by its
    closure; the check's kleene_star(D) reads that closure back, so in a
    run_check trial only D and A^inv are closed, once each."""
    closed = []
    closure = tropmat._closure
    monkeypatch.setattr(tropmat, "_closure", lambda m: closed.append(m) or closure(m))
    for seed in range(5):
        closed.clear()
        assert run_check("definite_stabilization", GenConfig(n=4, seed=seed), 1).passes == 1
        assert len(closed) == 2 and closed[0] is not closed[1]


def test_chk_definite_stabilization_examples():
    assert chk_definite_stabilization(identity(4)).ok
    assert chk_definite_stabilization(mat("0 -1; -2 0")).ok
    for not_definite in ("0 0; 0 0", "0g -1; -2 0", "0 -1; 1 0"):
        with pytest.raises(NotDefiniteError):
            chk_definite_stabilization(mat(not_definite))


def test_chk_similarity_example():
    assert chk_similarity(mat("2 0; 1 0"), mat("1 2; 3 1")).ok
    assert chk_similarity(identity(2), mat("0 0; 1 2")).ok
    with pytest.raises(NotNonSingularError, match="conjugator"):
        chk_similarity(mat("0 0; 0 0"), mat("0 0; 1 2"))


def test_chk_hamilton_cayley_example():
    assert chk_hamilton_cayley(mat("0 0; 1 2")).ok
    assert chk_hamilton_cayley(identity(4)).ok


def test_chk_charpoly_power_examples():
    assert chk_charpoly_power(mat("0 0; 1 2")).ok
    assert chk_charpoly_power(diag([tangible(1), tangible(4)])).ok


def test_charpoly_power_law_implies_onto_and_tangible_equality():
    """The two laws chk_charpoly_power derives from value surpassing, as
    theorems, for m = 2 and 3: every corner root of f_{A^m} is m times a
    corner root of f_A, and a ghost-free f_{A^m} is the same map as g_m,
    f_A's coefficient-wise m-th power.  The draws: diag(1, 2, 4), pinned
    (its diagonal has distinct subset sums, so f_{A^m} is ghost-free),
    1200 tie-heavy ones (numerators in [-2, 2] over 2, 1/3 ghost) and
    1200 sparse ones (numerators in [-9, 9] over 2, -inf with probability
    1/2, 1/10 ghost), at n = 1..6.  Ghost-free f_{A^m} are rare on
    tie-heavy draws (3 of 2000 default sweep trials at n = 5), so the
    sparse draws supply them at every n."""
    from supertrop import mat_pow, poly_value_equal, poly_value_surpasses, roots

    draws = [diag([tangible(1), tangible(2), tangible(4)])]
    for t in range(2400):
        sparse = t >= 1200
        draws.append(gen_matrix(GenConfig(
            n=1 + t % 6, numerator_range=(-9, 9) if sparse else (-2, 2), denominator=2,
            neginf_prob=Fraction(1, 2) if sparse else Fraction(1, 5),
            ghost_prob=Fraction(1, 10) if sparse else Fraction(1, 3), seed=5100 + t)))
    corners = 0
    ghost_free = Counter()
    for t, a in enumerate(draws):
        f_a = char_poly(a)
        corner_a = {v.value for v, _ in roots(f_a).corner}
        for m in (2, 3):
            f_am = char_poly(mat_pow(a, m))
            g_m = maxpoly.Polynomial(power(c, m) for c in f_a.coeffs)
            assert poly_value_surpasses(f_am, g_m), a
            for v, _ in roots(f_am).corner:
                assert Fraction(v.value, m) in corner_a, (a, m, v)
                corners += 1
            if not f_am.has_ghost_coeff():
                assert poly_value_equal(f_am, g_m), (a, m)
                ghost_free[a.rows] += 1
            else:
                assert t > 0  # diag(1, 2, 4) is ghost-free at both m
    assert corners > 3000
    assert set(ghost_free) == set(range(1, 7)), ghost_free
    assert sum(ghost_free[n] for n in range(3, 7)) > 200, ghost_free


def test_chk_charpoly_power_takes_running_products(monkeypatch):
    """A trial folds A, A^2 and A^3 once each for their characteristic
    polynomials, and A^3 is A^2 times A: 2 matrix products, 3 folds."""
    calls = []
    mat_mul, fold = tropmat.mat_mul, tropmat._fold

    def counting_mat_mul(x, y):
        calls.append("mat_mul")
        return mat_mul(x, y)

    monkeypatch.setattr(tropmat, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(lawcheck, "mat_mul", counting_mat_mul)
    monkeypatch.setattr(tropmat, "_fold", lambda *args: calls.append("fold") or fold(*args))
    assert CHECKS["charpoly_power"].fn(mat("1 0 -1; 3 4 -inf; 0 -2 2")).ok
    assert sorted(calls) == ["fold"] * 3 + ["mat_mul"] * 2


def test_chk_charpoly_power_compares_at_degree_n(monkeypatch):
    """The check forms no polynomial product, power, inflation or k-th
    root: each comparison is poly_value_surpasses of f_{A^m} and g_m, both
    of degree <= n, on tie-heavy draws at n = 1..5."""
    from supertrop import semiring

    called = []
    for module, name in ((maxpoly, "poly_mul"), (maxpoly, "poly_pow"),
                         (maxpoly, "inflate"), (semiring, "kth_root")):
        rebind_everywhere(monkeypatch, module, name,
                          lambda fn, name=name: lambda *args: called.append(name) or fn(*args))
    compared = []
    compare = lawcheck.poly_value_surpasses
    monkeypatch.setattr(lawcheck, "poly_value_surpasses", lambda f, g: (
        compared.append((f.degree, g.degree)) or compare(f, g)))
    for t in range(60):
        cfg = GenConfig(n=1 + t % 5, numerator_range=(-2, 2), denominator=2,
                        ghost_prob=Fraction(1, 3), seed=4700 + t)
        start = len(compared)
        assert chk_charpoly_power(gen_matrix(cfg)).ok
        assert len(compared) == start + 2
        assert all(max(df, dg) <= cfg.n for df, dg in compared[start:])
    assert called == []


def test_chk_charpoly_power_keys(monkeypatch):
    """One key for each m, value surpassing: the check reads no root set
    and no value equality, and lawcheck imports neither."""
    monkeypatch.setattr(lawcheck, "poly_value_surpasses", lambda f, g: False)
    r = chk_charpoly_power(diag([tangible(1), tangible(2), tangible(4)]))
    assert list(r.details) == ["value_surpassing_m2", "value_surpassing_m3"]
    assert not hasattr(lawcheck, "roots") and not hasattr(lawcheck, "poly_value_equal")


def test_chk_conjecture_on_pinned_instances():
    # reversal with equality
    assert chk_reversal_conjecture(mat("1 0 -inf; 3 4 -inf; -inf -inf 1")).ok
    # triangular: exact equality asserted across all coefficients
    assert chk_reversal_conjecture(mat("1 0; -inf 4")).ok
    assert chk_reversal_conjecture(identity(5)).ok
    with pytest.raises(NotNonSingularError):
        chk_reversal_conjecture(mat("0 0; 0 0"))


def test_reversal_check_splits_failures_from_counterexamples(monkeypatch):
    """With every coefficient comparison answering no, a non-singular,
    non-triangular A at n = 5 fails the proven coefficients 0, 3 and 4 and
    flags the open ones, 1 and 2, with the open-range note; k = n is not
    compared (f of A^inv is monic, so it is det against det).  At n <= 4,
    and for a triangular A, every coefficient below n is proven, so all
    fail and nothing is flagged."""
    monkeypatch.setattr(lawcheck, "ghost_surpasses", lambda *args: False)
    r = chk_reversal_conjecture(mat(
        "0 -1 -inf -inf -inf; -2 0 -inf -inf -inf; -inf -inf 0 -inf -inf;"
        " -inf -inf -inf 0 -inf; -inf -inf -inf -inf 0"))
    assert not r.ok
    assert list(r.details) == [f"coefficient_{k}" for k in (0, 3, 4)]
    assert list(r.counterexample) == ["coefficient_1", "coefficient_2", "note"]
    assert r.counterexample["note"] == lawcheck._OPEN_RANGE_NOTE
    upper = mat("1 2 -inf -inf -inf; -inf 0 -inf 3 -inf; -inf -inf 0 -inf -inf;"
                " -inf -inf -inf 0 -1; -inf -inf -inf -inf 2")
    lower = Matrix(5, 5, [upper.at(j, i) for i in range(5) for j in range(5)])
    for a in (mat("1 0; 3 4"), mat("0 -1 -inf; -2 0 1; -inf -3 0"),
              mat("0 -1 -inf -inf; -2 0 -inf -inf; -inf -inf 0 -inf; -inf -inf -inf 0"),
              upper, lower):
        r = chk_reversal_conjecture(a)
        assert not r.ok and r.counterexample is None
        assert list(r.details) == [f"coefficient_{k}" for k in range(a.rows)]


def test_reversal_at_k_equal_n_is_det_against_det():
    """The proven coefficient the reversal check does not compare, as a
    theorem on tie-heavy non-singular draws at n = 1..6: f of A^inv is
    monic, so det(A) * coeff_n(f of A^inv) is det(A) itself, and
    coeff_0(f of A) is det(A), which surpasses itself."""
    for cfg in tie_heavy_cfgs(180, 9300):
        a = gen_matrix(cfg, Constraint.NON_SINGULAR)
        n, d = a.rows, determinant(a)
        f_a, f_inv = char_poly(a), char_poly(pseudo_inverse(a))
        assert f_a.degree == f_inv.degree == n
        assert f_a.coeff(n) == f_inv.coeff(n) == ONE
        lhs = mul(d, f_inv.coeff(n))
        assert lhs == d == f_a.coeff(0) and ghost_surpasses(lhs, f_a.coeff(0))


def test_passing_explore_trials_build_no_matrix_elements(monkeypatch):
    """An explore run whose every trial passes reads A and A^inv only as
    ints: no matrix of the run builds its Elements (elements_of, the one
    builder of a matrix's entries, is never called from tropmat), while
    the characteristic coefficients and det are scalars built one by one.
    Afterwards each read of a drawn matrix's entries is one elements_of
    call."""
    built = []
    elements = tropmat.elements_of
    monkeypatch.setattr(tropmat, "elements_of", lambda *args: built.append(1) or elements(*args))
    for n, den in ((4, 1), (5, 2), (6, 3)):
        cfg = GenConfig(n=n, denominator=den, ghost_prob=Fraction(1, 4), seed=n)
        r = explore_conjecture(cfg, 40)
        assert r.passes == 40 and not r.failures and not r.counterexamples
        a = gen_matrix(cfg, Constraint.NON_SINGULAR)
        assert chk_reversal_conjecture(a).ok
        assert built == []
        assert a.entries == a.entries and built == [1, 1]
        built.clear()


# -- runner ---------------------------------------------------------------------------


def test_run_check_all_pass_small():
    cfg = GenConfig(n=3, seed=7)
    for cid in CHECK_IDS:
        r = run_check(cid, cfg, 40)
        assert r.passes == r.trials == 40, cid
        assert r.failures == []
        assert r.passes + len(r.failures) == r.trials


def test_run_check_deterministic_reports():
    cfg = GenConfig(n=3, seed=11)
    r1 = run_check("similarity", cfg, 25)
    r2 = run_check("similarity", cfg, 25)
    assert r1.to_dict() == r2.to_dict()
    assert r1.to_json() == r2.to_json()
    # timing is excluded from the serialized form
    assert "elapsed_ms" not in r1.to_dict()


def test_run_check_records_replayable_witnesses(monkeypatch):
    """A trial that fails or flags a counterexample records the matrices
    drawn at its sub-seed, and replay reproduces its verdict; a clean pass
    records nothing."""
    def odd_corner(a, b):
        ok = a.at(0, 0).is_neg_inf or a.at(0, 0).value % 2 == 0
        counter = {"b00": "-inf"} if b.at(0, 0).is_neg_inf else None
        return TrialResult(ok, {} if ok else {"a00": str(a.at(0, 0))}, counter)

    monkeypatch.setitem(CHECKS, "det_product", CheckDef(Constraint.NON_SINGULAR, True, odd_corner))
    cfg = GenConfig(n=3, seed=21)
    trials = 40
    r = run_check("det_product", cfg, trials)
    failed = {w["trial"]: w for w in r.failures}
    flagged = {w["trial"]: w for w in r.counterexamples}
    assert failed and flagged and len(failed) + len(flagged) < trials
    assert r.passes == trials - len(failed)
    for t in range(trials):
        rng = random.Random(_sub_seed(cfg.seed, t))
        a = _gen_with_rng(rng, cfg, Constraint.NON_SINGULAR)
        b = _gen_with_rng(rng, cfg, Constraint.NONE)
        inputs = {"A": matrix_to_dict(a), "B": matrix_to_dict(b)}
        want = odd_corner(a, b)
        assert failed.get(t) == (
            None if want.ok else {"trial": t, "inputs": inputs, "details": want.details})
        assert flagged.get(t) == (
            None if want.counterexample is None
            else {"trial": t, "inputs": inputs, "details": want.counterexample})
        if t in failed or t in flagged:
            assert replay("det_product", inputs) == want


def test_run_check_unknown_id():
    with pytest.raises(KeyError):
        run_check("nope", GenConfig(n=2, seed=0), 1)
    with pytest.raises(KeyError):
        replay("nope", {})


def test_run_check_refuses_an_order_above_the_cap_before_any_draw(monkeypatch):
    """Every check folds, so an order above DEFAULT_DET_CAP is refused
    before a matrix is drawn or multiplied."""
    def no_draw(rng, cfg, constraint):
        raise AssertionError("drew a matrix above the size cap")

    monkeypatch.setattr(lawcheck, "_gen_with_rng", no_draw)
    for check_id in CHECK_IDS:
        with pytest.raises(SizeCapExceededError):
            run_check(check_id, GenConfig(n=DEFAULT_DET_CAP + 1, seed=0), 1)


def test_run_suite_order_and_shape():
    reports = run_suite(GenConfig(n=2, seed=3), 10, "all")
    assert [r.check_id for r in reports] == list(CHECK_IDS)
    reports = run_suite(GenConfig(n=2, seed=3), 10, "det_product")
    assert len(reports) == 1 and reports[0].check_id == "det_product"


# Tie-heavy sampling: many ghost and -inf entries and tied magnitudes, so
# draws are often rejected and the checks' kernels meet ties.
TIE_HEAVY = {"numerator_range": (-1, 1), "denominator": 2,
             "neginf_prob": Fraction(1, 4), "ghost_prob": Fraction(1, 4)}


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 5), (3, 17), (5, 3)])
def test_run_suite_reports_are_run_checks_reports(n, seed):
    """The suite's trial loop shares each trial's draws among its checks,
    and every report is still the one run_check gives for that id."""
    cfg = GenConfig(n=n, seed=seed, **TIE_HEAVY)
    for report in run_suite(cfg, 4, "all"):
        assert report.to_json() == run_check(report.check_id, cfg, 4).to_json()


def test_run_suite_hands_each_check_the_draws_it_takes_alone(monkeypatch):
    """With every check failing, every trial's inputs are in the reports,
    so they match run_check's only if each check in the suite reads the
    very matrices it draws alone."""
    for check_id, defn in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, check_id,
                            CheckDef(defn.constraint, defn.two_matrices, lambda *m: TrialResult(False)))
    cfg = GenConfig(n=3, seed=6, **TIE_HEAVY)
    for report in run_suite(cfg, 5, "all"):
        assert len(report.failures) == 5
        assert report.to_json() == run_check(report.check_id, cfg, 5).to_json()


def test_run_suite_witnesses_of_shared_draws_replay(monkeypatch):
    """With every scalar surpassing answering no, det_product fails and the
    reversal check fails and flags counterexamples on the suite's shared
    draws; each witness is the one run_check records, and replays to the
    verdict it records."""
    monkeypatch.setattr(lawcheck, "ghost_surpasses", lambda *args: False)
    cfg = GenConfig(n=5, seed=8, **TIE_HEAVY)
    reports = {r.check_id: r for r in run_suite(cfg, 3, "all")}
    for check_id in ("det_product", "reversal_conjecture"):
        report = reports[check_id]
        assert report.to_json() == run_check(check_id, cfg, 3).to_json()
        assert report.failures
        for witness in report.failures:
            assert replay(check_id, witness["inputs"]).details == witness["details"]
        for witness in report.counterexamples:
            assert replay(check_id, witness["inputs"]).counterexample == witness["details"]
    assert reports["reversal_conjecture"].counterexamples


def test_run_suite_draws_each_constraint_once_a_trial(monkeypatch):
    """A trial of the whole suite draws A once for each of the three
    constraints and B once for each constraint with a two-matrix check:
    5 draws, against the 12 that the checks make one by one."""
    drawn = []
    gen = lawcheck._gen_with_rng
    monkeypatch.setattr(lawcheck, "_gen_with_rng",
                        lambda rng, cfg, c: drawn.append(c) or gen(rng, cfg, c))
    cfg, trials = GenConfig(n=3, seed=4), 6
    run_suite(cfg, trials, "all")
    assert len(drawn) == 5 * trials
    assert Counter(drawn) == {Constraint.NONE: 3 * trials, Constraint.NON_SINGULAR: trials,
                              Constraint.DEFINITE: trials}
    drawn.clear()
    for check_id in CHECK_IDS:
        run_check(check_id, cfg, trials)
    assert len(drawn) == 12 * trials


def test_run_suite_raises_the_first_error_in_trial_order(monkeypatch):
    """The suite runs trial by trial, so a later check that raises at
    trial 0 surfaces before an earlier check that raises at trial 1."""
    def raises_at(trial, name):
        calls = []

        def check(a):
            calls.append(a)
            if len(calls) == trial + 1:
                raise NotNonSingularError(name)
            return TrialResult(True)
        return CheckDef(Constraint.NONE, False, check)

    monkeypatch.setitem(CHECKS, "adj_rules", raises_at(1, "adj_rules"))
    monkeypatch.setitem(CHECKS, "hamilton_cayley", raises_at(0, "hamilton_cayley"))
    with pytest.raises(NotNonSingularError, match="hamilton_cayley"):
        run_suite(GenConfig(n=2, seed=0), 3, "all")


def test_report_json_schema():
    r = run_check("det_product", GenConfig(n=2, seed=5), 8)
    d = json.loads(r.to_json())
    assert set(d) == {"check_id", "seed", "config", "trials", "passes",
                      "failures", "counterexamples"}
    assert d["config"]["neginf_prob"] == "1/5"
    assert d["trials"] == 8 and d["passes"] == 8


# -- explorer and replay -----------------------------------------------------------------


def test_explore_small_orders_find_nothing():
    cfg = GenConfig(n=2, seed=1)
    r = explore_conjecture(cfg, 150)
    assert r.passes == 150 and r.counterexamples == []
    cfg = GenConfig(n=3, seed=2)
    r = explore_conjecture(cfg, 150)
    assert r.passes == 150 and r.counterexamples == []


def test_explore_n5_report_well_formed():
    cfg = GenConfig(n=5, seed=3)
    r = explore_conjecture(cfg, 60)
    d = json.loads(r.to_json())
    assert d["trials"] == 60
    assert d["passes"] + len(d["failures"]) == 60


def test_replay_reproduces_verdicts():
    cfg = GenConfig(n=3, seed=13)
    for cid in ("det_product", "similarity", "hamilton_cayley", "reversal_conjecture"):
        defn = CHECKS[cid]
        r = run_check(cid, cfg, 10)
        assert r.passes == 10
        # replay an arbitrary instance through the serialized form
        a = gen_matrix(GenConfig(n=3, seed=99), defn.constraint)
        inputs = {"A": matrix_to_dict(a)}
        if defn.two_matrices:
            inputs["B"] = matrix_to_dict(gen_matrix(GenConfig(n=3, seed=98)))
        v1 = replay(cid, inputs)
        v2 = replay(cid, inputs)
        assert v1.ok == v2.ok and v1.details == v2.details
