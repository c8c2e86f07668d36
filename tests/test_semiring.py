"""Scalar arithmetic, order relations, and the text grammar."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supertrop import (
    NEG_INF,
    ONE,
    Element,
    NotInvertibleError,
    Matrix,
    ParseError,
    Polynomial,
    add,
    format_scalar,
    ghost,
    ghost_surpasses,
    invert,
    kth_root,
    mul,
    nu_equiv,
    parse_scalar,
    power,
    tangible,
    to_ghost,
    to_tangible,
)
from supertrop.semiring import (
    element_of,
    elements_of,
    ghost_surpasses_ints,
    rational,
    read_ints,
)

from conftest import typed_element

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
elements = st.one_of(
    st.just(NEG_INF),
    rationals.map(tangible),
    rationals.map(ghost),
)


# -- addition and multiplication ------------------------------------------------


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("2", "3", "3"),
        ("3", "3", "3g"),
        ("3g", "3", "3g"),
        ("-inf", "5g", "5g"),
        ("-inf", "-inf", "-inf"),
        ("1/2", "1/3", "1/2"),
    ],
)
def test_add_cases(a, b, expected):
    assert add(parse_scalar(a), parse_scalar(b)) == parse_scalar(expected)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("2", "3", "5"),
        ("2g", "3", "5g"),
        ("-inf", "3g", "-inf"),
        ("2g", "3g", "5g"),
        ("-1/2", "1/2", "0"),
    ],
)
def test_mul_cases(a, b, expected):
    assert mul(parse_scalar(a), parse_scalar(b)) == parse_scalar(expected)


def test_identities():
    x = tangible(7)
    assert add(NEG_INF, x) == x
    assert mul(ONE, x) == x
    assert mul(NEG_INF, x) == NEG_INF


def test_operator_sugar():
    assert tangible(2) + tangible(3) == tangible(3)
    assert tangible(2) * tangible(3) == tangible(5)
    assert tangible(2) ** 3 == tangible(6)
    assert tangible(5) ** 0 == ONE


@given(elements, elements, elements)
def test_add_mul_assoc_comm_distrib(a, b, c):
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(elements)
def test_add_idempotent_up_to_ghost(a):
    assert add(a, a) == to_ghost(a)


# -- projections ----------------------------------------------------------------


def test_to_ghost_to_tangible_cases():
    assert to_ghost(tangible(3)) == ghost(3)
    assert to_ghost(NEG_INF) == NEG_INF
    assert to_tangible(ghost(3)) == tangible(3)
    assert to_tangible(to_ghost(tangible(5))) == tangible(5)


@given(elements)
def test_projection_composition(a):
    assert to_ghost(to_ghost(a)) == to_ghost(a)
    assert to_tangible(to_tangible(a)) == to_tangible(a)
    assert to_ghost(to_tangible(a)) == to_ghost(a)


@given(elements, elements)
def test_ghost_projection_is_a_morphism(a, b):
    assert to_ghost(add(a, b)) == add(to_ghost(a), to_ghost(b))
    assert to_ghost(mul(a, b)) == mul(to_ghost(a), to_ghost(b))


# -- order relations --------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ("3g", "2", True),
        ("3", "3", True),
        ("2", "3", False),
        ("3g", "4", False),
        ("2g", "-inf", True),
        ("-inf", "-inf", True),
        ("-inf", "2g", False),
        ("3g", "3", True),
        ("3", "3g", False),
    ],
)
def test_ghost_surpasses_cases(a, b, expected):
    assert ghost_surpasses(parse_scalar(a), parse_scalar(b)) is expected


@given(elements)
def test_gs_reflexive(a):
    assert ghost_surpasses(a, a)


@given(elements, elements)
def test_gs_antisymmetric(a, b):
    if ghost_surpasses(a, b) and ghost_surpasses(b, a):
        assert a == b


@given(elements, elements, elements)
def test_gs_transitive(a, b, c):
    if ghost_surpasses(a, b) and ghost_surpasses(b, c):
        assert ghost_surpasses(a, c)


@given(elements, elements, elements)
def test_gs_stable_under_multiplication(a, b, c):
    if ghost_surpasses(a, b):
        assert ghost_surpasses(mul(a, c), mul(b, c))


def test_ghost_surpasses_ints_matches_ghost_surpasses():
    """The int form of ghost surpassing gives what ghost_surpasses gives on
    the Elements that each (magnitude, ghost flag) pair encodes, for one
    pair and for a run of pairs at once.  Draws are tie-heavy: few values
    over denominators 1, 2 and 3, read onto their run's common scale, with
    ghosts and -inf on either side, so that every pair of kinds meets at
    equal, lower and higher magnitudes."""
    rng = random.Random(2081)
    values = [Fraction(p, q) for p in range(-2, 3) for q in (1, 2, 3)]

    def draw():
        r = rng.randrange(4)
        return NEG_INF if r == 0 else (ghost if r == 1 else tangible)(rng.choice(values))

    def read(es, scale):
        return ([None if e.is_neg_inf else int(e.value * scale) for e in es],
                [e.is_ghost for e in es])

    seen, scales = set(), set()
    for _ in range(500):
        run = [(draw(), draw()) for _ in range(rng.randint(1, 4))]
        scale = lcm(*(e.value.denominator for pair in run for e in pair if not e.is_neg_inf))
        scales.add(scale)
        (am, ag), (bm, bg) = read([a for a, _ in run], scale), read([b for _, b in run], scale)
        for k, (a, b) in enumerate(run):
            want = ghost_surpasses(a, b)
            assert ghost_surpasses_ints([am[k]], [ag[k]], [bm[k]], [bg[k]]) is want, (a, b)
            order = None if None in (am[k], bm[k]) else (am[k] > bm[k]) - (am[k] < bm[k])
            seen.add((a.kind, b.kind, order, want))
        want = all(ghost_surpasses(a, b) for a, b in run)
        assert ghost_surpasses_ints(am, ag, bm, bg) is want, run
    finite = [(ka, kb, order) for ka in (1, 2) for kb in (1, 2) for order in (-1, 0, 1)]
    cases = finite + [(0, 0, None), (0, 1, None), (0, 2, None), (1, 0, None), (2, 0, None)]
    assert {case[:3] for case in seen} == set(cases)
    assert {True, False} == {case[3] for case in seen}
    assert scales == {1, 2, 3, 6}


def test_the_int_form_reads_and_builds_the_same_scalars():
    """read_ints, then elements_of or element_of by element_of, gives back
    the same scalars, kind, value and value type, on tie-heavy runs: few
    values over denominators 1, 2, 3 and 6, ghosts, -inf and an int past
    the int-to-str digit limit.  The read is the view of the 1 x k matrix
    of the same scalars, and one elements_of call makes exactly one object
    per distinct (magnitude, ghost) pair."""
    rng = random.Random(33)
    big = 10 ** 4300
    values = [Fraction(p, q) for p in (-1, 0, 1, 2) for q in (1, 2, 3, 6)] + [big, -big]

    def draw():
        r = rng.randrange(4)
        return NEG_INF if r == 0 else (ghost if r == 1 else tangible)(rng.choice(values))

    scales, kinds, types, shared = set(), set(), set(), 0
    for _ in range(400):
        es = [draw() for _ in range(rng.randint(1, 8))]
        mag, gh, scale = read_ints(es)
        assert (mag, gh, scale) == Matrix(1, len(es), es)._view
        built = elements_of(mag, gh, scale)
        assert [typed_element(e) for e in built] == [typed_element(e) for e in es]
        assert [typed_element(element_of(m, g, scale)) for m, g in zip(mag, gh)] == \
            [typed_element(e) for e in es]
        objects = {}
        for m, g, e in zip(mag, gh, built):
            if m is not None:
                objects.setdefault((m, g), set()).add(id(e))
        assert all(len(ids) == 1 for ids in objects.values())
        assert len({id(e) for e in built if not e.is_neg_inf}) == len(objects)
        shared += len(objects) < sum(m is not None for m in mag)
        scales.add(scale)
        kinds.update(e.kind for e in es)
        types.update(type(e.value) for e in es)
    assert scales == {1, 2, 3, 6} and len(kinds) == 3 and shared > 80
    assert types == {int, Fraction, type(None)}
    assert read_ints([tangible(big), ghost(-big)]) == ((big, -big), (False, True), 1)


def test_nu_equiv_cases():
    assert nu_equiv(tangible(3), ghost(3))
    assert nu_equiv(NEG_INF, NEG_INF)
    assert not nu_equiv(tangible(2), tangible(3))
    assert not nu_equiv(NEG_INF, ghost(0))


# -- inverses and roots -----------------------------------------------------------


def test_invert():
    assert invert(tangible(6)) == tangible(-6)
    assert invert(ONE) == ONE
    assert mul(tangible(6), invert(tangible(6))) == ONE
    with pytest.raises(NotInvertibleError):
        invert(ghost(3))
    with pytest.raises(NotInvertibleError):
        invert(NEG_INF)
    with pytest.raises(ValueError, match="use invert"):
        power(tangible(6), -1)


def test_kth_root():
    assert kth_root(tangible(6), 2) == tangible(3)
    half = kth_root(tangible(-3), 2)
    assert mul(half, half) == tangible(-3)
    assert half == tangible(Fraction(-3, 2))
    assert kth_root(NEG_INF, 5) == NEG_INF
    assert kth_root(ghost(4), 2) == ghost(2)
    with pytest.raises(ValueError):
        kth_root(tangible(6), 0)


@given(rationals, st.integers(min_value=1, max_value=6))
def test_rational_is_the_canonical_quotient(q, den):
    """An int exactly when the quotient is integral, for int and Fraction
    numerators alike."""
    for num in (q, q.numerator, q * den):
        got = rational(num, den)
        assert got == Fraction(num) / den
        assert type(got) is (int if (Fraction(num) / den).denominator == 1 else Fraction)
    assert type(rational(Fraction(3, 2) + Fraction(1, 2), 2)) is int


@given(rationals, st.integers(min_value=1, max_value=6))
def test_root_inverts_power(q, k):
    a = tangible(q)
    assert power(kth_root(a, k), k) == a
    assert kth_root(power(a, k), k) == a


# -- text grammar -------------------------------------------------------------------


@pytest.mark.parametrize("text", ["3", "-1/2", "5g", "-inf", "0", "-7/3g", "10"])
def test_parse_format_round_trip(text):
    assert format_scalar(parse_scalar(text)) == text


@given(elements)
def test_format_parse_identity(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize("make", [tangible, ghost])
@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_or_float_value_is_refused(make, flag):
    """A bool or a float is no exact rational: tangible and ghost refuse
    both with TypeError, even a float that holds its value exactly.  An
    int, a Fraction and a decimal string are kept, in canonical form."""
    for bad in (flag, float(flag), 0.1, float("nan")):
        with pytest.raises(TypeError):
            make(bad)
    a = make(int(flag))
    assert type(a.value) is int and a.value == flag
    assert parse_scalar(format_scalar(a)) == a
    for value, want in ((Fraction(4, 2), 2), ("0.1", Fraction(1, 10)), ("-3/6", Fraction(-1, 2))):
        assert typed_element(make(value)) == typed_element(make(want))


@pytest.mark.parametrize("kind, value", [
    (7, 1), (-1, None), (0, 3), (0, Fraction(1, 2)), (1, None), (2, None),
    (1, 0.5), (2, 2.0), (1, True), (2, False), (1, "1/2")])
def test_element_refuses_a_malformed_scalar(kind, value):
    """The constructor refuses, with TypeError, a kind other than -inf (0),
    tangible (1) and ghost (2), a value at -inf, and at a finite kind a
    value that is not an int or a Fraction: a Matrix would otherwise read
    Element(7, 1) or Element(0, 3) as tangible 1 or 3, and Element(1, None)
    as -inf."""
    with pytest.raises(TypeError, match="not a supertropical scalar"):
        Element(kind, value)


def test_format_refuses_a_value_past_the_int_digit_limit():
    from supertrop import SupertropicalError

    for a in (tangible(10 ** 4300), ghost(-(10 ** 4300)), tangible(Fraction(1, 10 ** 4300))):
        with pytest.raises(SupertropicalError, match="digit limit"):
            format_scalar(a)
    assert format_scalar(ghost(10 ** 4299)) == "1" + "0" * 4299 + "g"


def test_repr_past_the_int_digit_limit_gives_a_digit_count():
    """repr never raises: past the digit limit it names the kind and counts
    the digits; below it, it is the scalar text."""
    assert repr(tangible(10 ** 4300)) == "Element(tangible, 4301 digits)"
    assert repr(tangible(Fraction(7, 10 ** 4300))) == "Element(tangible, 1/4301 digits)"
    assert repr(ghost(Fraction(-(10 ** 5000), 3))) == "Element(ghost, 5001/1 digits)"
    assert repr(ghost(10 ** 4299)) == f"Element({'1' + '0' * 4299 + 'g'!r})"
    assert repr(NEG_INF) == "Element('-inf')"


def test_parse_normalizes():
    assert parse_scalar("4/2") == tangible(2)
    assert format_scalar(parse_scalar("4/2")) == "2"


@pytest.mark.parametrize("bad", ["", "x", "3.5", "1/0", "inf", "--2", "3 g", "g", "３", "١/٢",
                                 pytest.param("1" * 5000, id="5000-digits")])
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_structural_equality_is_semantic():
    assert tangible("2/4") == tangible(Fraction(1, 2))
    assert hash(tangible(6)) == hash(Element(1, Fraction(6, 1)))
    assert tangible(3) != ghost(3)


def test_elements_are_immutable():
    """Assigning or deleting `kind` or `value` raises, so the shared NEG_INF
    and ONE, and every entry a matrix read shares, keep their values.  A
    polynomial refuses to assign or delete `coeffs` too, so a set or dict
    that holds it still finds it."""
    for e in (NEG_INF, ONE, ghost(Fraction(-1, 2))):
        for name in ("kind", "value", "other"):
            with pytest.raises(AttributeError):
                setattr(e, name, 7)
            with pytest.raises(AttributeError):
                delattr(e, name)
    assert (NEG_INF.kind, NEG_INF.value, ONE.kind, ONE.value) == (0, None, 1, 0)
    assert format_scalar(NEG_INF) == "-inf" and format_scalar(ONE) == "0"
    f = Polynomial([ghost(1), NEG_INF, ONE])
    held = {f}
    for name, value in (("coeffs", (tangible(1),)), ("coeffs", [ONE]), ("other", 7)):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
        with pytest.raises(AttributeError):
            delattr(f, name)
    assert f.coeffs == (ghost(1), NEG_INF, ONE) and f in held
