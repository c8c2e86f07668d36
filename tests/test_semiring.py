"""Scalar arithmetic, order relations, and the text grammar."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supertrop import (
    NEG_INF,
    ONE,
    Element,
    NotInvertibleError,
    ParseError,
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
from supertrop.semiring import rational

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


def test_kth_root():
    assert kth_root(tangible(6), 2) == tangible(3)
    half = kth_root(tangible(-3), 2)
    assert mul(half, half) == tangible(-3)
    assert half == tangible(Fraction(-3, 2))
    assert kth_root(NEG_INF, 5) == NEG_INF
    assert kth_root(ghost(4), 2) == ghost(2)


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
def test_a_bool_value_is_stored_as_an_int(make, flag):
    a = make(flag)
    assert type(a.value) is int and a == make(int(flag))
    assert parse_scalar(format_scalar(a)) == a


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
    and ONE, and every entry a matrix read shares, keep their values."""
    for e in (NEG_INF, ONE, ghost(Fraction(-1, 2))):
        for name in ("kind", "value", "other"):
            with pytest.raises(AttributeError):
                setattr(e, name, 7)
            with pytest.raises(AttributeError):
                delattr(e, name)
    assert (NEG_INF.kind, NEG_INF.value, ONE.kind, ONE.value) == (0, None, 1, 0)
    assert format_scalar(NEG_INF) == "-inf" and format_scalar(ONE) == "0"
