"""Scalars of the supertropical semiring over exact rationals.

The carrier is T ∪ G ∪ {-inf}: tangible rationals T, their ghost copies G,
and -inf.  Addition is max, where a tie ghostifies the result (a + a = a^g);
multiplication is ordinary rational addition, with ghosts forming an ideal
and -inf absorbing.  Tangible 0 is the multiplicative unit, -inf the
additive one.

Values are exact rationals in canonical form: structural equality of
elements coincides with semantic equality, and ghostification is decided by
exact ties.  Integral values are stored as `int` and everything else as
`fractions.Fraction` (the two interoperate and hash alike, so this is purely
a fast path).  Elements are immutable and hashable: assigning or deleting
an attribute raises, so the shared NEG_INF and ONE, and the entries that
one read of a matrix shares, cannot be changed by any holder.  That
refusal is one base class, Immutable, which Element, maxpoly.Polynomial
and tropmat.Matrix share; each builds itself through its slots' own
setters.

Below the Element API a scalar has one int form: a magnitude, the value
times a positive int scale shared by every scalar read together (None for
-inf), and a ghost flag (never set at -inf).  A tropmat.Matrix view, every
kernel and the maxpoly map functions all hold scalars so, and
ghost_surpasses_ints is ghost_surpasses on that form.  This module is the
one codec between Elements and that form: read_ints reads scalars onto
their least common denominator, element_of builds one scalar back and
elements_of a list of them, one Element per distinct (magnitude, ghost)
pair.  No other module converts an Element to ints or ints to an Element.
tangible and ghost take an int, a Fraction or a decimal string; a float or
a bool is no exact rational, and each raises TypeError.  The Element
constructor raises TypeError too, on a kind other than the three and on
a value that does not fit its kind (see Element), so no reader of the
int form meets a scalar it would misread.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import NotInvertibleError, ParseError, SupertropicalError

# Element kinds.
NEG_INF_KIND = 0
TANGIBLE_KIND = 1
GHOST_KIND = 2

Rational = int | Fraction
# The value types of a finite Element; type(True) is bool, so no bool is one.
_FINITE_TYPES = frozenset((int, Fraction))
_RationalLike = int | str | Fraction


def _canon(q: Fraction) -> Rational:
    return q.numerator if q.denominator == 1 else q


def rational(num: Rational, den: int) -> Rational:
    """num / den in canonical form: an int when the quotient is integral,
    a Fraction otherwise."""
    if type(num) is int:
        return num // den if num % den == 0 else Fraction(num, den)
    return _canon(Fraction(num, den))


class Immutable:
    """Base of the package's values: once built, no attribute of one can be
    assigned or deleted.  A subclass sets its slots through their own
    setters (`Cls.slot.__set__`), which go around this refusal."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Element(Immutable):
    """One supertropical scalar: -inf, a tangible rational, or a ghost
    rational; immutable: once built, no attribute can be assigned or
    deleted.  The constructor refuses, with TypeError, a kind other than
    the three, a value other than None at -inf, and at a finite kind a
    value that is not an int or a Fraction (a bool is no int here)."""

    __slots__ = ("kind", "value")

    kind: int
    value: Rational | None

    def __init__(self, kind: int, value: Rational | None):
        if (type(value) not in _FINITE_TYPES if kind == TANGIBLE_KIND or kind == GHOST_KIND
                else kind != NEG_INF_KIND or value is not None):
            raise TypeError(f"not a supertropical scalar: kind {kind!r}, "
                            f"value of type {type(value).__name__}")
        _set_kind(self, kind)
        _set_value(self, value)

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild the scalar through its constructor:
        # restoring its slots one by one would go through __setattr__.
        # Protocols 0 and 1 write the value's ints as decimal text, so they
        # refuse one past the int-to-str digit limit (ValueError); 2 and up
        # do not.
        return Element, (self.kind, self.value)

    # -- predicates ---------------------------------------------------------

    @property
    def is_neg_inf(self) -> bool:
        return self.kind == NEG_INF_KIND

    @property
    def is_tangible(self) -> bool:
        return self.kind == TANGIBLE_KIND

    @property
    def is_ghost(self) -> bool:
        return self.kind == GHOST_KIND

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __mul__(self, other: "Element") -> "Element":
        return mul(self, other)

    def __pow__(self, k: int) -> "Element":
        return power(self, k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def __repr__(self) -> str:
        try:
            return f"Element({format_scalar(self)!r})"
        except SupertropicalError:  # past the int-to-str digit limit
            v = self.value
            size = (f"{_digits(v)}" if type(v) is int
                    else f"{_digits(v.numerator)}/{_digits(v.denominator)}")
            kind = "ghost" if self.kind == GHOST_KIND else "tangible"
            return f"Element({kind}, {size} digits)"

    def __str__(self) -> str:
        return format_scalar(self)


# The constructor goes around Element's refusal of assignment through the
# slots' own setters.
_set_kind, _set_value = Element.kind.__set__, Element.value.__set__

NEG_INF = Element(NEG_INF_KIND, None)
ONE = Element(TANGIBLE_KIND, 0)


def _exact(value: _RationalLike) -> Rational:
    """value as a canonical rational: an int, a Fraction or a decimal
    string.  A float or a bool raises TypeError: neither is an exact
    rational here."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"expected an int, a Fraction or a decimal string, got {value!r}")
    return value if type(value) is int else _canon(Fraction(value))


def tangible(value: _RationalLike) -> Element:
    return Element(TANGIBLE_KIND, _exact(value))


def ghost(value: _RationalLike) -> Element:
    return Element(GHOST_KIND, _exact(value))


def add(a: Element, b: Element) -> Element:
    """Supertropical sum: the magnitude-larger argument; ties ghostify."""
    if a.kind == NEG_INF_KIND:
        return b
    if b.kind == NEG_INF_KIND:
        return a
    if a.value > b.value:
        return a
    if b.value > a.value:
        return b
    # Equal magnitudes: the sum is the ghost of that value.
    if a.kind == GHOST_KIND:
        return a
    if b.kind == GHOST_KIND:
        return b
    return Element(GHOST_KIND, a.value)


def mul(a: Element, b: Element) -> Element:
    """Supertropical product: magnitudes add; ghosts are an ideal; -inf absorbs."""
    if a.kind == NEG_INF_KIND or b.kind == NEG_INF_KIND:
        return NEG_INF
    kind = GHOST_KIND if (a.kind == GHOST_KIND or b.kind == GHOST_KIND) else TANGIBLE_KIND
    v = a.value + b.value
    return Element(kind, _canon(v) if type(v) is Fraction else v)


def power(a: Element, k: int) -> Element:
    """k-th multiplicative power, k >= 0; a^0 is the unit (tangible 0)."""
    if k < 0:
        raise ValueError("power expects a non-negative exponent; use invert for inverses")
    if k == 0:
        return ONE
    if a.kind == NEG_INF_KIND:
        return NEG_INF
    v = a.value * k
    return Element(a.kind, _canon(v) if type(v) is Fraction else v)


def to_ghost(a: Element) -> Element:
    """Project onto the ghost copy (fixes -inf)."""
    if a.kind == TANGIBLE_KIND:
        return Element(GHOST_KIND, a.value)
    return a


def to_tangible(a: Element) -> Element:
    """Pick the tangible representative of the magnitude (fixes -inf)."""
    if a.kind == GHOST_KIND:
        return Element(TANGIBLE_KIND, a.value)
    return a


def ghost_surpasses(a: Element, b: Element) -> bool:
    """True iff a equals b plus some ghost; the order replacing equality here.

    Concretely: a == b, or a is a ghost whose magnitude is >= that of b
    (-inf is surpassed by every ghost).
    """
    if a.kind == b.kind and a.value == b.value:
        return True
    if a.kind != GHOST_KIND:
        return False
    if b.kind == NEG_INF_KIND:
        return True
    return a.value >= b.value


def ghost_surpasses_ints(am: Sequence, ag: Sequence, bm: Sequence, bg: Sequence) -> bool:
    """True iff, at every index k, the scalar of magnitude am[k] and ghost
    flag ag[k] ghost-surpasses the scalar of bm[k] and bg[k]: the two
    scalars are equal, or the first is a ghost at least the second's
    magnitude (or the second is -inf).

    Magnitudes are ints on one scale, None for -inf, and no ghost flag is
    set at -inf, as in a tropmat.Matrix view: then a ghost is finite, and a
    tangible or -inf scalar surpasses only the scalar it equals.
    """
    return all((y is None or x >= y) if gx else x == y and not gy
               for x, gx, y, gy in zip(am, ag, bm, bg))


def read_ints(scalars: Iterable[Element]) -> tuple[tuple, tuple, int]:
    """The int form of scalars: their magnitudes (None for -inf) and their
    ghost flags, as two tuples, on their least common denominator, and that
    scale.  element_of and elements_of build the scalars back."""
    es = tuple(scalars)
    scale = lcm(*{e.value.denominator for e in es if type(e.value) is Fraction})
    return (tuple([None if (v := e.value) is None else v * scale if type(v) is int
                   else v.numerator * (scale // v.denominator) for e in es]),
            tuple([e.kind == GHOST_KIND for e in es]), scale)


def element_of(m: int | None, g: bool, scale: int) -> Element:
    """The scalar of magnitude m on scale (None for -inf) and ghost flag g."""
    if m is None:
        return NEG_INF
    return Element(GHOST_KIND if g else TANGIBLE_KIND, m if scale == 1 else rational(m, scale))


def elements_of(mag: Sequence, gh: Sequence, scale: int) -> list[Element]:
    """The scalars of magnitudes mag on scale and ghost flags gh, as
    element_of builds them one by one, except that each distinct (magnitude,
    ghost) pair becomes one Element, shared by every scalar that holds it:
    a value's Fraction is built once per call."""
    built: dict = {}
    out = []
    for m, g in zip(mag, gh):
        if m is None:
            out.append(NEG_INF)
            continue
        key = m + m + g  # one int per (magnitude, ghost) pair
        e = built.get(key)
        if e is None:
            e = built[key] = Element(GHOST_KIND if g else TANGIBLE_KIND, rational(m, scale))
        out.append(e)
    return out


def nu_equiv(a: Element, b: Element) -> bool:
    """True iff a and b have the same magnitude (equality after ghost projection)."""
    if a.kind == NEG_INF_KIND or b.kind == NEG_INF_KIND:
        return a.kind == b.kind
    return a.value == b.value


def invert(a: Element) -> Element:
    """Multiplicative inverse; only tangible scalars are invertible."""
    if a.kind != TANGIBLE_KIND:
        raise NotInvertibleError(f"{a} is not invertible (only tangible scalars are)")
    return Element(TANGIBLE_KIND, -a.value)


def kth_root(a: Element, k: int) -> Element:
    """The unique k-th root: same kind, magnitude divided by k (k >= 1)."""
    if k < 1:
        raise ValueError("kth_root expects k >= 1")
    if a.kind == NEG_INF_KIND:
        return NEG_INF
    return Element(a.kind, rational(a.value, k))


# -- text form ---------------------------------------------------------------
#
# Grammar:  '-inf'  |  RATIONAL  |  RATIONAL 'g'
# where RATIONAL is an optional '-', ASCII digits, and an optional '/' digits
# part.
# parse_scalar(format_scalar(e)) == e, bit-exact.

_SCALAR_RE = re.compile(r"^(-?[0-9]+(?:/[0-9]+)?)(g?)$")


def parse_scalar(text: str) -> Element:
    s = text.strip()
    if s == "-inf":
        return NEG_INF
    m = _SCALAR_RE.match(s)
    if m is None:
        raise ParseError(f"bad scalar {text!r}: expected '-inf' or a rational like '3', '-1/2', '5g'")
    try:
        value = _canon(Fraction(m.group(1)))
    except ZeroDivisionError:
        raise ParseError(f"bad scalar {text!r}: zero denominator") from None
    except ValueError as exc:  # more digits than int conversion allows
        raise ParseError(f"bad scalar: {exc}") from None
    kind = GHOST_KIND if m.group(2) else TANGIBLE_KIND
    return Element(kind, value)


def _digits(k: int) -> int:
    """The number of decimal digits of |k|, without int-to-str conversion."""
    k = abs(k)
    d = max(1, (k.bit_length() - 1) * 30102 // 100000 + 1)  # a lower bound: 0.30102 < log10 2
    while k >= 10 ** d:
        d += 1
    return d


def format_scalar(a: Element) -> str:
    if a.kind == NEG_INF_KIND:
        return "-inf"
    try:
        text = str(a.value)
    except ValueError:  # more digits than int-to-str conversion allows
        raise SupertropicalError("cannot print a value past the int-to-str digit limit") from None
    return text + "g" if a.kind == GHOST_KIND else text
