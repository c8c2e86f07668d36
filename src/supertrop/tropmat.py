"""Matrices over the supertropical semiring.

The determinant here is the tropical permanent: the supertropical sum over
all permutation tracks, so a maximum attained twice (or through a ghost
entry) comes out ghost.  It is computed exactly, as a fold over column
subsets (the Bellman / Held-Karp dynamic program) instead of an enumeration
of the n! tracks: the semiring is commutative and `add` keeps every tie and
every ghost, so grouping tracks by the columns their first rows use loses
nothing.  Each fold fills one flat table indexed by column-set key, as a
list of magnitudes and a list of ghost flags, so the fold allocates no
container per state or per layer.  The same fold gives the adjoint and the
pseudo-inverse (the forward and the backward table joined slot by slot; the
pseudo-inverse reads det from the forward table), the dominant track of a
definite form (backtracked over the table that gave its determinant) and
the characteristic polynomial (the fold of xI + A, whose x-free part is
A's forward table, continued into the degrees of x above 0, kept in the
key bits above the columns).  Definiteness is decided without the
fold, by the cycle test of a Floyd-Warshall closure (n^3 instead of 2^n)
that starts from A's tangible-0 diagonal and keeps a ghost flag beside
each magnitude.  For a definite matrix the kept closure holds the
adjoint's minors, ghosts included, and its magnitudes are the Kleene
star, so none of the three folds: one private function, _minors, gives
the adjoint and the pseudo-inverse their minors from that closure, from
a kept adjoint or from the fold, and each builds its own result from
them.  All of these, the matrix product and the power routine
`power_sum` (the sum of c_i A^i behind `mat_pow` and
`spectral.eval_at_matrix`, one product step per further power) work on
magnitudes scaled to ints by the common denominator of the matrices and
coefficients they read, so ties are exact integer ties and no Fraction
is added or compared inside a kernel, a product or a power sum.
A matrix is its ints: its view holds its magnitudes (None for -inf),
ghost flags (false at -inf) and their scale, the package's one int form
of a scalar (see semiring), so mat_ghost_surpasses is
semiring.ghost_surpasses_ints on two views.  The scale is the least
common denominator of its entries, set once when it is built.  So two matrices
of one shape have equal entries exactly when their views are equal, and
equality and hashing read the view.  Every kernel result, and each
law-check draw, is built from its ints (Matrix.from_ints); a matrix built
from Elements reads them onto its view (semiring.read_ints) and keeps none
of them.  Its Elements are built when read and not kept, by semiring's
element_of and elements_of: each read of `entries` builds each distinct
(magnitude, ghost) pair once, shared by the entries that hold it.  This
module converts no Element itself.  Every kernel, a product and the
comparisons mat_nu_equiv, mat_ghost_surpasses and is_ghost_matrix read
the view, so a chain of kernels builds no Element it is not asked for.  There is no floating
point.  An exact assignment solve on the same ints would also decide
ties: one optimal track gives det's magnitude, and a second one exists
exactly when A, rescaled onto that track, fails the closure's cycle
test.  The fold is kept at the orders the kernels accept (n <= 16)
because one table serves the determinant, the adjoint, the
pseudo-inverse, the definite form's track and, continued into the
degrees of x, the characteristic coefficients, and up to n = 6 a prototype solve
was no faster.  ROADMAP.md, open item 2, has the numbers
and plans the solve above a measured crossover order.

A Matrix is immutable and every kernel result is a pure function of it, so
each result is kept on the matrix, in its private memo, by the first kernel
that computes it: det (written by the first forward fold of A, which the
characteristic polynomial reads as its coefficient 0, or, as tangible 0,
by the closure of a definite matrix), the adjoint, the pseudo-inverse (the kept
adjoint rescaled by the kept det, when the adjoint is held), the
characteristic polynomial and the definiteness closure.  Each kept result
is immutable, so the kept object itself is returned: char_poly, which
spectral re-exports, builds its Polynomial once and returns that one on
every call.  So det, adj, A^inv, f_A and the eigenvalues of one matrix
cost one fold each, and adj and A^inv of a definite matrix none.  The memo keeps returned results and
O(n^2) ints only, never a 2^n fold table.  So a Matrix refuses every
attribute assignment after construction: were its entries changed, the
memo would answer for the old ones.

One private function, _forward, gives every kernel its forward fold of A
and keeps det from it.  It alone reads and writes one private slot,
keyed by the identity of its matrix, and reads it once: when the slot
holds A's fold, that fold is used; otherwise the slot is emptied and A's
rows are folded now, and that fold is left in the slot.  So while the
slot holds A's fold, none of determinant, adjugate, pseudo_inverse,
definite_form and char_poly folds A forward again: the adjoint and the
pseudo-inverse fold only backward over the slot's table, definite_form
backtracks over it and char_poly extends it.  char_poly alone leaves a
fold it made out of the slot, since it only extends that table.  So any
fold of another matrix empties the slot first, and at most one 2^n table
outlives its fold.

_fold has two callers, each the permanent of a kernel: _forward (A's
rows) and the backward fold in _minors (A's rows reversed); char_poly
alone continues A's forward fold with _x_fold.  No check folds.
definite_form builds its factors from A's view and verifies them on
their scaled ints, not on a product of Elements, and in O(n^2) past the
fold and the closure: the conductor's shape makes each entry of the
product one term, and the product, the closure's cycle test and that
shape imply that the conductor carries det(A).
pseudo_identity_class reads its class from the pattern and idempotence
alone, so it folds nothing and has no size cap.  Both proofs are in
their docstrings.
"""

from __future__ import annotations

import enum
import json
from itertools import compress
from math import gcd, lcm
from types import NoneType
from typing import Callable, Iterable, Literal, Sequence

from .errors import (
    BadIndicesError,
    DimensionMismatchError,
    NotDefiniteError,
    NotInvertibleError,
    NotNonSingularError,
    ParseError,
    SizeCapExceededError,
    StrictlySingularError,
    SupertropicalError,
    VerificationError,
)
from .maxpoly import Polynomial
from .semiring import (
    GHOST_KIND,
    NEG_INF,
    NEG_INF_KIND,
    ONE,
    TANGIBLE_KIND,
    Element,
    Immutable,
    add,
    element_of,
    elements_of,
    format_scalar,
    ghost_surpasses_ints,
    mul,
    parse_scalar,
    read_ints,
    to_tangible,
)

DEFAULT_DET_CAP = 16
# The types a view holds: Matrix.from_ints refuses any other.
_INT_OR_NONE, _BOOL = frozenset((int, NoneType)), frozenset((bool,))


class SingularityClass(enum.Enum):
    NON_SINGULAR = "non_singular"          # det tangible
    SINGULAR = "singular"                  # det ghost
    STRICTLY_SINGULAR = "strictly_singular"  # det = -inf


class PseudoIdentityClass(enum.Enum):
    PSEUDO_IDENTITY = "pseudo_identity"
    GHOST_PSEUDO_IDENTITY = "ghost_pseudo_identity"
    NEITHER = "neither"


class Matrix(Immutable):
    """Dense row-major matrix of supertropical scalars; immutable: once
    built, no attribute can be assigned or deleted.  A matrix is its view
    (magnitudes, ghost flags and scale, see the module docstring), set
    once when it is built and read by every kernel; built from Elements,
    it reads them onto that view and keeps none of them.  `entries`, `at`
    and `row` build the Elements they return on each read, and none is
    kept.  `_memo` keeps the kernels' results (see the module docstring);
    it is None until a kernel first writes to it.  Two matrices are equal
    exactly when their shapes and views are, so equality and hashing read
    those and build no Element; printing reads `entries`."""

    __slots__ = ("rows", "cols", "_view", "_memo")

    rows: int
    cols: int
    _view: tuple[tuple, tuple, int]
    _memo: dict | None

    def __init__(self, rows: int, cols: int, entries: Iterable[Element]):
        _init(self, rows, cols, read_ints(entries))

    @classmethod
    def from_ints(cls, rows: int, cols: int, mag: Sequence, gh: Sequence, scale: int) -> "Matrix":
        """The matrix whose entry k (row-major) is -inf where mag[k] is
        None, else mag[k] / scale, ghost where gh[k] is true.  Its view is
        these ints, moved onto the least common denominator of its entries,
        so it is the view of the same entries built from Elements.  A
        magnitude that is not an int or None (a bool or a float among
        them), a ghost flag that is not a bool, a ghost flag where mag[k]
        is None (a ghost -inf), a scale other than a positive int and a
        shape that is not an int each raise ValueError.  No Element is
        built."""
        mag, gh = tuple(mag), tuple(gh)
        if len(gh) != len(mag):
            raise DimensionMismatchError(f"{len(mag)} magnitudes but {len(gh)} ghost flags")
        if not (_INT_OR_NONE.issuperset(map(type, mag)) and _BOOL.issuperset(map(type, gh))):
            raise ValueError("magnitudes must be ints or None, and ghost flags bools")
        if None in compress(mag, gh):  # the magnitudes whose ghost flag is set
            raise ValueError("a ghost flag is set on a -inf entry")
        if type(scale) is not int or scale < 1:
            raise ValueError(f"scale must be a positive int, got {scale!r}")
        if scale != 1:
            g = gcd(scale, *[m for m in mag if m is not None])
            if g != 1:
                mag, scale = tuple([None if m is None else m // g for m in mag]), scale // g
        a = cls.__new__(cls)
        _init(a, rows, cols, (mag, gh, scale))
        return a

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild the matrix from its view: restoring its
        # slots one by one would go through __setattr__, which refuses.
        # Protocols 0 and 1 write the view's ints as decimal text, so they
        # refuse one past the int-to-str digit limit (ValueError); 2 and up
        # do not.
        return Matrix.from_ints, (self.rows, self.cols, *self._view)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Element]]) -> "Matrix":
        if not rows or not rows[0]:
            raise DimensionMismatchError("matrix needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionMismatchError("ragged rows")
        return cls(len(rows), ncols, (e for r in rows for e in r))

    @property
    def entries(self) -> tuple[Element, ...]:
        return tuple(elements_of(*self._view))

    def at(self, i: int, j: int) -> Element:
        mag, gh, scale = self._view
        k = i * self.cols + j
        return element_of(mag[k], gh[k], scale)

    def row(self, i: int) -> tuple[Element, ...]:
        mag, gh, scale = self._view
        lo, hi = i * self.cols, (i + 1) * self.cols
        return tuple(elements_of(mag[lo:hi], gh[lo:hi], scale))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_rows(self) -> list[list[Element]]:
        es, cols = self.entries, self.cols
        return [list(es[k:k + cols]) for k in range(0, len(es), cols)]

    def map(self, fn: Callable[[Element], Element]) -> "Matrix":
        return Matrix(self.rows, self.cols, (fn(e) for e in self.entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self._view) == (other.rows, other.cols, other._view)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._view))

    def __repr__(self) -> str:
        try:
            text = format_matrix(self)
        except SupertropicalError:  # an entry past the int-to-str digit limit
            text = "; ".join(" ".join(repr(e) for e in row) for row in self.to_rows())
        return f"Matrix({self.rows}x{self.cols}: {text})"


# The constructors and the memo's first write go around Matrix's refusal of
# assignment through the slots' own setters, at half the cost of
# object.__setattr__.
_set_rows, _set_cols, _set_view, _set_memo = (
    Matrix.rows.__set__, Matrix.cols.__set__, Matrix._view.__set__, Matrix._memo.__set__)


def _init(a: Matrix, rows: int, cols: int, view: tuple[tuple, tuple, int]) -> None:
    """Give a new matrix its shape, its view and an empty memo.  A shape
    that is not an int (a bool or a float among them) raises ValueError."""
    if type(rows) is not int or type(cols) is not int:
        raise ValueError(f"matrix dimensions must be ints, got {rows!r}x{cols!r}")
    if rows < 1 or cols < 1:
        raise DimensionMismatchError("matrix dimensions must be positive")
    size = len(view[0])
    if size != rows * cols:
        raise DimensionMismatchError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {size}")
    _set_rows(a, rows)
    _set_cols(a, cols)
    _set_view(a, view)
    _set_memo(a, None)


def format_matrix(a: Matrix) -> str:
    """Rows joined by '; ', entries in the scalar grammar joined by spaces."""
    return "; ".join(" ".join(format_scalar(e) for e in row) for row in a.to_rows())


def identity(n: int) -> Matrix:
    return Matrix(n, n, (ONE if i == j else NEG_INF for i in range(n) for j in range(n)))


def diag(values: Sequence[Element]) -> Matrix:
    n = len(values)
    return Matrix(n, n, (values[i] if i == j else NEG_INF for i in range(n) for j in range(n)))


def neg_inf_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, (NEG_INF for _ in range(rows * cols)))


def require_square(a: Matrix) -> None:
    if not a.is_square:
        raise DimensionMismatchError(f"expected a square matrix, got {a.rows}x{a.cols}")


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatchError("entrywise sum needs equal shapes")
    return Matrix(a.rows, a.cols, (add(x, y) for x, y in zip(a.entries, b.entries)))


# -- views and scaled rows ------------------------------------------------------
#
# A matrix's view is its flat row-major ints: magnitudes (None for -inf)
# and ghost flags, as tuples, with their scale, as semiring.read_ints reads
# any scalars; power_sum reads its coefficients so.  Products read a matrix
# as rows of its finite entries, (column, magnitude, ghost); kernels read
# it as the kernel rows below.  Views read together are moved onto their
# common scale (_flat), so ties are exact integer ties and no Fraction is
# added.  A result is two flat row-major lists, magnitudes and ghost flags,
# that Matrix.from_ints takes as its view.


def _ints(view: tuple[tuple, tuple, int], scale: int) -> tuple[tuple, tuple]:
    """A view's magnitudes moved onto scale, a multiple of its own, and its
    ghost flags."""
    mag, gh, own = view
    if own != scale:
        mag = tuple([None if m is None else m * (scale // own) for m in mag])
    return mag, gh


def _flat(*views: tuple[tuple, tuple, int]) -> tuple[list[tuple[tuple, tuple]], int]:
    """Views (magnitudes, ghost flags and scale) on their common scale, and
    that scale."""
    scale = lcm(*[v[2] for v in views])
    return [_ints(v, scale) for v in views], scale


def _rows_of(mag: Sequence, gh: Sequence, cols: int) -> list[list[tuple]]:
    """The scaled rows of flat magnitudes and ghost flags with `cols` columns."""
    js = range(cols)
    return [[(j, m, g) for j, m, g in zip(js, mag[base:base + cols], gh[base:base + cols])
             if m is not None] for base in range(0, len(mag), cols)]


def _product(arows: list[list[tuple]], brows: list[list[tuple]], cols: int) -> tuple[list, list]:
    """The product of two matrices given as scaled rows on one scale, as a
    flat result (magnitudes and ghost flags, row-major).

    Row i of A is accumulated over its finite entries only, each times the
    finite entries of the matching row of B: the larger magnitude wins and
    a tie gives a ghost.
    """
    size = len(arows) * cols
    mag: list = [None] * size
    gh = [False] * size
    base = 0
    for arow in arows:
        for k, m, g in arow:
            for j, w, wg in brows[k]:
                v = m + w
                at = base + j
                cur = mag[at]
                if cur is None or v > cur:
                    mag[at] = v
                    gh[at] = g or wg
                elif v == cur:
                    gh[at] = True
        base += cols
    return mag, gh


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product AB: entry (i, j) is the supertropical sum of a_ik b_kj,
    one product step on the views of both factors."""
    if a.cols != b.rows:
        raise DimensionMismatchError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    [fa, fb], scale = _flat(a._view, b._view)
    return Matrix.from_ints(a.rows, b.cols, *_product(
        _rows_of(*fa, a.cols), _rows_of(*fb, b.cols), b.cols), scale)


def scalar_mul(c: Element, a: Matrix) -> Matrix:
    return a.map(lambda e: mul(c, e))


def power_sum(coeffs: Sequence[Element], a: Matrix) -> Matrix:
    """The supertropical sum of c_i A^i over coeffs = (c_0, c_1, ...), with
    A^0 = I.

    A and the coefficients are read once, on their common denominator, and
    the sum is taken by Horner's rule on the scaled ints: X = c_top A for
    the last finite coefficient c_top, then for i = top - 1, ..., 0 c_i is
    added on X's diagonal and, while i > 0, X becomes X A, one product
    step.  The larger magnitude wins, and a tie, a ghost coefficient or a
    ghost entry gives a ghost.  With c_0 the only finite coefficient the
    sum is c_0 I.  The result is built from its ints.
    """
    require_square(a)
    n = a.rows
    top = max((i for i, c in enumerate(coeffs) if c.kind != NEG_INF_KIND), default=-1)
    if top <= 0:
        return diag([coeffs[0]] * n) if top == 0 else neg_inf_matrix(n, n)
    [(amag, agh), (cmag, cgh)], scale = _flat(a._view, read_ints(coeffs[:top + 1]))
    arows = _rows_of(amag, agh, n)
    c, cg = cmag[top], cgh[top]
    mag = [None if m is None else c + m for m in amag]
    gh = [m is not None and (cg or g) for m, g in zip(amag, agh)]
    for i in range(top - 1, -1, -1):
        c, cg = cmag[i], cgh[i]
        if c is not None:
            for at in range(0, n * n, n + 1):
                cur = mag[at]
                if cur is None or c > cur:
                    mag[at], gh[at] = c, cg
                elif c == cur:
                    gh[at] = True
        if i:
            mag, gh = _product(_rows_of(mag, gh, n), arows, n)
    return Matrix.from_ints(n, n, mag, gh, scale)


def mat_pow(a: Matrix, k: int) -> Matrix:
    """A^k, as the power sum with the one finite coefficient 0 at k; A^0 is
    the identity."""
    require_square(a)
    if k < 0:
        raise ValueError("mat_pow expects k >= 0")
    return power_sum([NEG_INF] * k + [ONE], a)


# -- the permanent kernel -----------------------------------------------------
#
# A kernel row lists the finite entries of one matrix row as
# (column bit, magnitude, ghost), on the scale of that matrix.


def _memo_of(a: Matrix, cap: int = DEFAULT_DET_CAP) -> dict:
    """The memo of a square matrix, made empty on first use.

    This is the one size guard of the kernels: every fold fills 2^n slots
    or more, so a matrix of order n > cap is refused here, before any kept
    result is read and before any fold.
    """
    if a.rows != a.cols or a.rows > cap:
        require_square(a)
        raise SizeCapExceededError(f"subset-fold kernels capped at n <= {cap}, got n = {a.rows}")
    memo = a._memo
    if memo is None:
        memo = {}
        _set_memo(a, memo)
    return memo


def _kernel_rows(a: Matrix) -> tuple[list[list[tuple]], int]:
    """The kernel rows of a square matrix, from its view, and their scale."""
    mag, gh, scale = a._view
    n = a.cols
    bits = [1 << j for j in range(n)]
    return [[(bit, m, g) for bit, m, g in zip(bits, mag[base:base + n], gh[base:base + n])
             if m is not None] for base in range(0, len(mag), n)], scale


def _fold(rows: Sequence[list[tuple]]) -> tuple[list, list]:
    """Subset fold of the permanent over rows[0], rows[1], ...

    Fills one flat table of 2^n slots, as two lists indexed by column set
    key: mag[S] is the scaled magnitude (None for -inf) and gh[S] the ghost
    flag of the supertropical sum over every placement of the first |S|
    rows on the distinct columns S: the permanent of the first |S| rows on
    those columns.  Each layer is the list of keys it reached, in
    first-reached order; keys of different layers never collide, so the
    table holds every layer.
    """
    size = 1 << len(rows)
    mag: list = [None] * size
    gh = [False] * size
    mag[0] = 0
    layer = [0]
    for row in rows:
        nxt = []
        for key in layer:
            m = mag[key]
            g = gh[key]
            for bit, w, wg in row:
                if key & bit:
                    continue
                k = key + bit
                v = m + w
                cur = mag[k]
                if cur is None:
                    mag[k] = v
                    gh[k] = g or wg
                    nxt.append(k)
                elif v > cur:
                    mag[k] = v
                    gh[k] = g or wg
                elif v == cur:
                    gh[k] = True
        layer = nxt
    return mag, gh


# The last forward fold, kept for the next kernel on the same matrix:
# (matrix, kernel rows, scale, mag, gh), or None.  It is keyed by identity,
# so it answers only for the matrix object that made it, and it holds the
# one 2^n table that outlives its fold.  _forward is its only reader and
# writer; it reads the slot once, and a fold of another matrix empties it
# first.
_handoff: tuple | None = None


def _forward(a: Matrix, memo: dict, keep: bool = True) -> tuple[list[list[tuple]], int, list, list]:
    """A's kernel rows, their scale and A's forward fold table (magnitudes
    and ghost flags); det, from the table's full-set slot, is kept in the
    memo when the memo lacks it.

    The slot is read once.  When it holds A's fold, that fold is used;
    otherwise the slot is emptied, so that another matrix's table is freed
    before A is folded, and A's rows are read and folded.  That fold is
    left in the slot for the next kernel on A, unless keep is false:
    char_poly, which reads the table only to extend it, leaves the slot
    empty.
    """
    global _handoff
    slot = _handoff
    if slot is None or slot[0] is not a:
        _handoff = slot = None  # no reference to another matrix's table is left
        rows, scale = _kernel_rows(a)
        slot = (a, rows, scale, *_fold(rows))
        if keep:
            _handoff = slot
    _, rows, scale, mag, gh = slot
    if "det" not in memo:
        full = (1 << a.rows) - 1
        memo["det"] = element_of(mag[full], gh[full], scale)
    return rows, scale, mag, gh


def determinant(a: Matrix, cap: int = DEFAULT_DET_CAP) -> Element:
    """Tropical permanent, by the subset fold over the 2^n column sets
    (n <= cap), or kept from an earlier kernel on the same matrix.

    A fold here (by _forward) leaves A's table (2^n slots) alive in the
    handoff slot, for A's next adjoint, pseudo-inverse or definite form,
    until a kernel folds another matrix.
    """
    memo = _memo_of(a, cap)
    det = memo.get("det")
    if det is None:
        _forward(a, memo)
        det = memo["det"]
    return det


def classify(a: Matrix) -> SingularityClass:
    d = determinant(a)
    if d.kind == TANGIBLE_KIND:
        return SingularityClass.NON_SINGULAR
    if d.kind == GHOST_KIND:
        return SingularityClass.SINGULAR
    return SingularityClass.STRICTLY_SINGULAR


def _minors(a: Matrix, memo: dict) -> tuple[list, list, int]:
    """A's n^2 minors, as a list of magnitudes and a list of ghost flags,
    and their scale; det is in the memo afterwards.  Minor i * n + j is the
    permanent of the minor deleting row j and column i.  The minors come
    from the first of three sources that applies.

    A definite A's kept closure, ghosts included, with det kept as
    tangible 0.  Every non-identity cycle of a definite A is strictly
    negative and det(A) is tangible 0.  A track of the minor deleting row j
    and column i (i != j) is a path from i to j plus cycles on the other
    rows, so the tracks that attain its permanent are the heaviest paths
    from i to j with the identity on every other row, and the permanent is
    the closure's supertropical sum of those paths, ghosts included.  A
    principal minor's permanent is the identity's tangible 0, which the
    closure holds on its diagonal.

    The adjoint kept by an earlier adjugate, read back onto A's scale; det
    was kept with it.

    The fold: minor i * n + j is the sum, over column sets S of size j
    without i, of the forward slot at S times the backward slot at the
    columns left over.  The forward table and det come from _forward,
    which leaves A's fold in the handoff slot for the next kernel on A.
    """
    closure = _kept_closure(a, memo)
    if closure is not None:
        memo.setdefault("det", ONE)
        return closure
    adj = memo.get("adj")
    if adj is not None:
        scale = a._view[2]
        return (*_ints(adj._view, scale), scale)
    rows, scale, fm, fg = _forward(a, memo)
    n = len(rows)
    full = (1 << n) - 1
    bm, bg = _fold(rows[::-1])
    am: list = [None] * (n * n)
    ag = [False] * (n * n)
    cols = [(1 << i, i * n) for i in range(n)]
    for s in range(full):
        m = fm[s]
        if m is None:
            continue
        g = fg[s]
        j = s.bit_count()
        free = full ^ s
        for bit, base in cols:
            if not free & bit:
                continue
            rest = free ^ bit
            b = bm[rest]
            if b is None:
                continue
            v = m + b
            k = base + j
            cur = am[k]
            if cur is None or v > cur:
                am[k] = v
                ag[k] = g or bg[rest]
            elif v == cur:
                ag[k] = True
    return am, ag, scale


def adjugate(a: Matrix) -> Matrix:
    """Entry (i, j) is the determinant of the minor deleting row j, column i.

    The minor of a 1x1 matrix is empty and its determinant is the unit, so
    adjugate([[a]]) = [[0]].  The minors come from _minors: a definite A's
    closure, with no fold; otherwise one forward fold over the rows (the
    slot's, when a kernel on A left it there; it stays there for the next)
    and one backward fold, joined.
    """
    memo = _memo_of(a)
    adj = memo.get("adj")
    if adj is None:
        adj = memo["adj"] = Matrix.from_ints(a.rows, a.cols, *_minors(a, memo))
    return adj


def _x_fold(rows: list[list[tuple]], fm: list, fg: list) -> tuple[list, list]:
    """The subset fold of xI + A over rows, A's kernel rows, above degree
    0, continued from A's forward table (fm, fg).

    Fills one flat table of n 2^n slots, as two lists: slot
    (d - 1) << n | S holds the coefficient of x^d, d = 1..n, in the
    permanent of the first |S| rows of xI + A on the columns S.  Degree 0
    is A's forward table itself, so it is not folded again.  Row r may take
    x from the diagonal, column r.  From a degree-0 slot S (|S| = r, r not
    in S) that is the only way into slot S + {r} at degree 1, so each such
    slot starts as a copy of A's slot S; from a slot of degree d >= 1 it
    reaches degree d + 1.  A's entries keep the degree.  Layers and ties
    are as in _fold.
    """
    n = len(rows)
    up = 1 << n  # one more x: the next degree
    mag: list = [None] * (n << n)
    gh = [False] * (n << n)
    entering: list[list] = [[] for _ in range(n + 1)]
    for s, m in enumerate(fm):
        if m is not None:
            r = s.bit_count()
            if r < n and not s >> r & 1:
                k = s | 1 << r
                mag[k] = m
                gh[k] = fg[s]
                entering[r + 1].append(k)
    layer = entering[0]
    for r, row in enumerate(rows):
        nxt = entering[r + 1]
        xbit = 1 << r
        for key in layer:
            m = mag[key]
            g = gh[key]
            if not key & xbit:
                k = key + xbit + up
                cur = mag[k]
                if cur is None:
                    mag[k] = m
                    gh[k] = g
                    nxt.append(k)
                elif m > cur:
                    mag[k] = m
                    gh[k] = g
                elif m == cur:
                    gh[k] = True
            for bit, w, wg in row:
                if key & bit:
                    continue
                k = key + bit
                v = m + w
                cur = mag[k]
                if cur is None:
                    mag[k] = v
                    gh[k] = g or wg
                    nxt.append(k)
                elif v > cur:
                    mag[k] = v
                    gh[k] = g or wg
                elif v == cur:
                    gh[k] = True
        layer = nxt
    return mag, gh


def char_poly(a: Matrix) -> Polynomial:
    """Characteristic maxpolynomial of a square matrix: det(xI + A), taken
    as a formal permanent; spectral re-exports it.

    Expanding the product, the coefficient of x^k (k < n) is the
    supertropical sum of the determinants of the (n-k) x (n-k) principal
    submatrices, ghosts included, and the leading coefficient is the unit;
    coefficient 0 is det.  Summing the principal minors one by one serves
    as the independent test oracle.  The x-free part of the fold of xI + A
    is A's own forward fold, so that table comes from _forward (the
    handoff slot's, when a kernel on A left it there, else folded now and
    not left in the slot), which keeps det, and _x_fold folds only the
    degrees above 0 from it.  The polynomial is built once, kept on the
    matrix and returned by every call.
    """
    memo = _memo_of(a)
    f = memo.get("coeffs")
    if f is None:
        rows, scale, fm, fg = _forward(a, memo, keep=False)
        mag, gh = _x_fold(rows, fm, fg)
        n = a.rows
        full = (1 << n) - 1
        f = memo["coeffs"] = Polynomial([memo["det"], *[
            element_of(mag[d << n | full], gh[d << n | full], scale) for d in range(n)]])
    return f


def pseudo_inverse(a: Matrix) -> Matrix:
    """The adjoint rescaled by the determinant: (1/det) adj(A) when det is
    tangible, and the ghost of that scaling when det is ghost.  Undefined
    for strictly singular matrices.

    The minors and det come from _minors: a definite A's closure with
    det = 0, the kept adjoint with the kept det, or the adjoint's forward
    and backward folds, which keep det and leave A's forward fold in the
    handoff slot.  Each minor is rescaled on the scaled ints (magnitude
    minus det's, ghost if either is ghost), so a definite A's
    pseudo-inverse is its closure rescaled by 0, equal to its adjoint and
    made with no fold.
    """
    memo = _memo_of(a)
    pinv = memo.get("pinv")
    if pinv is None:
        am, ag, scale = _minors(a, memo)
        (dm,), (dg,) = _ints(read_ints([memo["det"]]), scale)
        if dm is None:
            raise StrictlySingularError("pseudo-inverse undefined: det = -inf")
        n = a.rows
        pinv = memo["pinv"] = Matrix.from_ints(
            n, n, [None if m is None else m - dm for m in am],
            [m is not None for m in am] if dg else ag, scale)
    return pinv


def pseudo_inverse_iter(a: Matrix, k: int) -> Matrix:
    if k < 1:
        raise ValueError("pseudo_inverse_iter expects k >= 1")
    out = a
    for _ in range(k):
        out = pseudo_inverse(out)
    return out


def pseudo_identity_class(m: Matrix) -> PseudoIdentityClass:
    """Classify against the two pseudo-identity patterns: tangible-0 diagonal
    (plus non-singularity) or ghost-0 diagonal (plus singularity), ghost or
    -inf off the diagonal, and multiplicative idempotence.

    The pattern and m m = m decide the class alone, so no determinant is
    folded and any order is answered.  With a tangible-0 diagonal,
    (m m)_ii = 0 tangible leaves every 2-cycle below 0, and (m m)_ik = m_ik
    gives nu m_ik >= nu m_ij + nu m_jk: a cycle of length >= 3 weighs no
    more than the shorter one that skips a vertex.  So every cycle of
    length >= 2 is negative, the identity track alone attains det, and det
    is tangible 0.  With a ghost-0 diagonal every entry is ghost or -inf,
    so every track is, and det is the identity's ghost 0.
    """
    require_square(m)
    n = m.rows
    mag, gh, _ = m._view
    ghost_diag = gh[0]
    # Entry k of the flat view is on the diagonal exactly when n + 1 divides k.
    if mag[::n + 1] != (0,) * n or gh[::n + 1] != (ghost_diag,) * n or any(
            x is not None and not g for k, (x, g) in enumerate(zip(mag, gh)) if k % (n + 1)):
        return PseudoIdentityClass.NEITHER
    if mat_mul(m, m) != m:
        return PseudoIdentityClass.NEITHER
    return (PseudoIdentityClass.GHOST_PSEUDO_IDENTITY if ghost_diag
            else PseudoIdentityClass.PSEUDO_IDENTITY)


def _closure(a: Matrix) -> tuple[list, list, int] | None:
    """The supertropical closure of A, as scaled ints (None for -inf) and
    ghost flags, with their scale; None if A is not definite.  For a
    definite A it is adj(A) = A^inv with its ghost flags, and its
    magnitudes are the Kleene star.

    With a tangible-0 diagonal, A is definite iff every cycle of length >= 2
    is strictly negative: a zero-weight cycle ties the identity track and
    ghosts det, a positive one beats it, and ghosts on negative cycles lose.
    Floyd-Warshall starts from A itself, so d[i][i] starts at the
    identity's tangible 0 and ends above 0, or ghost at 0, exactly when
    some cycle through i weighs 0 or more; else it stays tangible 0.  For
    i != j, d[i][j] is the supertropical sum of the paths from i to j: a
    strictly larger d[i][k] + d[k][j] takes the ghost flag of either half,
    an equal one ghosts the entry.  When the cycle test passes, that sum
    is exact over the simple paths.  Each simple path is counted once, at
    its highest intermediate vertex; a walk that repeats a vertex holds a
    strictly negative cycle, and the same walk without it is strictly
    heavier, so it never ties the maximum.  Pass k leaves row k and column
    k alone: in a definite A they could change only through d[k][k], the
    identity's 0, which adds no path and would only ghost them by a tie; a
    d[k][k] above 0 or ghost has already failed the cycle test, as no
    entry ever decreases and a ghost 0 only rises.
    """
    n = a.rows
    mag, gh, scale = a._view
    if mag[::n + 1] != (0,) * n or any(gh[::n + 1]):
        return None  # a diagonal entry other than tangible 0
    d, dg = list(mag), list(gh)  # a copy: the view stays A's
    for k in range(n):
        lo = k * n
        dk = [(j, d[lo + j], dg[lo + j]) for j in range(n)
              if j != k and d[lo + j] is not None]
        for base in range(0, n * n, n):
            dik = d[base + k]
            if dik is None or base == lo:
                continue
            gik = dg[base + k]
            for j, dkj, gkj in dk:
                v = dik + dkj
                at = base + j
                cur = d[at]
                if cur is None or v > cur:
                    d[at] = v
                    dg[at] = gik or gkj
                elif v == cur:
                    dg[at] = True
    if any(d[at] or dg[at] for at in range(0, n * n, n + 1)):
        return None
    return d, dg, scale


def _kept_closure(a: Matrix, memo: dict) -> tuple[list, list, int] | None:
    """_closure(a), computed once and kept in A's memo."""
    if "closure" not in memo:
        memo["closure"] = _closure(a)
    return memo["closure"]


def is_definite(a: Matrix) -> bool:
    """Tangible 0 on the whole diagonal and determinant exactly tangible 0,
    decided by the cycle test of the closure (no determinant fold)."""
    return _kept_closure(a, _memo_of(a)) is not None


def _dominant_track(rows: list[list[tuple]], mag: list) -> list[tuple]:
    """The unique permutation track attaining a tangible determinant, as
    (column, magnitude) of its entry in each row, backtracked over the
    magnitudes of rows' fold table, the same fold that gave the
    determinant: with a tangible determinant, exactly one column of each
    row extends the track optimally."""
    n = len(rows)
    mask = (1 << n) - 1
    track: list = [None] * n
    for r in reversed(range(n)):
        best = mag[mask]
        for bit, w, _ in rows[r]:
            prev = mag[mask ^ bit] if mask & bit else None
            if best is not None and prev is not None and prev + w == best:
                break
        else:
            raise VerificationError("no permutation track attains the determinant")
        track[r] = (bit.bit_length() - 1, w)
        mask ^= bit
    return track


Side = Literal["left", "right"]


def _lines(n: int, i: int, c: int, left: bool) -> tuple[slice, slice]:
    """For the conductor's entry (i, c) of an n x n definite form: the
    slices of a flat row-major matrix holding the line of A and the line
    of the definite factor that it maps onto each other.  Left: row i of A
    and row c of the factor.  Right: column c of A and column i."""
    if left:
        return slice(i * n, i * n + n), slice(c * n, c * n + n)
    return slice(c, None, n), slice(i, None, n)


def definite_form(a: Matrix, side: Side = "left") -> tuple[Matrix, Matrix]:
    """Factor a non-singular matrix through a definite one.

    Returns (conductor, definite) with A = conductor * definite for
    side='left' and A = definite * conductor for side='right'.  The
    conductor is a generalized permutation matrix carrying det(A): it holds
    A's entries on the unique dominant permutation track, and the definite
    factor is A with that track rescaled onto a tangible-0 diagonal, built
    line by line from A's view (rows on the left, columns on the right).  A's forward fold comes from _forward (the
    slot's, when a kernel on A left it there) and is left in the slot for
    the next kernel on A; it is the only fold.  The returned factors are
    verified on A's scaled ints before returning: the conductor is a
    tangible generalized permutation, their product is A, and the definite
    factor is definite.

    The product is checked line by line in O(n^2), and exactly: once the
    conductor C is a tangible generalized permutation, with c_i its one
    finite entry in row i, at column p(i), each entry of C D has one finite
    term, (C D)[i][j] = c_i + D[p(i)][j], so row i of C D is row p(i) of D
    shifted by c_i, ghost exactly where D's entry is; and column p(i) of
    D C is column i of D shifted by c_i.  So the check equals the full
    product.

    Those checks imply that the conductor carries det(A), so its permanent
    is not folded.  C D is D with its rows permuted and each shifted by a
    tangible scalar, C's entry in that row (columns, for D C).  So each
    track of C D is a track of D times det(C), a tangible scalar, and
    perm(C D) = perm(C) perm(D) exactly, ties and ghosts included.
    perm(D) is tangible 0 and C D = A, so det(C) = det(A).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    left = side == "left"
    n = a.rows
    rows, scale, mag, gh = _forward(a, _memo_of(a))
    full = (1 << n) - 1
    if mag[full] is None or gh[full]:
        raise NotNonSingularError("definite form needs a tangible determinant")
    track = _dominant_track(rows, mag)
    amag, agh, _ = a._view  # on the scale of A's kernel rows
    # The conductor keeps A's entries on the track, and each line of the
    # definite factor is a line of A less the track entry t that maps them.
    cm: list = [None] * (n * n)
    dm: list = [None] * (n * n)
    dg = [False] * (n * n)
    for i, (c, t) in enumerate(track):
        cm[i * n + c] = amag[i * n + c]
        aline, dline = _lines(n, i, c, left)
        dm[dline] = [None if m is None else m - t for m in amag[aline]]
        dg[dline] = agh[aline]
    conductor = Matrix.from_ints(n, n, cm, [False] * (n * n), scale)
    definite = Matrix.from_ints(n, n, dm, dg, scale)

    # The checks read the returned factors back onto A's scale.
    if not is_invertible(conductor):
        raise VerificationError("conductor is not a tangible generalized permutation")
    cmag, _ = _ints(conductor._view, scale)
    dmag, dgh = _ints(definite._view, scale)
    pm: list = [None] * (n * n)
    pg = [False] * (n * n)
    for at in [at for at, m in enumerate(cmag) if m is not None]:  # one in each row
        i, c = divmod(at, n)
        w = cmag[at]
        aline, dline = _lines(n, i, c, left)
        pm[aline] = [None if d is None else w + d for d in dmag[dline]]
        pg[aline] = dgh[dline]
    if (tuple(pm), tuple(pg)) != (amag, agh):
        raise VerificationError("definite factorization failed to reassemble the input")
    if not is_definite(definite):
        raise VerificationError("definite factor is not definite")
    return conductor, definite


def transposition_matrix(n: int, i: int, j: int) -> Matrix:
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise BadIndicesError(f"transposition needs distinct indices in range, got {i}, {j}")
    rows = identity(n).to_rows()
    rows[i], rows[j] = rows[j], rows[i]
    return Matrix.from_rows(rows)


def diag_multiplier_matrix(n: int, i: int, alpha: Element) -> Matrix:
    if not 0 <= i < n:
        raise BadIndicesError(f"index {i} out of range for n = {n}")
    if alpha.kind != TANGIBLE_KIND:
        raise NotInvertibleError("diagonal multiplier must be a tangible scalar")
    values = [ONE] * n
    values[i] = alpha
    return diag(values)


def gaussian_matrix(n: int, i: int, j: int, r: Element) -> Matrix:
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise BadIndicesError(f"gaussian matrix needs distinct indices in range, got {i}, {j}")
    rows = identity(n).to_rows()
    rows[i][j] = r
    return Matrix.from_rows(rows)


def is_invertible(a: Matrix) -> bool:
    """True iff the matrix is a generalized permutation matrix: exactly one
    entry per row and per column is not -inf, and that entry is tangible."""
    mag, gh, _ = a._view
    n, order = a.rows, list(range(a.rows))
    finite = [at for at, m in enumerate(mag) if m is not None]
    return (a.is_square and [at // n for at in finite] == order
            and sorted(at % n for at in finite) == order and not any(gh[at] for at in finite))


def kleene_star(a: Matrix) -> Matrix:
    """Tropical closure I + A + A^2 + ... of a definite matrix.

    These are the magnitudes of the kept closure that decides
    definiteness: every non-identity cycle of a definite matrix is strictly
    negative, so the closure is exactly I + A + ... + A^(n-1), where the
    power sum stabilizes.  The star is the tropical-side object: it is
    returned with tangible entries.  It is exactly the tangible projection
    of pseudo_inverse(A) = adjugate(A), which is the same closure with its
    ghost flags, and magnitude-equivalent to mat_pow(A, n-1).
    """
    closure = _kept_closure(a, _memo_of(a))
    if closure is None:
        raise NotDefiniteError("kleene star requires a definite matrix")
    d, _, scale = closure
    return Matrix.from_ints(a.rows, a.cols, d, [False] * len(d), scale)


def mat_ghost_surpasses(a: Matrix, b: Matrix) -> bool:
    """True iff every entry of A ghost-surpasses that of B: they are equal,
    or A's is a ghost at least B's magnitude (or B's is -inf)."""
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatchError("ghost surpassing needs equal shapes")
    [(am, ag), (bm, bg)], _ = _flat(a._view, b._view)
    return ghost_surpasses_ints(am, ag, bm, bg)


def mat_nu_equiv(a: Matrix, b: Matrix) -> bool:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatchError("magnitude comparison needs equal shapes")
    [(am, _), (bm, _)], _ = _flat(a._view, b._view)
    return am == bm


def is_ghost_matrix(a: Matrix) -> bool:
    """True iff every entry is ghost or -inf."""
    mag, gh, _ = a._view
    return all(g or m is None for m, g in zip(mag, gh))


def is_triangular(a: Matrix) -> bool:
    """True iff A is square and every entry below its diagonal, or every
    entry above it, is -inf."""
    mag, n = a._view[0], a.rows
    return a.is_square and (all(mag[i * n + j] is None for i in range(n) for j in range(i))
                            or all(mag[j * n + i] is None for i in range(n) for j in range(i)))


def hat_matrix(a: Matrix) -> Matrix:
    return a.map(to_tangible)


# -- JSON file format ---------------------------------------------------------
#
# {"rows": n, "cols": m, "entries": [["3", "-1/2g", ...], ...]}  (row-major,
# scalar grammar strings, strict: unknown keys rejected).


def matrix_to_dict(a: Matrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[format_scalar(e) for e in row] for row in a.to_rows()],
    }


def matrix_from_dict(d: object) -> Matrix:
    if not isinstance(d, dict):
        raise ParseError("matrix JSON must be an object")
    extra = set(d) - {"rows", "cols", "entries"}
    if extra:
        raise ParseError(f"unknown keys in matrix JSON: {sorted(extra)}")
    missing = {"rows", "cols", "entries"} - set(d)
    if missing:
        raise ParseError(f"missing keys in matrix JSON: {sorted(missing)}")
    rows, cols, entries = d["rows"], d["cols"], d["entries"]
    if type(rows) is not int or type(cols) is not int or rows < 1 or cols < 1:
        raise ParseError("rows/cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"entries must be a list of {rows} rows")
    parsed = []
    for r in entries:
        if not isinstance(r, list) or len(r) != cols:
            raise ParseError(f"each row must be a list of {cols} scalars")
        for s in r:
            if not isinstance(s, str):
                raise ParseError("matrix entries must be scalar strings")
            parsed.append(parse_scalar(s))
    return Matrix(rows, cols, parsed)


def matrix_to_json(a: Matrix) -> str:
    return json.dumps(matrix_to_dict(a), indent=2) + "\n"


def matrix_from_json(text: str) -> Matrix:
    try:
        d = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer past the digit limit;
        # RecursionError: nesting deeper than the decoder's stack
        raise ParseError(f"invalid JSON: {exc}") from None
    return matrix_from_dict(d)


def load_matrix(path: str) -> Matrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"matrix file is not UTF-8: {exc}") from None
    return matrix_from_json(text)
