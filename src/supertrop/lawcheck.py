"""Seeded random instance generation and mechanical law checking.

Every algebraic law the library relies on has a checker here that draws
random matrices and reports a structured verdict.  Checker failures are
library bugs and carry a replayable witness; the one exception is the
open coefficient range of the pseudo-inverse reversal conjecture, whose
violations are recorded as counterexample findings rather than failures.

All randomness flows from a single 64-bit seed; trial t uses a sub-seed
mixed from (seed, t), so reports are reproducible and trials independent.
Within a trial, every check with the same constraint gets the same drawn
matrices: a Matrix is immutable and keeps its kernel results, so det,
adj, A^inv, f_A and the closure of a shared draw are computed once for
the whole suite.  A draw is built from its ints (Matrix.from_ints), as
every kernel result is, so a trial builds a matrix's Elements only to
serialize a witness.
"""

from __future__ import annotations

import enum
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import ConstraintUnsatisfiableError, NotNonSingularError, SizeCapExceededError
from .maxpoly import Polynomial, format_poly, poly_ghost_surpasses, poly_value_surpasses
from .semiring import format_scalar, ghost_surpasses, mul, power
from .spectral import char_poly, conjugate, eval_at_matrix
from .tropmat import (
    DEFAULT_DET_CAP,
    Matrix,
    SingularityClass,
    adjugate,
    classify,
    definite_form,
    determinant,
    format_matrix,
    is_definite,
    is_ghost_matrix,
    is_triangular,
    kleene_star,
    mat_ghost_surpasses,
    mat_mul,
    mat_nu_equiv,
    mat_pow,
    matrix_from_dict,
    matrix_to_dict,
    pseudo_inverse,
)

MAX_GEN_ATTEMPTS = 1000
_MIX = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


class Constraint(enum.Enum):
    """What gen_matrix guarantees of a draw; each law check names its own.

    A DEFINITE draw is the definite factor D of A = P D
    (tropmat.definite_form), where A has a tangible-0 diagonal, entries off
    it drawn as GenConfig says, and a tangible determinant.  Every definite
    matrix can be drawn, as its own factor with P = I; with neginf_prob = 1
    the draw is the identity.  D's entries are differences of two entries
    of A, so numerator_range does not bound them: with lo = min(range low,
    0) and hi = max(range high, 0), for A's 0 diagonal, they lie within
    [lo - hi, hi - lo] / denominator.  Where almost no draw has a tangible
    determinant, DEFINITE raises ConstraintUnsatisfiableError just as
    NON_SINGULAR does: for example with numerator_range = (0, 0) from
    n = 4 on, or ghost_prob = 1 from n = 5 on.
    """

    NONE = "none"
    NON_SINGULAR = "non_singular"
    DEFINITE = "definite"
    TRIANGULAR = "triangular"
    INVERTIBLE = "invertible"


@dataclass(frozen=True)
class GenConfig:
    """Sampling configuration for random matrices.

    Each drawn entry is -inf with probability neginf_prob, else a numerator
    from numerator_range over denominator, ghost with probability
    ghost_prob.  The constraint a draw honours is gen_matrix's argument,
    not part of the config.
    """

    n: int
    numerator_range: tuple[int, int] = (-10, 10)
    denominator: int = 1
    neginf_prob: Fraction = Fraction(1, 5)
    ghost_prob: Fraction = Fraction(1, 10)
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.numerator_range
        for name, x in (("n", self.n), ("a numerator_range bound", lo),
                        ("a numerator_range bound", hi), ("denominator", self.denominator),
                        ("seed", self.seed)):
            if type(x) is not int:
                raise ValueError(f"{name} must be an int, got {x!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if lo > hi:
            raise ValueError("empty numerator range")
        if self.denominator < 1:
            raise ValueError("denominator must be a positive integer")
        for p in (self.neginf_prob, self.ghost_prob):
            if type(p) not in (int, Fraction) or not 0 <= p <= 1:
                raise ValueError("probabilities must be exact rationals in [0, 1]")
            try:
                str(p)  # to_dict prints it; str refuses ints past Python's digit limit
            except ValueError:
                raise ValueError("probabilities must print within the int digit limit") from None
        if not 0 <= self.seed <= _MASK:
            raise ValueError("seed must fit in 64 unsigned bits")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "numerator_range": list(self.numerator_range),
            "denominator": self.denominator,
            "neginf_prob": str(self.neginf_prob),
            "ghost_prob": str(self.ghost_prob),
            "seed": self.seed,
        }


def _sub_seed(seed: int, trial: int) -> int:
    return (seed * _MIX + trial + 1) & _MASK


def _entry_drawer(rng: random.Random, cfg: GenConfig) -> Callable[..., tuple[list, list]]:
    """draw(count, kinds=True) -> count entries drawn in turn as cfg says,
    as their numerators over cfg.denominator (None for -inf) and their
    ghost flags; with kinds false, tangible values only.

    Each entry takes the bits of rng.getrandbits that randrange(d) and
    randint(lo, hi) take, for d the denominator of a probability and for
    the width of the numerator range: k = d.bit_length() bits, drawn again
    while they read >= d.  So a seed gives the matrices it gave through
    those calls, and no random.py frame runs per entry.
    """
    bits = rng.getrandbits
    lo, hi = cfg.numerator_range
    width = hi - lo + 1
    kw = width.bit_length()
    n_num, n_den = cfg.neginf_prob.numerator, cfg.neginf_prob.denominator
    g_num, g_den = cfg.ghost_prob.numerator, cfg.ghost_prob.denominator
    kn, kg = n_den.bit_length(), g_den.bit_length()

    def draw(count: int, kinds: bool = True) -> tuple[list, list]:
        mag: list = []
        gh = []
        for _ in range(count):
            if kinds:
                r = bits(kn)
                while r >= n_den:
                    r = bits(kn)
                if r < n_num:
                    mag.append(None)
                    gh.append(False)
                    continue
            r = bits(kw)
            while r >= width:
                r = bits(kw)
            mag.append(lo + r)
            if kinds:
                r = bits(kg)
                while r >= g_den:
                    r = bits(kg)
                gh.append(r < g_num)
            else:
                gh.append(False)
        return mag, gh

    return draw


def _gen_with_rng(rng: random.Random, cfg: GenConfig, constraint: Constraint) -> Matrix:
    """A draw, built from its ints: numerators over cfg.denominator."""
    n, den = cfg.n, cfg.denominator
    draw = _entry_drawer(rng, cfg)
    for _ in range(MAX_GEN_ATTEMPTS):
        if constraint is Constraint.INVERTIBLE:
            perm = list(range(n))
            rng.shuffle(perm)
            mag: list = [None] * (n * n)
            for i, m in enumerate(draw(n, False)[0]):
                mag[i * n + perm[i]] = m
            return Matrix.from_ints(n, n, mag, [False] * (n * n), den)
        if constraint is Constraint.TRIANGULAR:
            # Upper triangular with a tangible diagonal, hence non-singular:
            # row i is i -inf entries, its tangible diagonal entry, then the rest.
            mag, gh = [], []
            for i in range(n):
                diag, rest = draw(1, False), draw(n - 1 - i)
                mag += [None] * i + diag[0] + rest[0]
                gh += [False] * (i + 1) + rest[1]
            return Matrix.from_ints(n, n, mag, gh, den)
        if constraint is Constraint.DEFINITE:
            # The definite factor of a non-singular draw with a tangible-0
            # diagonal (A = P D); with no finite entry off it, A = I = D.
            mag, gh = draw(n * n - n)
            for at in range(0, n * n, n + 1):
                mag.insert(at, 0)
                gh.insert(at, False)
            a = Matrix.from_ints(n, n, mag, gh, den)
            if classify(a) is SingularityClass.NON_SINGULAR:
                return definite_form(a)[1]
            continue
        a = Matrix.from_ints(n, n, *draw(n * n), den)
        if constraint is Constraint.NONE:
            return a
        if constraint is Constraint.NON_SINGULAR \
                and classify(a) is SingularityClass.NON_SINGULAR:
            return a
    raise ConstraintUnsatisfiableError(
        f"could not satisfy {constraint.value} in {MAX_GEN_ATTEMPTS} attempts"
    )


def gen_matrix(cfg: GenConfig, constraint: Constraint = Constraint.NONE) -> Matrix:
    """Deterministic function of cfg (including its seed) and constraint."""
    return _gen_with_rng(random.Random(cfg.seed), cfg, constraint)


# -- checkers ------------------------------------------------------------------


@dataclass
class TrialResult:
    ok: bool
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None


def chk_det_product(a: Matrix, b: Matrix) -> TrialResult:
    """det(AB) ghost-surpasses det(A) det(B)."""
    lhs = determinant(mat_mul(a, b))
    rhs = mul(determinant(a), determinant(b))
    if ghost_surpasses(lhs, rhs):
        return TrialResult(True)
    return TrialResult(False, {"det_ab": format_scalar(lhs), "det_a_det_b": format_scalar(rhs)})


def chk_adj_rules(a: Matrix) -> TrialResult:
    """det(A adj(A)) = det(A)^n and det(adj(A)) = det(A)^(n-1), exactly.
    The adjoint comes first: its forward fold gives det(A) as well."""
    n = a.rows
    adj = adjugate(a)
    d = determinant(a)
    bad = {}
    lhs1, rhs1 = determinant(mat_mul(a, adj)), power(d, n)
    if lhs1 != rhs1:
        bad["det_a_adj"] = format_scalar(lhs1)
        bad["det_pow_n"] = format_scalar(rhs1)
    lhs2, rhs2 = determinant(adj), power(d, n - 1)
    if lhs2 != rhs2:
        bad["det_adj"] = format_scalar(lhs2)
        bad["det_pow_n_minus_1"] = format_scalar(rhs2)
    return TrialResult(not bad, bad)


def chk_adj_product(a: Matrix, b: Matrix) -> TrialResult:
    """adj(AB) ghost-surpasses adj(B) adj(A), entrywise."""
    lhs = adjugate(mat_mul(a, b))
    rhs = mat_mul(adjugate(b), adjugate(a))
    if mat_ghost_surpasses(lhs, rhs):
        return TrialResult(True)
    return TrialResult(False, {"adj_ab": format_matrix(lhs), "adj_b_adj_a": format_matrix(rhs)})


def chk_nabla_period(a: Matrix) -> TrialResult:
    """The second pseudo-inverse has the magnitude of P A^inv P, for P the
    left conductor of A; definite_form raises NotNonSingularError unless A
    is non-singular.

    Period two in magnitude from the first application on follows, so the
    test suite checks it as a theorem and the report does not.  P is a
    tangible generalized permutation matrix, so for any X with det(X) not
    -inf, (P X P)^inv = P^inv X^inv P^inv exactly: every minor of P X P,
    det included, is one minor of X times tangible entries of P.  Also
    P^inv P = P P^inv = I, and the magnitude of X^inv is read off that of X
    (det and minors are max-plus permanents of magnitudes, rescaled by
    det's; strict singularity is a magnitude fact), as is that of a
    product.  So from p2 ~ P p1 P, with p_k the k-th iterate,
    p3 = p2^inv ~ (P p1 P)^inv = P^inv p2 P^inv ~ P^inv P p1 P P^inv = p1,
    and by induction every later pair is ~ as well."""
    conductor, _ = definite_form(a, "left")
    p1 = pseudo_inverse(a)
    p2 = pseudo_inverse(p1)
    sandwich = mat_mul(mat_mul(conductor, p1), conductor)
    if mat_nu_equiv(p2, sandwich):
        return TrialResult(True)
    return TrialResult(False, {"conductor_sandwich":
                               f"{format_matrix(p2)} | {format_matrix(sandwich)}"})


def chk_definite_stabilization(a: Matrix) -> TrialResult:
    """For definite A, A^inv is definite and has the magnitude of A^inv A,
    and the Kleene star has that of A^(n-1); kleene_star raises
    NotDefiniteError for any other A.  Nothing here folds: A^inv is A's
    kept closure with its ghost flags and the star is the same magnitudes,
    tangible, so A^inv ~ star entry by entry, hence A^inv ~ A^(n-1), and
    that pair is not compared (test_definite_inverse_matches_oracle_on_ties
    and test_kleene_star_matches_power_sum_oracle pin both against their
    oracles).  A^(n-1) and A^inv A are products.  The rest follows and is
    left to the test suite:
    - det(A) is tangible 0, and rescaling by it changes no minor, so
      A^inv = adj(A);
    - magnitudes multiply in max-plus, so A^(k+1) = A^k A ~ A^inv A ~ A^inv
      for every k >= n-1, and A A^inv ~ A A^(n-1) = A^n ~ A^inv;
    - A^inv is its own pseudo-inverse in magnitude.  With X = A^inv,
      X A ~ X gives X A^k ~ X for every k, so X X ~ X A^(n-1) ~ X.  X is
      definite, so X^inv is X's closure, whose magnitude is
      I + X + ... + X^(n-1) ~ I + X, and that is X, whose diagonal is 0."""
    star = kleene_star(a)
    pinv = pseudo_inverse(a)
    bad = {}
    if not is_definite(pinv):
        bad["pseudo_inverse_definite"] = format_matrix(pinv)
    for name, want, m in (("power_n_minus_1", star, mat_pow(a, a.rows - 1)),
                          ("left_pseudo_identity", pinv, mat_mul(pinv, a))):
        if not mat_nu_equiv(want, m):
            bad[name] = f"{format_matrix(want)} | {format_matrix(m)}"
    return TrialResult(not bad, bad)


def chk_similarity(a: Matrix, b: Matrix) -> TrialResult:
    """The characteristic polynomial fp of the conjugate A^inv B A
    ghost-surpasses the characteristic polynomial fb of B, coefficient-wise.

    That is fp = fb + h for a polynomial h whose coefficients are all ghost
    or -inf.  The corollaries of the similarity result follow from it, so
    the test suite checks them as properties and the report does not:
    - det and trace surpass: they are coefficients 0 and n-1 of the same
      comparison;
    - a ghost-free fp equals fb: a tangible coefficient surpasses another
      only by equalling it;
    - every eigenvalue of B stays one of the conjugate: fp(x) = fb(x) + h(x)
      with h(x) ghost or -inf, so wherever fb(x) is not tangible, neither
      is fp(x), and roots_outside(fb, fp) is empty;
    - B satisfies fp in the ghost sense: fp(B) = fb(B) + h(B), where h(B) is
      ghost and fb(B) is ghost by Hamilton-Cayley, which the
      hamilton_cayley check asserts.
    """
    if classify(a) is not SingularityClass.NON_SINGULAR:
        raise NotNonSingularError("similarity check needs a non-singular conjugator")
    fp = char_poly(conjugate(a, b))
    fb = char_poly(b)
    if poly_ghost_surpasses(fp, fb):
        return TrialResult(True)
    return TrialResult(False, {"charpoly": f"{format_poly(fp)} | {format_poly(fb)}"})


_CHARPOLY_POWER_MAX = 3


def chk_charpoly_power(a: Matrix) -> TrialResult:
    """f_{A^m} ghost-surpasses f_A's m-th power as a map, for m = 2 and 3,
    at degree n.

    The paper compares f_{A^m}(x^m) with f_A(x)^m.  The semiring has the
    Frobenius property (a + b)^m = a^m + b^m, so f_A(x)^m = g_m(x^m) as
    maps, for g_m the coefficient-wise m-th power of f_A; and y = x^m is a
    bijection of the tangible values that fixes -inf.  So f_{A^m} is
    compared with g_m, and the check asserts one law per m: f_{A^m}
    surpasses g_m as a function (pointwise ghost surpassing, decided
    exactly on the essential-form breakpoints of both and of their sum).
    g_m's essential terms are f_A's, of the same kinds, with magnitudes
    times m.  The consequences follow from the law, so the test suite
    checks them as theorems and the report does not:
    - each corner root r of f_{A^m} is m times a corner root of f_A: next
      to r, on both sides, f_{A^m} is one tangible essential term, and a
      tangible value surpasses another only by equalling it, so g_m
      equals it there and kinks at r between two tangible essential
      terms; as terms of f_A they cross at r / m, a corner root of f_A;
    - a ghost-free f_{A^m} is the same map as g_m: it is tangible (or
      -inf) off its breakpoints and at -inf, so it equals g_m there, and
      two maps that agree off finitely many points have equal essential
      forms;
    - corner roots of f_A power up into roots of f_{A^m}: f_A(r) is ghost
      at a corner root r, hence so is g_m(m r) = f_A(r)^m, and a value
      that ghost-surpasses a ghost is one.
    A^m is a running product.
    """
    f_a = char_poly(a)
    a_m = a
    bad = {}
    for m in range(2, _CHARPOLY_POWER_MAX + 1):
        a_m = mat_mul(a_m, a)
        f_am = char_poly(a_m)
        g_m = Polynomial(power(c, m) for c in f_a.coeffs)
        if not poly_value_surpasses(f_am, g_m):
            bad[f"value_surpassing_m{m}"] = f"{format_poly(f_am)} | {format_poly(g_m)}"
    return TrialResult(not bad, bad)


def chk_hamilton_cayley(a: Matrix) -> TrialResult:
    """A substituted into its own characteristic polynomial is ghost."""
    val = eval_at_matrix(char_poly(a), a)
    if is_ghost_matrix(val):
        return TrialResult(True)
    return TrialResult(False, {"char_poly_at_a": format_matrix(val)})


_OPEN_RANGE_NOTE = "open for n >= 5 at 1 <= k <= n-3"


def chk_reversal_conjecture(a: Matrix) -> TrialResult:
    """det(A) * coeff_k(f of A^inv) ghost-surpasses coeff_(n-k)(f of A).

    Coefficients k in {0, n-2, n-1} are proven and asserted, as is the
    whole range k < n when n <= 4 or A is triangular.  A violation anywhere
    else is reported as a counterexample finding, not a failure.  The
    proven coefficient k = n is not compared: f of A^inv is monic and d is
    read as coeff_0(f of A), so that comparison is d against d and cannot
    fail.
    """
    f_a = char_poly(a)
    d = f_a.coeff(0)  # det(A), without a fold of its own
    if not d.is_tangible:
        raise NotNonSingularError("conjecture check needs a non-singular matrix")
    n = a.rows
    f_inv = char_poly(pseudo_inverse(a))
    all_asserted = n <= 4 or is_triangular(a)
    asserted_bad = {}
    open_bad = {}
    for k in range(n):
        lhs = mul(d, f_inv.coeff(k))
        rhs = f_a.coeff(n - k)
        if ghost_surpasses(lhs, rhs):
            continue
        entry = f"{format_scalar(lhs)} does not surpass {format_scalar(rhs)}"
        if all_asserted or k in (0, n - 2, n - 1):
            asserted_bad[f"coefficient_{k}"] = entry
        else:
            open_bad[f"coefficient_{k}"] = entry
    counter = None
    if open_bad:
        counter = dict(open_bad)
        counter["note"] = _OPEN_RANGE_NOTE
    return TrialResult(not asserted_bad, asserted_bad, counter)


# -- runner --------------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    constraint: Constraint
    two_matrices: bool
    fn: Callable


CHECKS: dict[str, CheckDef] = {
    "det_product": CheckDef(Constraint.NONE, True, chk_det_product),
    "adj_rules": CheckDef(Constraint.NONE, False, chk_adj_rules),
    "adj_product": CheckDef(Constraint.NONE, True, chk_adj_product),
    "nabla_period": CheckDef(Constraint.NON_SINGULAR, False, chk_nabla_period),
    "definite_stabilization": CheckDef(Constraint.DEFINITE, False, chk_definite_stabilization),
    "similarity": CheckDef(Constraint.NON_SINGULAR, True, chk_similarity),
    "charpoly_power": CheckDef(Constraint.NONE, False, chk_charpoly_power),
    "hamilton_cayley": CheckDef(Constraint.NONE, False, chk_hamilton_cayley),
    "reversal_conjecture": CheckDef(Constraint.NON_SINGULAR, False, chk_reversal_conjecture),
}

CHECK_IDS: tuple[str, ...] = tuple(CHECKS)


@dataclass
class CheckReport:
    check_id: str
    seed: int
    config: GenConfig
    trials: int
    passes: int
    failures: list[dict]
    counterexamples: list[dict]
    elapsed_ms: float

    def to_dict(self) -> dict:
        """The serialized report; elapsed_ms stays out, so it is byte
        deterministic."""
        return {
            "check_id": self.check_id,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "counterexamples": self.counterexamples,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _inputs(drawn: dict, seed: int, cfg: GenConfig, defn: CheckDef) -> list[Matrix]:
    """The trial's matrices for defn, drawn on first use and kept in drawn.

    A is drawn with defn's constraint from a generator seeded with the
    trial's sub-seed, once per constraint; B, unconstrained, from that
    generator after A, the first time a two-matrix check of that
    constraint asks for it.  So each check sees the matrices it would draw
    alone, and checks of one constraint share them.
    """
    got = drawn.get(defn.constraint)
    if got is None:
        rng = random.Random(seed)
        got = drawn[defn.constraint] = (rng, [_gen_with_rng(rng, cfg, defn.constraint)])
    rng, mats = got
    if not defn.two_matrices:
        return mats[:1]
    if len(mats) == 1:
        mats.append(_gen_with_rng(rng, cfg, Constraint.NONE))
    return mats


def _run(ids: tuple[str, ...], cfg: GenConfig, trials: int) -> list[CheckReport]:
    """The trial loop behind run_check and run_suite: for each trial, run
    the checks named by ids in order on the trial's shared draws."""
    for check_id in ids:
        if check_id not in CHECKS:
            raise KeyError(f"unknown check {check_id!r}; known: {', '.join(CHECK_IDS)}")
    if cfg.n > DEFAULT_DET_CAP:
        raise SizeCapExceededError(
            f"subset-fold kernels capped at n <= {DEFAULT_DET_CAP}, got n = {cfg.n}")
    runs = [(CHECKS[check_id], CheckReport(check_id, cfg.seed, cfg, trials, 0, [], [], 0.0))
            for check_id in ids]
    clock = time.perf_counter
    for t in range(trials):
        seed = _sub_seed(cfg.seed, t)
        drawn: dict = {}
        for defn, report in runs:
            t0 = clock()
            args = _inputs(drawn, seed, cfg, defn)
            res = defn.fn(*args)
            if res.ok:
                report.passes += 1
            if not res.ok or res.counterexample is not None:
                inputs = {name: matrix_to_dict(m) for name, m in zip("AB", args)}
                if not res.ok:
                    report.failures.append({"trial": t, "inputs": inputs, "details": res.details})
                if res.counterexample is not None:
                    report.counterexamples.append(
                        {"trial": t, "inputs": inputs, "details": res.counterexample})
            report.elapsed_ms += (clock() - t0) * 1000.0
    return [report for _, report in runs]


def run_check(check_id: str, cfg: GenConfig, trials: int) -> CheckReport:
    """Run one checker over seeded random instances.

    Trial t draws its inputs from a sub-seed of (cfg.seed, t); the first
    matrix honours the checker's constraint, a second one (where used) is
    unconstrained and drawn after it.  Only a trial that fails or flags a
    counterexample serializes its inputs as a witness.  The report is a
    deterministic function of (check_id, cfg, trials), and is the report
    run_suite gives for check_id.  Every check folds its matrices, so an
    order above the kernels' size cap is refused before any draw.
    elapsed_ms is the time spent drawing, checking and serializing.
    """
    return _run((check_id,), cfg, trials)[0]


def run_suite(cfg: GenConfig, trials: int, suite: str = "all") -> list[CheckReport]:
    """Run every check, in CHECK_IDS order ("all"), or the one named.

    The loop is over trials, and each trial runs every check in order on
    draws shared by constraint: the checks of one constraint get the same
    A, and the two-matrix ones among them the same B (see run_check), so
    each report is byte-identical to run_check's for its id.  A shared
    draw's time goes to the elapsed_ms of the first check that uses it.
    An error surfaces from the first (trial, check) pair that raises in
    that order: a later check that raises at trial 0 wins over an earlier
    one that raises at trial 1.
    """
    return _run(CHECK_IDS if suite == "all" else (suite,), cfg, trials)


def explore_conjecture(cfg: GenConfig, trials: int) -> CheckReport:
    """Search for counterexamples to the pseudo-inverse reversal conjecture,
    on matrices drawn non-singular as the check requires."""
    return run_check("reversal_conjecture", cfg, trials)


def replay(check_id: str, inputs: dict) -> TrialResult:
    """Re-run one check on witness inputs serialized in the matrix format."""
    if check_id not in CHECKS:
        raise KeyError(f"unknown check {check_id!r}")
    defn = CHECKS[check_id]
    args = [matrix_from_dict(inputs["A"])]
    if defn.two_matrices:
        args.append(matrix_from_dict(inputs["B"]))
    return defn.fn(*args)
