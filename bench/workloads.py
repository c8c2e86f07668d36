"""The benchmark's workloads: seeded inputs, one closed-loop call, and the gate.

A workload turns (seed, call index) into the inputs of one call, runs the
call through supertrop's public API, and checks the output.  The program
is imported from this checkout's ``src/``; it only ever sees the inputs.

* ``explore-n4``: ``supertrop explore --n 4`` through ``cli.main`` on the
  default sampling grid, 100 trials per call.  Generation and the scalar
  path dominate; each kernel enumerates only 24 tracks.
* ``sweep-n5``: ``supertrop check --suite all --n 5`` through ``cli.main``,
  two trials per check per call.  The only workload that runs the
  ``maxpoly`` value comparisons, definite rejection sampling,
  ``kleene_star``, ``eval_at_matrix`` and ``conjugate`` under lawcheck.
* ``compute-n6``: the kernel battery a ``supertrop compute`` user runs, on
  tie-heavy rational 6x6 matrices drawn here; lawcheck is bypassed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracer import CHECK_IDS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
MODULES = ("errors", "semiring", "maxpoly", "tropmat", "spectral", "lawcheck", "cli")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable supertrop under src/."""


class Program:
    """supertrop imported afresh from the checkout's ``src/``."""

    def __init__(self):
        if not (SRC / "supertrop" / "__init__.py").is_file():
            raise ProgramMissing(f"no supertrop package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [m for m in sys.modules if m.split(".")[0] == "supertrop"]:
            del sys.modules[name]
        self.pkg = importlib.import_module("supertrop")
        if SRC not in Path(self.pkg.__file__).resolve().parents:
            raise ProgramMissing(f"imported supertrop from {self.pkg.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"supertrop.{name}"))
        self.modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "supertrop"]


@dataclass
class Outcome:
    """What one call did: items attempted, items failed, output digest."""

    items: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    counterexamples: int = 0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_rng(workload: str, seed: int, i: int) -> random.Random:
    """The generator of call i's inputs: a pure function of (workload, seed, i)."""
    return random.Random(f"{workload}/{seed}/{i}")


class LawcheckWorkload:
    """One call is ``supertrop <argv> --trials T --seed S`` run in-process.

    The report goes to an in-memory stdout; its sha256 is the call's
    digest.  The gate: the exit code is 0, the report parses, it holds
    one report per expected check, and every report has passes == trials
    and no failures.  Counterexamples in the open conjecture range are
    counted, not gated.
    """

    item = "trials"

    def __init__(self, name: str, argv: list[str], checks: tuple[str, ...], trials: int,
                 prog: Program, seed: int):
        self.name, self.argv, self.checks, self.trials = name, argv, checks, trials
        self.prog, self.seed = prog, seed
        self.n = int(argv[argv.index("--n") + 1])

    def inputs(self, i: int, seed: int | None = None) -> list[str]:
        s = self.seed if seed is None else seed
        call_seed = call_rng(self.name, s, i).getrandbits(64)
        return [*self.argv, "--trials", str(self.trials), "--seed", str(call_seed)]

    def execute(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.prog.cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a crashed run
            return None, out.getvalue(), f"raised {exc!r}"
        return rc, out.getvalue(), err.getvalue()

    def verify(self, argv: list[str], out) -> Outcome:
        rc, text, err = out
        items = self.trials * len(self.checks)
        oc = Outcome(items, 0, sha256(text))
        try:
            payload = json.loads(text)
            reports = payload["reports"] if "reports" in payload else [payload]
            got = tuple(r["check_id"] for r in reports)
            if got != self.checks:
                raise ValueError(f"checks {got}, want {self.checks}")
            seed = int(argv[argv.index("--seed") + 1])
            for r in reports:
                if r["trials"] != self.trials or r["seed"] != seed or r["config"]["n"] != self.n:
                    raise ValueError(f"{r['check_id']}: report does not match the flags")
                bad = r["trials"] - r["passes"]
                if bad or r["failures"]:
                    oc.failed += max(bad, len(r["failures"]), 1)
                    oc.problems.append(f"{r['check_id']} failed {bad} trial(s) at seed {seed}")
                oc.counterexamples += len(r["counterexamples"])
        except (ValueError, KeyError, TypeError) as exc:
            oc.failed = items
            oc.problems.append(f"unusable report ({exc}); exit {rc}: {err.strip()[-200:]}")
            return oc
        if rc != 0 and not oc.failed:
            oc.failed = items
            oc.problems.append(f"exit {rc}: {err.strip()[-200:]}")
        return oc

    def warm_up(self) -> list[Outcome]:
        argv = self.inputs(0, DEFAULT_SEED)
        return [self.verify(argv, self.execute(argv))]


def explore_n4(prog: Program, seed: int) -> LawcheckWorkload:
    return LawcheckWorkload("explore-n4", ["explore", "--n", "4"],
                            ("reversal_conjecture",), 100, prog, seed)


def sweep_n5(prog: Program, seed: int) -> LawcheckWorkload:
    return LawcheckWorkload("sweep-n5", ["check", "--suite", "all", "--n", "5"],
                            CHECK_IDS, 2, prog, seed)


# -- compute-n6 ----------------------------------------------------------------

NEGINF_ONE_IN = 5   # an off-diagonal entry is -inf with probability 1/5
GHOST_ONE_IN = 10   # a finite entry is a ghost with probability 1/10


def _value(rng: random.Random, lo: int, hi: int):
    q = Fraction(rng.randint(lo, hi), 2)
    return q.numerator if q.denominator == 1 else q


def tie_heavy_matrix(prog: Program, rng: random.Random, n: int):
    """Numerators in [-4, 4] over 2, with -inf and ghost entries.

    The diagonal is never -inf, so the identity track is finite and the
    determinant is never -inf: the pseudo-inverse is always defined.
    """
    s = prog.semiring
    es = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.randrange(NEGINF_ONE_IN) == 0:
                es.append(s.NEG_INF)
                continue
            v = _value(rng, -4, 4)
            es.append(s.ghost(v) if rng.randrange(GHOST_ONE_IN) == 0 else s.tangible(v))
    return prog.tropmat.Matrix(n, n, es)


def _definite_matrix(prog: Program, rng: random.Random, n: int):
    """Tangible-0 diagonal, off-diagonal entries negative or -inf: every
    non-identity cycle is strictly negative, so the matrix is definite."""
    s = prog.semiring
    es = []
    for i in range(n):
        for j in range(n):
            if i == j:
                es.append(s.ONE)
            elif rng.randrange(NEGINF_ONE_IN) == 0:
                es.append(s.NEG_INF)
            else:
                v = _value(rng, -4, -1)
                es.append(s.ghost(v) if rng.randrange(GHOST_ONE_IN) == 0 else s.tangible(v))
    return prog.tropmat.Matrix(n, n, es)


def _gen_permutation_matrix(prog: Program, rng: random.Random, n: int):
    s = prog.semiring
    perm = list(range(n))
    rng.shuffle(perm)
    es = [s.NEG_INF] * (n * n)
    for i in range(n):
        es[i * n + perm[i]] = s.tangible(_value(rng, -4, 4))
    return prog.tropmat.Matrix(n, n, es)


# The gate's own scalar arithmetic, on (kind, value) pairs, so that it does
# not trust the program's add and mul.
def _splus(x, y, ghost_kind):
    if x[1] is None:
        return y
    if y[1] is None:
        return x
    if x[1] != y[1]:
        return x if x[1] > y[1] else y
    return (ghost_kind, x[1])


def _stimes(x, y, ghost_kind):
    if x[1] is None or y[1] is None:
        return x if x[1] is None else y
    kind = ghost_kind if ghost_kind in (x[0], y[0]) else x[0]
    return (kind, x[1] + y[1])


class ComputeWorkload:
    """One call is the kernel battery on one item (A, D, P, P*D).

    A is tie-heavy and rational; D is definite; P is a generalized
    permutation matrix.  The battery runs determinant, adjugate,
    pseudo_inverse, char_poly and eigenvalues on A, kleene_star and
    pseudo_inverse on D, and definite_form on P*D.  The gate checks exact
    identities on every item, and the formatted outputs of the default
    seed's first items against golden digests.
    """

    name = "compute-n6"
    item = "matrices"
    n = 6
    GOLDEN = BENCH / "golden.json"

    def __init__(self, prog: Program, seed: int):
        self.prog, self.seed = prog, seed

    def inputs(self, i: int, seed: int | None = None):
        rng = call_rng(self.name, self.seed if seed is None else seed, i)
        n, prog = self.n, self.prog
        a = tie_heavy_matrix(prog, rng, n)
        d = _definite_matrix(prog, rng, n)
        p = _gen_permutation_matrix(prog, rng, n)
        return a, d, p, prog.tropmat.mat_mul(p, d)

    def execute(self, item):
        st = self.prog.pkg
        a, d, _, m = item
        try:
            return (st.determinant(a), st.adjugate(a), st.pseudo_inverse(a),
                    st.char_poly(a), st.eigenvalues(a), st.kleene_star(d),
                    st.pseudo_inverse(d), st.definite_form(m))
        except Exception as exc:  # a crash is a failed item, not a crashed run
            return exc

    def format(self, out) -> str:
        st = self.prog.pkg
        det, adj, pinv, cp, eig, star, pinv_d, (cond, defin) = out

        def mat(x):
            return json.dumps(st.matrix_to_dict(x))
        return "\n".join([st.format_scalar(det), mat(adj), mat(pinv), st.format_poly(cp),
                          str(eig), mat(star), mat(pinv_d), mat(cond), mat(defin)]) + "\n"

    def verify(self, item, out) -> Outcome:
        if isinstance(out, Exception):
            return Outcome(1, 1, sha256(repr(out)), [f"raised {out!r}"])
        try:
            problems = self._identities(item, out)
            digest = sha256(self.format(out))
        except Exception as exc:  # malformed outputs fail the item
            return Outcome(1, 1, sha256(repr(exc)), [f"malformed output: {exc!r}"])
        return Outcome(1, 1 if problems else 0, digest, problems)

    def _identities(self, item, out) -> list[str]:
        a, d, p, _ = item
        det, adj, _, cp, _, star, pinv_d, (cond, defin) = out
        s = self.prog.semiring
        g, neg_inf = s.GHOST_KIND, (s.NEG_INF_KIND, None)
        n = self.n
        problems = []
        for i in range(n):
            lap = neg_inf
            for k in range(n):
                e, f = a.at(i, k), adj.at(k, i)
                lap = _splus(lap, _stimes((e.kind, e.value), (f.kind, f.value), g), g)
            if lap != (det.kind, det.value):
                problems.append(f"(A adj A)[{i},{i}] = {lap} but det A = {det}")
        trace = neg_inf
        for i in range(n):
            e = a.at(i, i)
            trace = _splus(trace, (e.kind, e.value), g)
        c0, c1 = cp.coeff(0), cp.coeff(n - 1)
        if c0 != det:
            problems.append(f"char_poly coeff 0 = {c0} but det A = {det}")
        if (c1.kind, c1.value) != trace:
            problems.append(f"char_poly coeff {n - 1} = {c1} but trace A = {trace}")
        if any(x.value != y.value for x, y in zip(star.entries, pinv_d.entries)):
            problems.append("kleene_star(D) is not magnitude-equal to pseudo_inverse(D)")
        if cond != p or defin != d:
            problems.append("definite_form(P*D) does not return (P, D)")
        return problems

    def warm_up(self) -> list[Outcome]:
        """Run the default seed's first items and compare with the golden digests."""
        golden = json.loads(self.GOLDEN.read_text(encoding="utf-8"))
        outcomes = []
        for i, want in enumerate(golden["sha256"]):
            item = self.inputs(i, golden["seed"])
            oc = self.verify(item, self.execute(item))
            if oc.digest != want:
                oc.failed = 1
                oc.problems.append(f"golden item {i}: output digest {oc.digest[:12]} "
                                   f"!= {want[:12]}")
            outcomes.append(oc)
        return outcomes


WORKLOADS = {
    "explore-n4": explore_n4,
    "sweep-n5": sweep_n5,
    "compute-n6": ComputeWorkload,
}
