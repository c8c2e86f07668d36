"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria:
  1. the built-in worked examples replay bit-exactly in under a second;
  2. the theorem checkers pass 100% of 500 seeded trials per (check, n)
     for n in {2,3,4,5} with the default sampling grid, within five minutes;
  3. the determinant agrees with an independent permanent oracle on 1000
     instances up to n = 6, and the characteristic polynomial agrees with
     det(xI + A) at 50 sampled points on 200 instances;
  4. the coefficient-reversal conjecture holds wherever it is proven or
     previously machine-verified (asserted coefficients up to n = 6, all
     coefficients for n in {2,3}, triangular up to n = 6, and 10^5 random
     4x4 instances), and the n = 5 explorer emits a well-formed report;
  5. reports are byte-deterministic.
"""

import json
import random
import time
from fractions import Fraction

from supertrop import (
    char_poly,
    determinant,
    identity,
    mat_add,
    poly_eval,
    scalar_mul,
    tangible,
)
from supertrop.cli import main
from supertrop.demos import DEMOS, run_demo
from supertrop.lawcheck import (
    Constraint,
    GenConfig,
    chk_reversal_conjecture,
    explore_conjecture,
    gen_matrix,
    run_check,
)

from conftest import naive_det

THEOREM_CHECKS = (
    "det_product",            # determinant of a product
    "adj_rules",              # adjoint determinant identities
    "adj_product",            # adjoint of a product
    "hamilton_cayley",        # matrix satisfies its polynomial
    "charpoly_power",         # powers of the characteristic polynomial, m = 2, 3
    "nabla_period",           # pseudo-inverse period two + conductor sandwich
    "definite_stabilization", # definite chain and power stabilization
    "similarity",             # conjugation dominates the polynomial
)


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_golden_examples():
    t0 = time.monotonic()
    bad = []
    for demo_id in sorted(DEMOS):
        for line in run_demo(demo_id):
            if not line.ok:
                bad.append(f"{demo_id}/{line.label}: {line.got!r} != {line.want!r}")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 1.0
    _report(1, "golden examples bit-exact in < 1 s", ok,
            f"{elapsed:.2f} s" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_2_theorem_suite():
    t0 = time.monotonic()
    bad = []
    for check_id in THEOREM_CHECKS:
        for n in (2, 3, 4, 5):
            r = run_check(check_id, GenConfig(n=n, seed=42), 500)
            if r.passes != r.trials:
                bad.append(f"{check_id}/n={n}: {r.passes}/{r.trials}")
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300.0
    _report(2, "theorem suite 100% over seed 42, n in 2..5, 500 trials", ok,
            f"{elapsed:.0f} s" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_3_oracles():
    bad = []
    count = 0
    for t in range(1000):
        n = 2 + t % 5  # n in 2..6
        a = gen_matrix(GenConfig(n=n, seed=31_000 + t))
        if determinant(a) != naive_det(a):
            bad.append(f"det oracle trial {t}")
        count += 1
    assert count == 1000
    rng = random.Random(202)
    for t in range(200):
        n = 2 + t % 3
        a = gen_matrix(GenConfig(n=n, seed=47_000 + t))
        f = char_poly(a)
        for _ in range(50):
            x = tangible(Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3])))
            direct = determinant(mat_add(scalar_mul(x, identity(n)), a))
            if poly_eval(f, x) != direct:
                bad.append(f"charpoly oracle trial {t} at x={x}")
                break
    _report(3, "determinant and charpoly oracles agree exactly", not bad,
            "; ".join(bad))


def _nonsingular(cfg_seed: int, n: int):
    return gen_matrix(GenConfig(n=n, seed=cfg_seed), Constraint.NON_SINGULAR)


def test_criterion_4_conjecture():
    bad = []
    # (a) asserted coefficients on non-singular samples up to n = 6
    for n in (2, 3, 4, 5, 6):
        for t in range(250):
            r = chk_reversal_conjecture(_nonsingular(60_000 + 1000 * n + t, n))
            if not r.ok:
                bad.append(f"asserted coefficients n={n} trial {t}: {r.details}")
    # (b) every coefficient for n in {2, 3}
    for n in (2, 3):
        cfg = GenConfig(n=n, seed=71_000 + n)
        r = explore_conjecture(cfg, 500)
        if r.passes != 500 or r.counterexamples:
            bad.append(f"n={n}: passes {r.passes}, cx {len(r.counterexamples)}")
    # (b) triangular matrices up to n = 6: exact reversal is asserted
    for n in (2, 3, 4, 5, 6):
        for t in range(250):
            a = gen_matrix(GenConfig(n=n, seed=82_000 + 1000 * n + t),
                           Constraint.TRIANGULAR)
            r = chk_reversal_conjecture(a)
            if not r.ok or r.counterexample is not None:
                bad.append(f"triangular n={n} trial {t}: {r.details}")
    # (b) 10^5 random 4x4 instances
    cfg = GenConfig(n=4, seed=93_000)
    r = explore_conjecture(cfg, 100_000)
    if r.passes != 100_000 or r.counterexamples:
        bad.append(f"4x4 sweep: passes {r.passes}, cx {len(r.counterexamples)}")
    # (c) the n = 5 explorer completes with a well-formed report; its
    # mathematical outcome is not gated
    cfg = GenConfig(n=5, seed=94_000)
    r5 = explore_conjecture(cfg, 2000)
    d = json.loads(r5.to_json())
    if set(d) != {"check_id", "seed", "config", "trials", "passes",
                  "failures", "counterexamples"} or d["trials"] != 2000:
        bad.append("n=5 explorer report malformed")
    if d["failures"]:
        bad.append(f"n=5 explorer recorded {len(d['failures'])} assertion failures")
    _report(4, "conjecture holds on every proven/verified range", not bad,
            f"n=5 open-range counterexamples: {len(r5.counterexamples)}"
            + ("; " + "; ".join(bad[:4]) if bad else ""))


def test_criterion_5_determinism(tmp_path):
    bad = []
    paths = [tmp_path / f"r{i}.json" for i in range(4)]
    argv = ["check", "--n", "3", "--trials", "30", "--seed", "42", "--out"]
    assert main(argv + [str(paths[0])]) == 0
    assert main(argv + [str(paths[1])]) == 0
    if paths[0].read_bytes() != paths[1].read_bytes():
        bad.append("check reports differ")
    argv = ["explore", "--n", "4", "--trials", "300", "--seed", "9", "--out"]
    assert main(argv + [str(paths[2])]) == 0
    assert main(argv + [str(paths[3])]) == 0
    if paths[2].read_bytes() != paths[3].read_bytes():
        bad.append("explore reports differ")
    _report(5, "check/explore reports are byte-identical across runs", not bad,
            "; ".join(bad))
