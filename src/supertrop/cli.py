"""Command line surface.

Four commands: `compute` applies one operation to a matrix file, `demo`
replays a built-in worked example against embedded expected values,
`check` runs the law-checking suite, and `explore` searches for
counterexamples to the open coefficient range of the pseudo-inverse
reversal conjecture.

stdout carries results only; diagnostics go to stderr.  Exit codes:
0 success, 1 parse/usage error, 2 domain error (for example taking the
pseudo-inverse of a strictly singular matrix, or any determinant kernel
on a matrix of order above the fixed size cap, tropmat.DEFAULT_DET_CAP)
or a report that holds a failed law; counterexamples alone exit 0.
Reports are byte deterministic for fixed flags; wall-clock times go to
stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .demos import DEMOS, run_demo
from .errors import ParseError, SupertropicalError
from .lawcheck import (
    CHECK_IDS,
    GenConfig,
    explore_conjecture,
    run_suite,
)
from .maxpoly import format_poly
from .semiring import format_scalar
from .spectral import char_poly, eigenvalues
from .tropmat import (
    definite_form,
    determinant,
    adjugate,
    kleene_star,
    load_matrix,
    matrix_to_dict,
    matrix_to_json,
    pseudo_inverse,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supertrop",
        description="Exact supertropical linear algebra: compute, demo, check, explore.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="apply one operation to a matrix file")
    p_compute.add_argument(
        "what",
        choices=["det", "adj", "nabla", "star", "charpoly", "eigen", "definite-form"],
    )
    p_compute.add_argument("input", help="path to a matrix JSON file")
    p_compute.add_argument("--side", choices=["left", "right"], default="left",
                           help="side for definite-form (default left)")
    p_compute.set_defaults(run=_cmd_compute)

    p_demo = sub.add_parser("demo", help="replay a built-in worked example")
    p_demo.add_argument("example", help=f"one of: {', '.join(sorted(DEMOS))}")
    p_demo.set_defaults(run=_cmd_demo)

    def sampling_flags(p):
        p.add_argument("--n", type=int, default=3, help="matrix order (default 3)")
        p.add_argument("--trials", type=int, default=100, help="trials per check (default 100)")
        p.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
        p.add_argument("--range", type=int, nargs=2, default=[-10, 10],
                       metavar=("LO", "HI"), help="numerator range (default -10 10)")
        p.add_argument("--denominator", type=int, default=1,
                       help="common denominator of sampled entries (default 1)")
        p.add_argument("--neginf-prob", default="1/5",
                       help="probability of a -inf entry, as a rational (default 1/5)")
        p.add_argument("--ghost-prob", default="1/10",
                       help="probability of a ghost entry, as a rational (default 1/10)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p_check = sub.add_parser("check", help="run the law-checking suite")
    p_check.add_argument("--suite", default="all",
                         help=f"'all' or one of: {', '.join(CHECK_IDS)}")
    sampling_flags(p_check)
    p_check.set_defaults(run=_cmd_check)

    p_explore = sub.add_parser("explore", help="search the open conjecture range")
    sampling_flags(p_explore)
    p_explore.set_defaults(run=_cmd_explore)
    return parser


def _config_from_args(args) -> GenConfig:
    try:
        neginf = Fraction(args.neginf_prob)
        ghost = Fraction(args.ghost_prob)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad probability: {exc}") from None
    if args.trials < 0:
        raise ParseError("--trials must be >= 0")
    try:
        return GenConfig(
            n=args.n,
            numerator_range=tuple(args.range),
            denominator=args.denominator,
            neginf_prob=neginf,
            ghost_prob=ghost,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _emit_report(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_compute(args) -> int:
    a = load_matrix(args.input)
    matrix_ops = {"adj": adjugate, "nabla": pseudo_inverse, "star": kleene_star}
    if args.what == "det":
        print(format_scalar(determinant(a)))
    elif args.what in matrix_ops:
        sys.stdout.write(matrix_to_json(matrix_ops[args.what](a)))
    elif args.what == "charpoly":
        print(format_poly(char_poly(a)))
    elif args.what == "eigen":
        # No corner or interval text contains ';', so this splits the two lists.
        print(str(eigenvalues(a)).replace("; ", "\n"))
    elif args.what == "definite-form":
        conductor, definite = definite_form(a, args.side)
        print(json.dumps(
            {"conductor": matrix_to_dict(conductor), "definite": matrix_to_dict(definite)},
            indent=2,
        ))
    return EXIT_OK


def _cmd_demo(args) -> int:
    try:
        lines = run_demo(args.example)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_PARSE
    bad = 0
    for line in lines:
        if line.ok:
            print(f"ok       {line.label}: {line.got}")
        else:
            bad += 1
            print(f"MISMATCH {line.label}: computed {line.got!r}, expected {line.want!r}")
    print(f"demo {args.example}: {len(lines) - bad}/{len(lines)} lines match")
    return EXIT_OK if bad == 0 else EXIT_DOMAIN


def _cmd_check(args) -> int:
    suite = args.suite
    if suite != "all" and suite not in CHECK_IDS:
        print(f"unknown check {suite!r}; known: all, {', '.join(CHECK_IDS)}", file=sys.stderr)
        return EXIT_PARSE
    cfg = _config_from_args(args)
    reports = run_suite(cfg, args.trials, suite)
    failures = sum(len(r.failures) for r in reports)
    counterexamples = sum(len(r.counterexamples) for r in reports)
    payload = {"reports": [r.to_dict() for r in reports]}
    _emit_report(args, payload)
    for r in reports:
        print(f"{r.check_id}: {r.passes}/{r.trials} passed "
              f"({r.elapsed_ms:.0f} ms)", file=sys.stderr)
    if counterexamples:
        print(f"flagged {counterexamples} conjecture counterexample(s)", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_DOMAIN


def _cmd_explore(args) -> int:
    if args.n < 2:
        print("explore needs --n >= 2", file=sys.stderr)
        return EXIT_PARSE
    cfg = _config_from_args(args)
    report = explore_conjecture(cfg, args.trials)
    _emit_report(args, report.to_dict())
    print(f"counterexamples: {len(report.counterexamples)} "
          f"(n={args.n}, trials={args.trials}, seed={args.seed})", file=sys.stderr)
    if report.failures:  # a proven coefficient failed: a library bug
        print(f"failures: {len(report.failures)}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the parse-error code
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SupertropicalError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
