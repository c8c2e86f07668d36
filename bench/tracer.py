"""In-memory span tracer that wraps supertrop's public functions from outside.

Each traced function is wrapped by rebinding its name in every module
namespace that binds it (``lawcheck.determinant`` and
``tropmat.determinant`` are the same object bound twice, so both are
rebound).  A span records its name, the span that caused it, the call
and trial it belongs to, and its start and end; spans stay in memory
and are written out when the run ends.  Self time is a span's duration
minus the part of it that its child spans cover; it is accumulated
online, per function.

Scalar ``add``/``mul`` and ``poly_eval`` run millions of times, so they
are counted instead of spanned, by a ``Counter`` in a pass of their own:
its wrappers cost a Python call each, which would otherwise be charged
to the self time of whichever span called them.  ``tropmat._det_on``
inlines its arithmetic, so the scalar counts exclude determinant work.
"""

from __future__ import annotations

import dataclasses
import json
import time
from fractions import Fraction

# (module, function) pairs traced with spans, in report order.
SPANNED = (
    ("cli", "main"),
    ("lawcheck", "run_check"),
    ("tropmat", "determinant"),
    ("tropmat", "classify"),
    ("tropmat", "is_definite"),
    ("tropmat", "adjugate"),
    ("tropmat", "pseudo_inverse"),
    ("tropmat", "mat_mul"),
    ("tropmat", "mat_pow"),
    ("tropmat", "definite_form"),
    ("tropmat", "kleene_star"),
    ("spectral", "char_poly"),
    ("spectral", "eigenvalues"),
    ("spectral", "conjugate"),
    ("spectral", "eval_at_matrix"),
    ("maxpoly", "roots"),
    ("maxpoly", "poly_value_surpasses"),
    ("maxpoly", "poly_value_equal"),
    ("maxpoly", "poly_pow"),
    ("maxpoly", "essential"),
)
GEN = "lawcheck.gen"  # lawcheck._gen_with_rng, the only generation boundary
# Calls of these directly inside a generation span are generation attempts.
ATTEMPTS = ("tropmat.classify", "tropmat.is_definite")
CHECK_IDS = (
    "det_product", "adj_rules", "adj_product", "nabla_period",
    "definite_stabilization", "similarity", "charpoly_power",
    "hamilton_cayley", "reversal_conjecture",
)


def rebind(modules, original, replacement) -> list[tuple]:
    """Point every name bound to ``original`` in ``modules`` at ``replacement``.

    Returns the undo list for ``restore``.
    """
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo: list[tuple]) -> None:
    for mod, attr, val in reversed(undo):
        setattr(mod, attr, val)


class Tracer:
    """Spans and counters for one traced phase of a run."""

    def __init__(self, prog):
        self.prog = prog
        self.spans: list[tuple] = []   # (name, parent, call, trial, start_s, end_s)
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.call = -1
        self.trial = -1
        self.attempts = 0
        self.accepted = 0
        self._stack: list[list] = []   # frames: [name, start, child_s, attempts, span]
        self._new_trial = False
        self._undo: list[tuple] = []
        self._checks: dict = {}
        self._t0 = time.perf_counter()

    # -- span bookkeeping --------------------------------------------------

    def _open(self, name: str) -> None:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None and name in ATTEMPTS and parent[0] == GEN:
            parent[3] += 1
            self.attempts += 1
        if name == GEN and parent is not None and parent[0] == "lawcheck.run_check" \
                and self._new_trial:
            # The first generation inside run_check after a check finished
            # starts the next trial.
            self.trial += 1
            self._new_trial = False
        elif name == "lawcheck.run_check":
            self._new_trial = True
        span = len(self.spans)
        self.spans.append(None)
        stack.append([name, time.perf_counter(), 0.0, 0, span])

    def _close(self) -> None:
        end = time.perf_counter()
        name, start, child, attempts, span = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][4]
        else:
            parent = -1
        self.spans[span] = (name, parent, self.call, self.trial,
                            start - self._t0, end - self._t0)
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur - child
        st[2] += dur
        if name == GEN and attempts:
            self.accepted += 1
        elif name.startswith("lawcheck.check."):
            self._new_trial = True

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        prog = self.prog
        mods = prog.modules
        for mod, fn in SPANNED:
            orig = getattr(getattr(prog, mod), fn)
            self._undo += rebind(mods, orig, self._spanned(f"{mod}.{fn}", orig))
        lc = prog.lawcheck
        self._undo += rebind(mods, lc._gen_with_rng, self._spanned(GEN, lc._gen_with_rng))
        # run_check reaches each checker through the CHECKS table, not by name.
        self._checks = dict(lc.CHECKS)
        for cid in CHECK_IDS:
            defn = lc.CHECKS[cid]
            lc.CHECKS[cid] = dataclasses.replace(
                defn, fn=self._spanned(f"lawcheck.check.{cid}", defn.fn))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []
        self.prog.lawcheck.CHECKS.update(self._checks)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over the traced phase, named module.function.stat."""
        out: dict[str, float] = {}

        def put(name: str) -> None:
            calls, self_s, total_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_s * 1000.0
            out[f"{name}.total_ms"] = total_s * 1000.0

        for mod, fn in SPANNED:
            put(f"{mod}.{fn}")
            if (mod, fn) == ("lawcheck", "run_check"):
                put(GEN)
                out[f"{GEN}.attempts"] = self.attempts
                out[f"{GEN}.accept_ratio"] = (
                    self.accepted / self.attempts if self.attempts else 0.0)
                for cid in CHECK_IDS:
                    calls, _, total_s = self.stats.get(f"lawcheck.check.{cid}", (0, 0.0, 0.0))
                    out[f"lawcheck.check.{cid}.ms_per_trial"] = (
                        total_s * 1000.0 / calls if calls else 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, call, trial, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "call": call,
                    "trial": trial, "start_us": round(start * 1e6, 1),
                    "end_us": round(end * 1e6, 1),
                }) + "\n")



class Counter:
    """Counts of scalar ``add``/``mul`` and ``poly_eval`` calls, without spans."""

    def __init__(self, prog):
        self.prog = prog
        self.counts = {"add": 0, "mul": 0, "frac": 0, "poly_eval": 0}
        self._undo: list[tuple] = []

    def install(self) -> None:
        prog, counts = self.prog, self.counts
        add, mul, poly_eval = prog.semiring.add, prog.semiring.mul, prog.maxpoly.poly_eval

        def counted_add(a, b):
            counts["add"] += 1
            if type(a.value) is Fraction or type(b.value) is Fraction:
                counts["frac"] += 1
            return add(a, b)

        def counted_mul(a, b):
            counts["mul"] += 1
            if type(a.value) is Fraction or type(b.value) is Fraction:
                counts["frac"] += 1
            return mul(a, b)

        def counted_poly_eval(f, x):
            counts["poly_eval"] += 1
            return poly_eval(f, x)

        self._undo += rebind(prog.modules, add, counted_add)
        self._undo += rebind(prog.modules, mul, counted_mul)
        self._undo += rebind(prog.modules, poly_eval, counted_poly_eval)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def metrics(self) -> dict[str, float]:
        c = self.counts
        scalar = c["add"] + c["mul"]
        return {
            "maxpoly.poly_eval.calls": c["poly_eval"],
            "semiring.add.calls": c["add"],
            "semiring.mul.calls": c["mul"],
            "semiring.frac_share": c["frac"] / scalar if scalar else 0.0,
        }
