"""Command surface: outputs, exit codes, round-trips, report determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supertrop import cli, lawcheck, matrix_from_dict, matrix_to_json
from supertrop.cli import main

from conftest import mat


@pytest.fixture
def ex61(tmp_path):
    p = tmp_path / "ex61.json"
    p.write_text(matrix_to_json(mat("1 0 -inf; 3 4 -inf; -inf -inf 1")))
    return str(p)


@pytest.fixture
def strictly_singular(tmp_path):
    p = tmp_path / "ss.json"
    p.write_text(matrix_to_json(mat("-inf -inf; -inf -inf")))
    return str(p)


def test_compute_det(capsys, ex61):
    assert main(["compute", "det", ex61]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_compute_charpoly(capsys, ex61):
    assert main(["compute", "charpoly", ex61]) == 0
    assert capsys.readouterr().out.strip() == "6, 5g, 4, 0"


def test_compute_nabla_round_trips(capsys, ex61):
    assert main(["compute", "nabla", ex61]) == 0
    out = capsys.readouterr().out
    assert matrix_from_dict(json.loads(out)) == mat("-1 -5 -inf; -2 -4 -inf; -inf -inf -1")


def test_compute_adj_and_eigen(capsys, ex61):
    assert main(["compute", "adj", ex61]) == 0
    out = capsys.readouterr().out
    assert matrix_from_dict(json.loads(out)) == mat("5 1 -inf; 4 2 -inf; -inf -inf 5")
    assert main(["compute", "eigen", ex61]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "corner: (1, 2), (4, 1)"
    assert out[1] == "noncorner: none"


def test_compute_definite_form(capsys, ex61):
    assert main(["compute", "definite-form", ex61, "--side", "right"]) == 0
    d = json.loads(capsys.readouterr().out)
    conductor = matrix_from_dict(d["conductor"])
    definite = matrix_from_dict(d["definite"])
    from supertrop import is_definite, mat_mul

    assert is_definite(definite)
    assert mat_mul(definite, conductor) == mat("1 0 -inf; 3 4 -inf; -inf -inf 1")


def test_compute_star(capsys, tmp_path):
    p = tmp_path / "d.json"
    p.write_text(matrix_to_json(mat("0 -1; -2 0")))
    assert main(["compute", "star", str(p)]) == 0
    out = capsys.readouterr().out
    assert matrix_from_dict(json.loads(out)) == mat("0 -1; -2 0")


def test_compute_nabla_of_identity(capsys, tmp_path):
    from supertrop import identity

    p = tmp_path / "i3.json"
    p.write_text(matrix_to_json(identity(3)))
    assert main(["compute", "nabla", str(p)]) == 0
    assert matrix_from_dict(json.loads(capsys.readouterr().out)) == identity(3)


def test_compute_exit_codes(capsys, strictly_singular, tmp_path):
    assert main(["compute", "det", strictly_singular]) == 0
    assert capsys.readouterr().out.strip() == "-inf"
    assert main(["compute", "nabla", strictly_singular]) == 2
    assert "domain error" in capsys.readouterr().err
    assert main(["compute", "det", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    for data in (b'{"rows": 1}',
                 b'{"rows": 1, "cols": 1, "entries": [["\xff"]]}',
                 b"[" * 100000 + b"]" * 100000,
                 b'{"rows": 1, "cols": 1, "entries": [["' + b"1" * 5000 + b'"]]}'):
        bad.write_bytes(data)
        assert main(["compute", "det", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    big = tmp_path / "big.json"
    from supertrop import identity

    big.write_text(matrix_to_json(identity(17)))
    assert main(["compute", "det", str(big)]) == 2
    assert "capped at n <= 16" in capsys.readouterr().err
    # the size cap is fixed: there is no flag to move it
    assert main(["compute", "det", str(big), "--det-cap", "17"]) == 1


def test_demo_exit_codes(capsys):
    for ex in ("2.30", "3.6", "5.3", "6.1"):
        assert main(["demo", ex]) == 0, ex
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
    assert main(["demo", "bogus"]) == 1


def test_check_report_and_determinism(tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    argv = ["check", "--suite", "det_product", "--n", "2", "--trials", "10",
            "--seed", "1", "--out"]
    assert main(argv + [out1]) == 0
    assert main(argv + [out2]) == 0
    b1, b2 = Path(out1).read_bytes(), Path(out2).read_bytes()
    assert b1 == b2
    d = json.loads(b1)
    assert d["reports"][0]["passes"] == 10
    # stdout stayed clean because --out was given
    assert capsys.readouterr().out == ""


def test_check_whole_suite_stdout(capsys):
    assert main(["check", "--n", "2", "--trials", "5", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    d = json.loads(out)
    assert len(d["reports"]) == 9


def test_check_flag_validation(capsys):
    assert main(["check", "--suite", "wat", "--n", "2"]) == 1
    assert main(["check", "--n", "2", "--neginf-prob", "7/3"]) == 1
    assert main(["check", "--suite", "det_product", "--n", "2", "--trials", "-3"]) == 1
    assert main(["explore", "--n", "2", "--trials", "-3"]) == 1
    assert capsys.readouterr().out == ""


def test_probability_past_the_int_digit_limit_exits_1_before_drawing(capsys, monkeypatch):
    """1e-5000 parses to a Fraction whose denominator has more digits than
    str() prints, so the report could not show it: the config refuses it."""
    def no_draw(rng, cfg, constraint):
        raise AssertionError("drew a matrix for an unprintable probability")

    monkeypatch.setattr(lawcheck, "_gen_with_rng", no_draw)
    for flag in ("--neginf-prob", "--ghost-prob"):
        assert main(["check", "--suite", "det_product", "--n", "2", "--trials", "2",
                     flag, "1e-5000"]) == 1
        assert main(["explore", "--n", "2", "--trials", "2", flag, "1e-5000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: probabilities must print") == 4


def test_compute_result_past_the_int_digit_limit_exits_2(capsys, tmp_path):
    """Each 4300-digit entry parses, but det(A), and with it the constant
    coefficient of f_A, is their sum: 4301 digits, more than str() prints.
    One domain error line, no traceback, nothing on stdout."""
    big = "9" * 4300
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[big, "-inf"], ["-inf", big]]}))
    for what in ("det", "charpoly"):
        assert main(["compute", what, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "domain error: cannot print a value past the int-to-str digit limit"]


def test_check_above_the_size_cap_exits_2_before_drawing(capsys, monkeypatch):
    def no_draw(rng, cfg, constraint):
        raise AssertionError("drew a matrix above the size cap")

    monkeypatch.setattr(lawcheck, "_gen_with_rng", no_draw)
    assert main(["check", "--suite", "det_product", "--n", "17", "--trials", "1"]) == 2
    assert main(["explore", "--n", "17", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("capped at n <= 16, got n = 17") == 2


# sha256 of the stdout of these commands: reports stay byte identical
# across changes that keep every result the same.
PINNED_REPORTS = [
    (["check", "--suite", "all", "--n", "5", "--trials", "60", "--seed", "42"],
     "2bb833de3833ec0f373de63bad3693d502d99f2f9d3bba6ecd2e9fbb7e9432e1"),
    (["check", "--suite", "all", "--n", "4", "--trials", "40", "--seed", "3",
      "--range", "-2", "2", "--denominator", "2"],
     "02d048ee36fde9502c8bba712c389f7f9320a8dce16d3cc7afe7586ec4c449e0"),
    (["check", "--suite", "similarity", "--n", "6", "--trials", "300", "--seed", "11",
      "--range", "-2", "2", "--denominator", "2"],
     "0aea68e2d1781e48df7f8b7facf12577ce44bf370a50fb1c8aa715a8d3f7ed1a"),
    (["explore", "--n", "4", "--trials", "100", "--seed", "0"],
     "c4cff4de354352aba73a5a2620550805e86122a1472d08faa1155257113566d8"),
    # A probability with denominator 1 and Fraction entries.
    (["check", "--suite", "all", "--n", "3", "--trials", "30", "--seed", "5",
      "--range", "-3", "3", "--denominator", "3", "--neginf-prob", "1/3",
      "--ghost-prob", "0"],
     "c2614cab7edc115fb8909820d396145cc9d3f9c17f066d99534264bbd15a0248"),
]


@pytest.mark.parametrize("flags, digest", PINNED_REPORTS)
def test_check_reports_match_their_pinned_digests(capsys, flags, digest):
    assert main(flags) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_one_parser_serves_every_call_and_keeps_no_flag_values(tmp_path, capsys, monkeypatch):
    """Across a run of main calls the parser is built once, and each argv
    gives the same bytes whichever call came before it: a flag given to one
    call is back at its default in the next."""
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(parser, **kwargs):
        builds.append(parser.prog)
        return add_subparsers(parser, **kwargs)

    out = tmp_path / "adj.json"
    runs = [
        ["check", "--suite", "adj_rules", "--n", "3", "--trials", "3", "--seed", "9",
         "--range", "-2", "2", "--out", str(out)],
        ["check", "--n", "3", "--trials", "3", "--seed", "9"],
        ["explore", "--n", "4", "--trials", "5"],
    ]

    def run(argv):
        out.unlink(missing_ok=True)
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        return out.read_bytes() if "--out" in argv else stdout.encode()

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli._build_parser.cache_clear()
    try:
        forward = [run(argv) for argv in runs]
        backward = [run(argv) for argv in reversed(runs)][::-1]
    finally:
        cli._build_parser.cache_clear()
    assert builds == ["supertrop"]
    assert forward == backward
    reports = json.loads(forward[1])["reports"]
    assert [r["check_id"] for r in reports] == list(lawcheck.CHECK_IDS)
    assert all(r["config"]["numerator_range"] == [-10, 10] for r in reports)
    assert json.loads(forward[0])["reports"][0]["config"]["numerator_range"] == [-2, 2]


def test_explore_cli(tmp_path, capsys):
    out1, out2 = str(tmp_path / "e1.json"), str(tmp_path / "e2.json")
    argv = ["explore", "--n", "2", "--trials", "40", "--seed", "7", "--out"]
    assert main(argv + [out1]) == 0
    assert main(argv + [out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    d = json.loads(Path(out1).read_text())
    assert d["check_id"] == "reversal_conjecture"
    assert d["counterexamples"] == []
    err = capsys.readouterr().err
    assert "counterexamples: 0" in err
    assert main(["explore", "--n", "1"]) == 1


def test_a_failed_proven_coefficient_exits_2(tmp_path, capsys, monkeypatch):
    """With every coefficient comparison answering no, each n = 5 trial
    fails a proven coefficient: explore exits 2 and counts the failures on
    stderr, and check also reports the flagged counterexamples there."""
    monkeypatch.setattr(lawcheck, "ghost_surpasses", lambda *args: False)
    out = str(tmp_path / "e.json")
    assert main(["explore", "--n", "5", "--trials", "3", "--out", out]) == 2
    report = json.loads(Path(out).read_text())
    assert len(report["failures"]) == 3
    assert "failures: 3" in capsys.readouterr().err
    assert main(["check", "--suite", "reversal_conjecture", "--n", "5", "--trials", "3",
                 "--out", out]) == 2
    flagged = len(json.loads(Path(out).read_text())["reports"][0]["counterexamples"])
    assert flagged > 0
    assert f"flagged {flagged} conjecture counterexample(s)" in capsys.readouterr().err


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "supertrop", "demo", "6.1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "8/8 lines match" in proc.stdout
