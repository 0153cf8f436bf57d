import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import knotfog
from knotfog import cli, selftest
from knotfog.knotlang import DEPTH_MAX, INT_DIGITS_MAX, KFAM_MAX
from knotfog.seifert import SeifertMatrix, theta

TREFOIL_REPORT = """\
expression   trefoil
genus        [1, 1]
alexander    t^2 - t + 1
slice        no
in_R         no
trivial      no
g1           [2, 2]
g1 bounds:
  lo 2  first-order/twice-genus
  hi 2  first-order/leaf-certificate
warnings: none
"""


class TestInvariants:
    def test_trefoil_table_golden(self, capsys):
        assert cli.main(["invariants", "trefoil"]) == 0
        assert capsys.readouterr().out == TREFOIL_REPORT

    def test_unknot_values(self, capsys):
        assert cli.main(["invariants", "unknot", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["facts"]["genus"] == {"lo": 0, "hi": 0}
        assert data["facts"]["alexander"] == {"min_degree": 0, "coeffs": [1]}
        assert data["first_order_genus"]["lo"] == 0
        assert data["first_order_genus"]["hi"] == 0

    def test_whitehead_row(self, capsys):
        assert cli.main(["invariants", "wh0(kfam(2))", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["expression"] == "wh0(kfam(2), clasp=+)"
        assert data["facts"]["genus"] == {"lo": 1, "hi": 1}
        assert data["facts"]["alexander"] == {"min_degree": 0, "coeffs": [1]}
        assert data["facts"]["slice"] == "yes"
        assert data["first_order_genus"] == {
            "lo": 3, "hi": 3,
            "provenance": data["first_order_genus"]["provenance"]}
        assert [r["bound"] for r in data["first_order_genus"]["provenance"]] == ["lo", "hi"]

    def test_large_genus_double_answers(self, capsys):
        assert cli.main(["invariants", "wh0(atom(A, genus=200, cable=no))"]) == 0
        assert "g1           [201, 201]\n" in capsys.readouterr().out

    def test_parse_error_exits_2(self, capsys):
        assert cli.main(["invariants", "kfam(0)"]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "position" in err

    def test_warnings_shown(self, capsys):
        assert cli.main(["invariants", "wh0(atom(J, genus=1))"]) == 0
        out = capsys.readouterr().out
        assert "warnings:" in out and "noncable" in out

    def test_json_report_is_machine_valid(self, capsys):
        assert cli.main(["invariants", "trefoil # atom(J, genus=2)", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["facts"]["alexander"] == "unknown"
        assert set(data) == {"expression", "facts", "first_order_genus", "warnings"}

    def test_deterministic_output(self, capsys):
        cli.main(["invariants", "ksat(fig8, kfam(2), 1, -2)", "--json"])
        first = capsys.readouterr().out
        cli.main(["invariants", "ksat(fig8, kfam(2), 1, -2)", "--json"])
        assert capsys.readouterr().out == first

    def test_large_kfam_report_is_fast(self):
        # generous budget: guards against a return of the quadratic power
        start = time.perf_counter()
        report = cli.build_report("kfam(2000)")
        assert time.perf_counter() - start < 5.0
        assert report.facts.alexander.degree == 4000

    def test_companion_polynomial_is_never_computed(self):
        # a double's polynomial is 1 whatever its companion's; the product
        # inside the companion would take minutes if anything computed it
        start = time.perf_counter()
        report = cli.build_report("wh0(kfam(3000) # kfam(3000))")
        assert time.perf_counter() - start < 5.0
        assert str(report.facts.alexander) == "1"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = str(Path(knotfog.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "knotfog.cli", *args],
                          capture_output=True, text=True, env=env, timeout=60)


class TestLongChain:
    def test_3000_term_chain_answers(self):
        # past the interpreter's recursion limit: no engine may recurse
        terms = ("wh0(fig8, clasp=-)", "wh0(kfam(1))")
        text = " # ".join(terms[i % 2] for i in range(3000))
        proc = run_cli("invariants", text, "--json")
        assert proc.returncode == 0, proc.stderr[-500:]
        data = json.loads(proc.stdout)
        assert data["facts"]["genus"] == {"lo": 3000, "hi": 3000}
        assert data["facts"]["alexander"] == {"min_degree": 0, "coeffs": [1]}
        assert (data["first_order_genus"]["lo"], data["first_order_genus"]["hi"]) == (6000, 6000)
        assert data["warnings"] == []


class TestKfamLimit:
    @pytest.mark.parametrize("literal", [str(KFAM_MAX + 1), "9" * 4400, "-" + "9" * 4400])
    def test_out_of_range_is_positioned_rejection(self, literal):
        proc = run_cli("invariants", f"kfam({literal})", "--json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("parse error:")
        assert "(at position 5)" in lines[0] and str(KFAM_MAX) in lines[0]

    def test_leading_zeros_do_not_count(self, capsys):
        assert cli.main(["invariants", "kfam(" + "0" * 5000 + "7)"]) == 0
        assert capsys.readouterr().out.startswith("expression   kfam(7)\n")


class TestIntegerLimit:
    @pytest.mark.parametrize("text, position", [
        ("atom(A, genus=" + "9" * 4400 + ")", 14),
        ("ksat(fig8, fig8, " + "9" * 4400 + ", 0)", 16),
        ("ksat(fig8, fig8, 0, -" + "9" * 4400 + ")", 19),
        ("ksat(fig8, fig8, " + "9" * 2500 + ", " + "9" * 2500 + ")", 16),
        ("wh0(atom(A, genus=1" + "0" * INT_DIGITS_MAX + ", cable=no))", 18),
    ], ids=["atom-genus", "ksat-m", "ksat-negative-n", "ksat-both", "one-digit-over"])
    def test_over_long_literal_is_positioned_rejection(self, text, position):
        proc = run_cli("invariants", text, "--json")
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("parse error:")
        assert f"at most {INT_DIGITS_MAX} digits" in lines[0]
        assert lines[0].endswith(f"(at position {position})")

    def test_longest_literals_answer(self, capsys):
        # the extremes the digit bound on INT_DIGITS_MAX covers
        big = "9" * INT_DIGITS_MAX
        for text in (f"ksat(fig8, fig8, {big}, -{big})",
                     f"wh0(atom(A, genus={big}, cable=no))",
                     f"ksat(atom(J, genus={big}, torus=no, cable=no), "
                     f"atom(L, genus={big}, torus=no, cable=no), 0, 0)"):
            assert cli.main(["invariants", text, "--json"]) == 0, text
            assert json.loads(capsys.readouterr().out)["expression"]
        assert cli.main(["invariants", "atom(A, genus=" + "0" * 5000 + "7)"]) == 0
        assert capsys.readouterr().out.startswith("expression   atom(A, genus=7,")


def nest(opener: str, depth: int) -> str:
    """`depth` nested openers of one kind around fig8."""
    closer = {"(": ")", "wh0(": ")", "ksat(": ", trefoil, 0, 0)"}[opener]
    return opener * depth + "fig8" + closer * depth


class TestNestingLimit:
    @pytest.mark.parametrize("text, position", [
        ("(" * 1200 + "trefoil" + ")" * 1200, DEPTH_MAX),
        ("wh0(" * 400 + "fig8" + ")" * 400, 4 * DEPTH_MAX),
    ], ids=["parens-1200", "wh0-400"])
    def test_former_recursion_errors_are_positioned_rejections(self, text, position):
        proc = run_cli("invariants", text)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"parse error: nesting is limited to {DEPTH_MAX} levels "
                               f"(at position {position})\n")

    @pytest.mark.parametrize("opener", ["(", "wh0(", "ksat("])
    def test_depth_max_answers_in_process(self, opener, capsys):
        assert cli.main(["invariants", nest(opener, DEPTH_MAX), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["expression"]

    @pytest.mark.parametrize("opener", ["(", "wh0(", "ksat("])
    def test_one_level_past_is_rejected_at_its_opener(self, opener, capsys):
        text = "trefoil # " + nest(opener, DEPTH_MAX + 1)
        assert cli.main(["invariants", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        position = len("trefoil # ") + len(opener) * DEPTH_MAX
        assert captured.err == (f"parse error: nesting is limited to {DEPTH_MAX} levels "
                                f"(at position {position})\n")

    def test_closed_openers_do_not_count(self, capsys):
        sibling = "(wh0(ksat(fig8, trefoil, 0, 0)))"
        assert cli.main(["invariants", " # ".join([sibling] * DEPTH_MAX)]) == 0
        assert capsys.readouterr().out.startswith("expression   ")

    def test_openers_of_every_kind_count_together(self, capsys):
        text = nest("(", 100).replace("fig8", nest("wh0(", 50).replace("fig8", nest("ksat(", 51)))
        assert cli.main(["invariants", text]) == 2
        assert capsys.readouterr().err.endswith(f"(at position {100 + 4 * 50 + 5 * 50})\n")


FAMILY_TABLE_3 = """\
knot                   g  alexander  slice  g1_lo  g1_hi
wh0(kfam(1), clasp=+)  1  1          yes    2      2
wh0(kfam(2), clasp=+)  1  1          yes    3      3
wh0(kfam(3), clasp=+)  1  1          yes    4      4
"""


class TestFamilyTable:
    def test_golden_three_rows(self, capsys):
        assert cli.main(["family-table", "--n", "3"]) == 0
        assert capsys.readouterr().out == FAMILY_TABLE_3

    def test_single_row(self, capsys):
        assert cli.main(["family-table", "--n", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[1].split() == ["wh0(kfam(1),", "clasp=+)", "1", "1", "yes", "2", "2"]

    def test_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["family-table", "--n", "0"])
        assert exc.value.code == 2

    def test_too_large_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["family-table", "--n", "13"])
        assert exc.value.code == 2

    def test_deterministic(self, capsys):
        cli.main(["family-table", "--n", "8"])
        first = capsys.readouterr().out
        cli.main(["family-table", "--n", "8"])
        assert capsys.readouterr().out == first


class TestSelftestCommand:
    def test_all_pass_and_exit_zero(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(selftest.CRITERIA)
        assert "FAIL" not in out
        assert "9/9 criteria passed" in out

    def test_timings_go_to_stderr_only(self, capsys):
        cli.main(["selftest"])
        captured = capsys.readouterr()
        assert re.search(r"\d+\.\d+s", captured.err)
        assert not re.search(r"\d+\.\d+s", captured.out)

    def test_stdout_is_deterministic(self, capsys):
        cli.main(["selftest"])
        first = capsys.readouterr().out
        cli.main(["selftest"])
        assert capsys.readouterr().out == first

    def test_corrupted_theta_is_caught(self, monkeypatch):
        # deliberate sign-flip fault: the pretzel criterion must go red
        real = theta

        def corrupted(n):
            rows = [list(row) for row in real(n).entries]
            rows[0][1] = -rows[0][1]
            return SeifertMatrix(rows)

        monkeypatch.setattr("knotfog.seifert.theta", corrupted)
        result = selftest.run_criterion("pretzel-polynomial-identity")
        assert not result.passed
        assert "n=1" in result.detail

    def test_failing_criterion_exits_one(self, monkeypatch, capsys):
        real = theta

        def corrupted(n):
            rows = [list(row) for row in real(n).entries]
            rows[0][1] = -rows[0][1]
            return SeifertMatrix(rows)

        monkeypatch.setattr("knotfog.seifert.theta", corrupted)
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL pretzel-polynomial-identity" in out

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
