import ast
import atexit
import contextlib
import errno
import importlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

import cli_oracle
import knotfog
from knotfog import cli, selftest
from knotfog.classical import IntInterval
from knotfog.knotlang import DEPTH_MAX, INT_DIGITS_MAX, KFAM_MAX, parse
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
        report = cli.report(parse("kfam(2000)"))
        assert time.perf_counter() - start < 5.0
        assert len(report.facts.alexander.coeffs) == 4001

    def test_companion_polynomial_is_never_computed(self):
        # a double's polynomial is 1 whatever its companion's; the product
        # inside the companion would take minutes if anything computed it
        start = time.perf_counter()
        report = cli.report(parse("wh0(kfam(3000) # kfam(3000))"))
        assert time.perf_counter() - start < 5.0
        assert str(report.facts.alexander) == "1"


def json_report(text: str) -> dict:
    return cli.report(parse(text)).to_json()


class TestJsonWriter:
    """`cli._json` writes `--json` without the json module; json.dumps with
    indent=2 is the oracle."""

    def test_seeded_reports(self):
        rng = random.Random(20261020)
        for _ in range(2000):
            data = cli.report(selftest.random_expr(rng, rng.randint(1, 6))).to_json()
            assert cli._json(data) == json.dumps(data, indent=2)

    @pytest.mark.parametrize("text, escaped", [
        ("atom(Ж, genus=1) # atom(ǅ, genus=2)", r"atom(\u0416, genus=1"),
        ("atom(𝔄, genus=1)", r"atom(\ud835\udd04, genus=1"),  # a surrogate pair
    ])
    def test_names_outside_ascii_get_json_escapes(self, text, escaped):
        data = json_report(text)
        assert cli._json(data) == json.dumps(data, indent=2)
        assert escaped in cli._json(data)

    def test_long_int_list(self):
        data = json_report("kfam(64)")
        assert len(data["facts"]["alexander"]["coeffs"]) == 129
        assert cli._json(data) == json.dumps(data, indent=2)

    def test_unbounded_hi_and_no_warnings(self):
        data = json_report("atom(A, genus=2)")
        assert data["first_order_genus"]["hi"] is None and data["warnings"] == []
        assert cli._json(data) == json.dumps(data, indent=2)
        assert '"hi": null' in cli._json(data) and '"warnings": []' in cli._json(data)

    def test_empty_containers_and_escapes(self):
        data = {"": {}, "a\tb": [[], "q\"uote", "back\\slash", "\x7f", None, -3, 0]}
        assert cli._json(data) == json.dumps(data, indent=2)

    @pytest.mark.parametrize("value", [1.5, True, (1, 2), {1: 2}, [b"x"]])
    def test_unsupported_type_is_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


def python_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this knotfog."""
    src = str(Path(knotfog.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this knotfog."""
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=python_env(), timeout=60)


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so a traceback would reach stderr."""
    return run_python("-m", "knotfog.cli", *args)


class TestBrokenPipe:
    def test_reader_closing_early_exits_141_in_silence(self):
        # about 290 KB of report, more than a 64 KiB pipe buffer holds,
        # so the CLI is still writing when the reader goes away
        proc = subprocess.Popen([sys.executable, "-m", "knotfog.cli", "invariants", "kfam(300)"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env())
        try:
            assert proc.stdout.read(1) == b"e"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()


class Exited(Exception):
    """Raised by the patched `os._exit`: the status, and the bytes stdout held."""


class Unwritable(io.RawIOBase):
    """A raw stream whose every write fails with `error`."""

    def __init__(self, error: OSError):
        self.error = error

    def writable(self) -> bool:
        return True

    def write(self, data):
        raise self.error


DISK_FULL = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestEntryExit:
    """`cli.entry()` in process: the patched `os._exit` raises `Exited`, and
    `atexit._run_exitfuncs` only logs its call, so pytest's own handlers
    neither run nor get cleared."""

    @pytest.fixture
    def entry(self, monkeypatch):
        log = []

        def run(argv: list[str], raw: io.RawIOBase | None,
                encoding: str = "utf-8") -> tuple[int, bytes | None]:
            """Exit status and flushed stdout bytes of `knotfog *argv` with a
            block-buffered stdout in `encoding` writing to `raw`, or no stdout
            at all."""
            log.clear()

            def fake_exit(status):
                log.append("exit")
                raise Exited(status, raw.getvalue() if isinstance(raw, io.BytesIO) else None)

            monkeypatch.setattr(os, "_exit", fake_exit)
            monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: log.append("atexit"))
            monkeypatch.setattr(sys, "argv", ["knotfog", *argv])
            monkeypatch.setattr(sys, "stdout", None if raw is None else io.TextIOWrapper(
                io.BufferedWriter(raw), encoding=encoding))
            with pytest.raises(Exited) as exc:
                cli.entry()
            assert log == ["atexit", "exit"]
            return exc.value.args

        return run

    def test_report_is_flushed_then_exit_0(self, entry, capsys):
        assert entry(["invariants", "trefoil"], io.BytesIO()) == (0, TREFOIL_REPORT.encode())
        assert capsys.readouterr().err == ""

    def test_parse_error_exits_2(self, entry, capsys):
        assert entry(["invariants", "kfam(0)"], io.BytesIO()) == (2, b"")
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_unprintable_answer_exits_2(self, entry, capsys):
        text = " # ".join([TestUnprintableAnswer.KSAT] * 3)
        assert entry(["invariants", text], io.BytesIO()) == (2, b"")
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: the answer has an integer")

    @pytest.mark.parametrize("expression", ["trefoil", "kfam(300)"])
    def test_full_stdout_is_one_line_and_exit_2(self, entry, capsys, expression):
        # the short report fails at the flush, the long one inside print
        assert entry(["invariants", expression], Unwritable(DISK_FULL)) == (2, None)
        assert capsys.readouterr().err == \
            "error: cannot write the report: [Errno 28] No space left on device\n"

    def test_closed_stdout_is_one_line_and_exit_2(self, entry, capsys):
        assert entry(["invariants", "trefoil"], None) == (2, None)
        assert capsys.readouterr().err == "error: cannot write the report: stdout is closed\n"

    def test_unencodable_report_is_one_line_and_exit_2(self, entry, capsys):
        # the table spells the name; --json escapes it and still answers
        text = "atom(\u0416, genus=1)"
        assert entry(["invariants", text], io.BytesIO(), "ascii") == (2, b"")
        assert capsys.readouterr().err == ("error: cannot write the report: 'ascii' codec can't "
                                           "encode character '\\u0416' in position 18: "
                                           "ordinal not in range(128)\n")
        status, out = entry(["invariants", text, "--json"], io.BytesIO(), "ascii")
        assert status == 0 and b'"atom(\\u0416, genus=1, ' in out

    def test_unwritable_stderr_too_still_exits_2(self, entry, monkeypatch):
        monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(
            io.BufferedWriter(Unwritable(DISK_FULL)), line_buffering=True))
        assert entry(["invariants", "kfam(0)"], io.BytesIO()) == (2, b"")

    def test_broken_pipe_exits_141_in_silence(self, entry, capsys):
        pipe = Unwritable(BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)))
        assert entry(["invariants", "trefoil"], pipe) == (141, None)
        assert capsys.readouterr().err == ""

    def test_usage_error_keeps_system_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["knotfog", "bogus"])
        monkeypatch.setattr(os, "_exit", lambda status: pytest.fail("os._exit called"))
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestEntryProcess:
    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["table", "json"])
    def test_long_report_is_what_main_prints(self, flags, capsys):
        # about 290 KB, more than a pipe holds
        argv = ["invariants", "kfam(300)", *flags]
        proc = subprocess.run([sys.executable, "-m", "knotfog.cli", *argv],
                              capture_output=True, env=python_env(), timeout=60)
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out.encode()
        assert len(expected) > 1 << 16
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == expected

    def test_atexit_handler_still_runs(self):
        proc = run_python("-c", "import atexit, sys; from knotfog import cli; "
                          "atexit.register(print, 'handler ran', file=sys.stderr); "
                          "sys.argv[1:] = ['invariants', 'trefoil']; cli.entry()")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, TREFOIL_REPORT, "handler ran\n")

    def test_unencodable_report_is_one_line_and_exit_2(self):
        proc = subprocess.run([sys.executable, "-m", "knotfog.cli", "invariants",
                               "atom(\u0416, genus=1)"], capture_output=True,
                              env={**python_env(), "PYTHONIOENCODING": "ascii"}, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode("ascii").splitlines() == [
            "error: cannot write the report: 'ascii' codec can't encode character '\\u0416'"
            " in position 18: ordinal not in range(128)"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_one_line_and_exit_2(self):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "knotfog.cli", "invariants", "trefoil"],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=python_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write the report: [Errno 28] No space left on device\n"


class TestDecimalDigits:
    @pytest.mark.parametrize("text, position", [
        ("kfam(²)", 5), ("atom(A, genus=²)", 14), ("ksat(fig8, fig8, ¹, 0)", 17),
    ], ids=["kfam", "atom-genus", "ksat-m"])
    def test_superscripts_are_positioned_rejections(self, text, position):
        # str.isdigit() accepts superscripts, which int() refuses
        proc = run_cli("invariants", text)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"parse error: expected an integer (at position {position})\n"

    def test_other_decimal_scripts_still_read(self, capsys):
        assert cli.main(["invariants", "kfam(١٢)"]) == 0
        arabic = capsys.readouterr().out
        assert cli.main(["invariants", "kfam(12)"]) == 0
        assert arabic == capsys.readouterr().out

    def test_leading_zeros_of_any_script_do_not_count(self):
        arabic, ascii_ = run_cli("invariants", "kfam(٠٠٠٠٠٧)"), run_cli("invariants", "kfam(7)")
        assert arabic.returncode == ascii_.returncode == 0, arabic.stderr
        assert (arabic.stdout, arabic.stderr) == (ascii_.stdout, ascii_.stderr)

    def test_zeros_past_the_digit_limit_then_one_answer(self):
        proc = run_cli("invariants", "atom(A, genus=" + "٠" * (INT_DIGITS_MAX + 1) + "1)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("expression   atom(A, genus=1, ")
        assert "genus        [1, 1]\n" in proc.stdout


class TestUnprintableAnswer:
    KSAT = "ksat(fig8, fig8, {0}, {0})".format("9" * INT_DIGITS_MAX)

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["table", "json"])
    def test_past_the_int_to_str_limit_is_one_line_and_exit_2(self, flags):
        proc = run_cli("invariants", " # ".join([self.KSAT] * 3), *flags)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "4300 digits" in lines[0] and "set_int_max_str_digits" not in lines[0]

    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["table", "json"])
    def test_under_the_limit_still_answers(self, flags):
        # two such terms: coefficients of up to 4001 digits
        proc = run_cli("invariants", " # ".join([self.KSAT] * 2), *flags)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stderr == ""
        assert max(map(len, re.findall(r"\d+", proc.stdout))) == 4001


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

    def test_row_off_the_closed_form_is_refused(self, monkeypatch):
        # g1 = n + 2 on row n: still pairwise distinct, yet not the family's g1 = n + 1
        real = cli.report

        def shifted(expr):
            answer = real(expr)
            fog = answer.fog
            return answer._replace(fog=fog._replace(interval=IntInterval(fog.lo + 1, fog.hi + 1)))

        monkeypatch.setattr(cli, "report", shifted)
        with pytest.raises(AssertionError, match=r"family row 1: .* g1 \[3, 3\] != \[2, 2\]"):
            cli.family_table(3)
        result = selftest.run_criterion("whitehead-family-table")
        assert not result.passed
        assert "family row 1" in result.detail

    def test_optimized_run_prints_the_same(self):
        plain = run_cli("family-table", "--n", "12")
        optimized = run_python("-O", "-m", "knotfog.cli", "family-table", "--n", "12")
        assert plain.returncode == optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout


class SelftestRun(NamedTuple):
    status: int
    out: str
    err: str


@pytest.fixture(scope="module")
def selftest_runs() -> tuple[SelftestRun, SelftestRun]:
    """Two captured `knotfog selftest` runs, shared by the tests that only read them."""
    def run() -> SelftestRun:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(["selftest"])
        return SelftestRun(status, out.getvalue(), err.getvalue())
    return run(), run()


class TestSelftestCommand:
    def test_all_pass_and_exit_zero(self, selftest_runs):
        status, out, _ = selftest_runs[0]
        assert status == 0
        assert out.count("PASS") == len(selftest.CRITERIA)
        assert "FAIL" not in out
        assert "9/9 criteria passed" in out

    def test_timings_go_to_stderr_only(self, selftest_runs):
        captured = selftest_runs[0]
        assert re.search(r"\d+\.\d+s", captured.err)
        assert not re.search(r"\d+\.\d+s", captured.out)

    def test_stdout_is_deterministic(self, selftest_runs):
        first, second = selftest_runs
        assert second.out == first.out

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

    def test_passes_without_numpy_and_loads_no_typing(self):
        # one interpreter for both checks: -S, since `site` may import typing;
        # -O, since every check raises explicitly; selftest's timings precede
        # the last line of stderr
        code = ("import sys; sys.modules['numpy'] = None; import knotfog.cli; "
                "status = knotfog.cli.main(['selftest']); "
                "print(status, *[m for m in ('typing',) if m in sys.modules], file=sys.stderr)")
        proc = run_python("-S", "-O", "-c", code)
        assert proc.returncode == 0, proc.stdout + proc.stderr[-500:]
        assert "9/9 criteria passed" in proc.stdout
        assert proc.stderr.splitlines()[-1].split() == ["0"]

    @pytest.mark.parametrize("g, h", [(g, h) for g in range(1, 5) for h in range(5)])
    def test_exhaustive_search_matches_a_four_loop_search(self, g, h):
        side = range(-3, 4)
        naive = min(max(1, abs(p) * g, abs(q) * h) + max(1, abs(r) * g, abs(s) * h)
                    for p in side for q in side for r in side for s in side
                    if p * s - q * r == 1)
        assert selftest._brute_force_min(g, h, radius=3) == naive

    def test_reports_do_not_import_selftest(self):
        proc = run_python("-c", "import sys, knotfog.cli; print('knotfog.selftest' in sys.modules)")
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("before, after, loaded", [
        ((), (), []), ((), ("--json",), []), (("--json",), (), []),
    ], ids=["table", "json", "json-first"])
    def test_reports_import_only_what_they_use(self, before, after, loaded):
        # every cold `invariants` process pays for each module it imports,
        # and argparse reads none of the three report shapes
        code = ("import sys, knotfog.cli; status = knotfog.cli.main(sys.argv[1:]); "
                "print(status, *[m for m in ('argparse', 'dataclasses', 'fractions', "
                "'gettext', 'json', 'knotfog.seifert', 'knotfog.selftest', 'locale') "
                "if m in sys.modules], file=sys.stderr)")
        text = "trefoil # kfam(2) # ksat(fig8, fig8, 1, 2) # wh0(fig8) # unknot"
        proc = run_python("-c", code, "invariants", *before, text, *after)
        assert proc.stderr.split() == ["0", *loaded]

    def test_table_report_loads_no_random(self):
        # `random` is imported only by selftest and seifert; -S, since `site` may import it
        code = ("import sys, knotfog.cli; status = knotfog.cli.main(sys.argv[1:]); "
                "print(status, *[m for m in ('random', 'bisect', '_random') "
                "if m in sys.modules], file=sys.stderr)")
        proc = run_python("-S", "-c", code, "invariants", "trefoil # kfam(2) # wh0(fig8)")
        assert proc.stderr.split() == ["0"]

    TEXT = "trefoil # kfam(2) # ksat(fig8, fig8, 1, 2) # wh0(fig8) # atom(A, genus=2)"

    @pytest.mark.parametrize("argv", [("invariants", TEXT), ("invariants", TEXT, "--json")],
                             ids=["table", "json"])
    def test_reports_load_no_typing(self, argv):
        # the records are namedtuples and annotations are never evaluated;
        # -S, since `site` may import typing.  The numpy test checks selftest.
        code = ("import sys, knotfog.cli; status = knotfog.cli.main(sys.argv[1:]); "
                "print(status, *[m for m in ('typing',) if m in sys.modules], file=sys.stderr)")
        proc = run_python("-S", "-c", code, *argv)
        assert proc.stderr.splitlines()[-1].split() == ["0"]

    def test_no_source_imports_dataclasses(self):
        sources = sorted(Path(knotfog.__file__).parent.glob("*.py"))
        assert sources
        for path in sources:
            text = path.read_text()
            assert not re.search(r"^\s*(import|from) dataclasses\b", text, re.M), path

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


def argv_outcome(read, argv: list[str]) -> tuple:
    """What one reading of argv gives: its fields, or its exit status; and its output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = ("fields", vars(read(list(argv))))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return (*result, out.getvalue(), err.getvalue())


ARGV_CORPUS = [
    [], ["-h"], ["--help"],
    ["invariants"], ["invariants", "-h"], ["invariants", "trefoil", "extra"],
    ["invariants", "-x"], ["invariants", "-x", "trefoil"], ["invariants", "-5"],
    ["invariants", "--", "-x"], ["invariants", "--js", "trefoil"],
    ["invariants", "trefoil", "--json", "--json"],
    ["family-table"], ["family-table", "-h"], ["family-table", "--n"],
    ["family-table", "--n", "x"], ["family-table", "--n=3"], ["family-table", "--n", "0"],
    ["family-table", "--n", "13"], ["family-table", "--n", "3", "--n", "4"],
    ["selftest", "x"], ["bogus"], ["--json"],
    ["invariants", ""], ["invariants", "", "--json"], ["invariants", "--json", "-"],
    ["invariants", "--json", "--json"], ["invariants", "--json", "-5"],
]

# Arguments that reach every branch of argparse's reading of an argument:
# prefixes with and without `=`, text glued to -h, `--`, negative numbers,
# spaces, and int()'s reading of K.
ARGV_TOKENS = ["invariants", "family-table", "selftest", "trefoil", "", "-", "--", "-5",
               "-.5", "-h", "-hh", "-hx", "-h=", "--he", "--help=x", "--j", "--json", "--json=",
               "--n", "--n=4", "--=x", "-x", "--x", "a b", " 3", "1_2", "\u0663", "13"]


class TestArgvReader:
    """`cli.read_argv`, its report fast path and its argparse, against the
    argparse front end alone (`cli_oracle`)."""

    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_corpus(self, argv):
        assert argv_outcome(cli.read_argv, argv) == argv_outcome(cli_oracle.read, argv)

    def test_every_short_line_from_the_tokens(self):
        lines = [list(line) for size in range(3) for line in itertools.product(ARGV_TOKENS, repeat=size)]
        lines += [[command, *line] for command in ("invariants", "family-table", "selftest")
                  for line in itertools.product(ARGV_TOKENS, repeat=2)]
        differ = [argv for argv in lines
                  if argv_outcome(cli.read_argv, argv) != argv_outcome(cli_oracle.read, argv)]
        assert differ == []


class TestLazyExports:
    def test_import_loads_no_submodule(self):
        # yet dir() lists every exported name, as when they were imported eagerly
        code = ("import sys, knotfog; "
                "print(sorted(m for m in sys.modules if m.startswith('knotfog.')), "
                "set(knotfog.__all__) <= set(dir(knotfog)))")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout == "[] True\n"

    def test_star_import_binds_each_name_from_its_home_module(self):
        namespace: dict = {}
        exec("from knotfog import *", namespace)
        for name in knotfog.__all__:
            home = importlib.import_module(f"knotfog.{knotfog._EXPORTS[name]}")
            assert namespace[name] is getattr(home, name) is getattr(knotfog, name), name
        assert knotfog.theta is knotfog.seifert.theta

    def test_public_names_are_unchanged(self):
        assert knotfog.__all__ == [
            "Atom", "BasisChange", "BasisWitness", "BoundRecord",
            "Fig8", "FirstOrderResult", "IntInterval", "Kfam", "KnotExpr", "KnotFacts",
            "Ksat", "LaurentPoly", "ONE", "ParseError", "Provenance", "SeifertMatrix",
            "Sum", "Trefoil", "TriState", "Unknot", "WeakGropeCertificate", "Wh0",
            "ZERO",
            "alexander_of", "alexander_polynomial", "change_basis", "class_r_of",
            "facts_of", "first_order_genus", "genus_of",
            "intersection_form", "min_basis_bound", "parse",
            "random_symplectic", "render", "satellite_of_first", "slice_of",
            "standard_form", "theta", "trivial_of", "unit_equivalent", "validate",
        ]

    def test_value_attributes_are_unchanged(self):
        # the polynomial and matrix types carry only what the invariants use
        public = {cls.__name__: [n for n in dir(cls) if not n.startswith("_")]
                  for cls in (knotfog.LaurentPoly, knotfog.SeifertMatrix, knotfog.BasisChange)}
        assert public == {
            "LaurentPoly": ["canonical", "coeffs", "evaluate", "min_degree"],
            "SeifertMatrix": ["entries", "size"],
            "BasisChange": ["entries", "size"],
        }

    def test_submodules_still_import_by_name(self):
        # `from knotfog import seifert` falls back to the submodule only
        # when the package's __getattr__ raises AttributeError
        code = ("from knotfog import seifert, cli; import knotfog; "
                "print(seifert.__name__, cli.__name__, knotfog.cli is cli)")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout == "knotfog.seifert knotfog.cli True\n"

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            knotfog.nope  # noqa: B018
        with pytest.raises(ImportError):
            exec("from knotfog import nope", {})


def referenced_names(path: Path, dotted_strings: bool) -> set[str]:
    """The names a source file reads, the attributes it names and the names
    it imports, less each top-level function's or class's own name inside
    its body (so a definition or a recursion is no use of it); with
    `dotted_strings`, also each part of a string that is a dotted path of
    identifiers, as `perfbench/tracer.py` names what it wraps.  Docstrings
    do not count."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)}
    names: set[str] = set()
    for statement in tree.body:
        found: set[str] = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rpartition(".")[2])
            elif (dotted_strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in docstrings
                  and all(part.isidentifier() for part in node.value.split("."))):
                found.update(node.value.split("."))
        if isinstance(statement, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found.discard(statement.name)
        names |= found
    return names


PACKAGE = Path(knotfog.__file__).resolve().parent
# the names that only perfbench reads: its tracer resolves each one, so
# they go with the benchmark change (ROADMAP item 2), which shrinks this set
PERFBENCH_ONLY = {"alexander_of", "class_r_of", "exact_div", "facts_of", "first_order_genus",
                  "genus_of", "satellite_of_first", "slice_of", "validate"}


def used_names() -> tuple[set[str], set[str]]:
    """The names read by the package's modules other than `__init__`
    (selftest counts), and those read by perfbench's files other than
    its own tests."""
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    benchmark = [path for path in sorted(perfbench.glob("*.py"))
                 if not path.name.startswith("test_")]
    assert modules and benchmark
    return (set().union(*[referenced_names(path, dotted_strings=False) for path in modules]),
            set().union(*[referenced_names(path, dotted_strings=True) for path in benchmark]))


def defined_names() -> set[str]:
    """Every top-level function and class of the package, and every
    method of such a class; dunders, which Python calls, left out."""
    names: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, ast.ClassDef):
                names.update(node.name for node in statement.body
                             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
            if isinstance(statement, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(statement.name)
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


class TestExportsHaveCallers:
    def test_every_export_is_used_outside_the_tests(self):
        package, benchmark = used_names()
        assert [name for name in knotfog._EXPORTS if name not in package | benchmark] == []

    def test_every_definition_is_used_outside_the_tests(self):
        package, benchmark = used_names()
        defined = defined_names()
        assert len(defined) > 100
        assert defined - package == PERFBENCH_ONLY
        assert PERFBENCH_ONLY <= benchmark


class TestNoAssertStatements:
    def test_source_has_no_assert(self):
        # `python -O` strips asserts; a check that can fail only on a bug raises instead
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(knotfog.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Assert)]
        assert found == []
