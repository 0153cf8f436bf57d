"""Command-line front end.

    knotfog invariants <expr> [--json]   invariant report for one expression
    knotfog family-table --n <k>         the Whitehead-double family, n = 1..k
    knotfog selftest                     run the acceptance criteria

argparse reads every command line except a report's: `invariants EXPR`,
`invariants EXPR --json` and `invariants --json EXPR`, with EXPR not
starting with "-", are read by `read_argv` itself, so that a report
process does not import argparse and the `gettext` and `locale` modules
it brings, which took a good share of a cold process's start.

Exit codes: 0 success, 1 self-test failure, 2 usage or parse error, an
answer with an integer too long for the interpreter to print, or output
that cannot be written (stdout closed, a write failing as on a full
disk, or a report that stdout's encoding cannot encode, as an atom name
outside ASCII under `PYTHONIOENCODING=ascii`: one `error: cannot write
the report: ...` line on stderr and nothing on stdout), 141
(128 + SIGPIPE, as a shell reports a process the signal ended) when the
reader closes stdout early, with nothing on stderr.
Data output is byte-identical across runs; timing diagnostics go to
stderr only.

`entry`, the console script and the body of `python -m knotfog.cli`,
ends the process with `os._exit` once stdout and stderr are flushed and
the `atexit` handlers have run, skipping the interpreter's teardown;
`main` returns its status, for in-process callers.
"""

from __future__ import annotations

import atexit
import collections
import os
import sys
from types import SimpleNamespace

from . import classical, firstorder
from .knotlang import Kfam, KnotExpr, ParseError, TriState, Wh0, fold, parse, render
from .laurent import ONE


class Report(collections.namedtuple("Report", "expression facts fog warnings")):
    """Three readers of the memo of one `fold(expr, firstorder.step)`;
    no recomputation.  `facts` is a KnotFacts, `fog` a FirstOrderResult
    and `warnings` a tuple of strings."""

    __slots__ = ()

    def to_json(self) -> dict:
        """The `--json` schema, spelled here only; the records' fields are
        their keys, in order."""
        facts, fog, alexander = self.facts, self.fog, self.facts.alexander
        return {
            "expression": self.expression,
            "facts": {
                "genus": {"lo": facts.genus.lo, "hi": facts.genus.hi},
                "alexander": "unknown" if alexander is None else
                             {"min_degree": alexander.min_degree, "coeffs": list(alexander.coeffs)},
                "slice": str(facts.slice),
                "in_R": str(facts.in_R),
                "trivial": str(facts.trivial),
                "provenance": [record._asdict() for record in facts.provenance],
            },
            "first_order_genus": {"lo": fog.lo, "hi": fog.hi,
                                  "provenance": [record._asdict() for record in fog.provenance]},
            "warnings": list(self.warnings),
        }


def report(expr: KnotExpr) -> Report:
    """The report on one expression, from the memo of one
    `fold(expr, firstorder.step)` and its root's record.  The expression
    line and the warnings share one `render` memo, so each subtree a
    warning names is spelled once; the memo lives for this call."""
    records, texts = fold(expr, firstorder.step), {}
    return Report(
        expression=render(expr, texts=texts),
        facts=classical.knot_facts(records),
        fog=firstorder.first_order_result(records[expr]),
        warnings=tuple(firstorder.warnings(records, texts)),
    )


def _json(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` for the dicts with str keys, lists, strs,
    ints and None of `Report.to_json`; any other type is a TypeError, and an
    int past the interpreter's int-to-str limit a ValueError, as in json."""
    if value is None:
        return "null"
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return '"' + value + '"'
        import json  # only here, so a report in printable ASCII never imports it
        return json.dumps(value)
    if value.__class__ is int:  # not a bool, which json spells true or false
        return str(value)
    inner = indent + "  "
    if isinstance(value, list):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        items = [_json(key) + ": " + _json(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def render_report(report: Report) -> str:
    facts = report.facts
    lines = [
        f"expression   {report.expression}",
        f"genus        {facts.genus}",
        f"alexander    {'unknown' if facts.alexander is None else facts.alexander}",
        f"slice        {facts.slice}",
        f"in_R         {facts.in_R}",
        f"trivial      {facts.trivial}",
        f"g1           {report.fog.interval}",
        "g1 bounds:",
    ]
    for record in report.fog.provenance:
        lines.append(f"  {record.bound} {record.value}  {record.rule}")
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  {w}" for w in report.warnings)
    else:
        lines.append("warnings: none")
    return "\n".join(lines)


_FAMILY_HEADER = ("knot", "g", "alexander", "slice", "g1_lo", "g1_hi")


def family_table(n_max: int) -> str:
    """The headline family: same classical data, g1 = n + 1 on row n."""
    rows = [_FAMILY_HEADER]
    for n in range(1, n_max + 1):
        answer = report(Wh0(Kfam(n)))
        facts, fog = answer.facts, answer.fog
        # checks that can fail only on a bug, raised so that `python -O` keeps them
        if not (facts.genus == firstorder.IntInterval.point(1) and facts.alexander == ONE
                and facts.slice is TriState.YES and (fog.lo, fog.hi) == (n + 1, n + 1)):
            raise AssertionError(f"family row {n}: genus {facts.genus}, alexander {facts.alexander}, "
                                 f"slice {facts.slice}, g1 {fog.interval} != [{n + 1}, {n + 1}]")
        rows.append((answer.expression, str(facts.genus.lo), str(facts.alexander),
                     str(facts.slice), str(fog.lo), str(fog.hi)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(_FAMILY_HEADER))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    )


# -- argv -----------------------------------------------------------------------


def read_argv(argv: list[str]) -> SimpleNamespace:
    """The parsed command line: `command` plus that command's fields.

    A report's line, `invariants EXPR` with `--json` before or after EXPR
    or not at all, is read here, as argparse reads it when EXPR does not
    start with "-"; every other line goes to argparse.  Usage errors and
    help requests print argparse's output and raise SystemExit with its
    status (2 and 0)."""
    if argv[:1] == ["invariants"] and len(argv) in (2, 3):
        rest = [arg for arg in argv[1:] if arg != "--json"]
        if len(rest) == 1 and not rest[0].startswith("-"):
            return SimpleNamespace(command="invariants", expression=rest[0], json=len(argv) == 3)
    import argparse  # only here, so a report never imports it

    parser = argparse.ArgumentParser(
        prog="knotfog",
        description="Exact knot invariants and certified first-order genus intervals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="invariant report for one expression")
    p_inv.add_argument("expression", help="e.g. 'wh0(kfam(2))' or 'trefoil # fig8'")
    p_inv.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p_fam = sub.add_parser("family-table",
                           help="Whitehead doubles of the pretzel family")
    p_fam.add_argument("--n", type=int, required=True, metavar="K",
                       help="number of rows, 1..12")

    sub.add_parser("selftest", help="run every acceptance criterion")
    args = parser.parse_args(argv)
    if args.command == "family-table" and not 1 <= args.n <= 12:
        parser.error(f"--n must be in 1..12, got {args.n}")
    return SimpleNamespace(**vars(args))


def main(argv: list[str] | None = None) -> int:
    args = read_argv(sys.argv[1:] if argv is None else argv)

    if args.command == "invariants":
        try:
            answer = report(parse(args.expression))
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        try:
            text = _json(answer.to_json()) if args.json else render_report(answer)
        except ValueError:  # CPython's limit on int-to-str conversion
            print(f"error: the answer has an integer of more than {sys.get_int_max_str_digits()}"
                  " digits, past the interpreter's limit for printing one", file=sys.stderr)
            return 2
        print(text)
        return 0

    if args.command == "family-table":
        print(family_table(args.n))
        return 0

    from . import selftest  # only here, so a report never imports it
    results = selftest.run_all()
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}")
        if not result.passed:
            print(f"     {result.detail}")
        print(f"{result.name}: {result.seconds:.3f}s", file=sys.stderr)
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


def entry() -> None:  # console-script wrapper
    """Run `main()` and end the process with its status through `os._exit`,
    after flushing stdout and stderr and running the `atexit` handlers.
    The interpreter's teardown, which this skips, frees every object and
    prints nothing, yet is a large share of a cold report process's wall
    time.  An exception escaping `main()`, SystemExit included, takes the
    interpreter's normal exit."""
    message = ""
    try:
        if sys.stdout is None:  # started with stdout closed: `knotfog ... >&-`
            raise OSError("stdout is closed")
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # e.g. `knotfog invariants ... | head -1`
        status = 141
    except (OSError, UnicodeEncodeError) as exc:  # `> /dev/full`, or a stdout in ASCII
        status, message = 2, f"error: cannot write the report: {exc}\n"
    try:
        sys.stderr.write(message)
        sys.stderr.flush()
    except (AttributeError, OSError):  # stderr closed or unwritable as well
        pass
    atexit._run_exitfuncs()
    os._exit(status)


if __name__ == "__main__":
    entry()
