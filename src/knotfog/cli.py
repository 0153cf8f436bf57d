"""Command-line front end.

    knotfog invariants <expr> [--json]   invariant report for one expression
    knotfog family-table --n <k>         the Whitehead-double family, n = 1..k
    knotfog selftest                     run the acceptance criteria

`read_argv` reads the command line as Python 3.11's argparse did,
without importing argparse and the `gettext` and `locale` modules it
brings, which took a good share of a cold process's start.  It accepts
`-h`/`--help` at both levels, a unique prefix of a long option (`--js`
for `--json`), `--n=K` as well as `--n K`, `--` to end options
(`invariants -- -x`), and a negative number such as `-5` as a
positional; K is read by `int()`, so " 3", "1_2" and other scripts'
decimal digits count.  Usage and help texts are argparse's for an
80-column terminal and do not follow the terminal's width.

Exit codes: 0 success, 1 self-test failure, 2 usage or parse error, or
an answer with an integer too long for the interpreter to print, 141
(128 + SIGPIPE, as a shell reports a process the signal ended) when the
reader closes stdout early, with nothing on stderr.
Data output is byte-identical across runs; timing diagnostics go to
stderr only.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from . import classical, firstorder
from .classical import KnotFacts
from .firstorder import FirstOrderResult
from .knotlang import Kfam, KnotExpr, ParseError, Wh0, fold, parse, render


class Report(NamedTuple):
    """Three readers of one `fold(expr, firstorder.step)`; no recomputation."""

    expression: str
    facts: KnotFacts
    fog: FirstOrderResult
    warnings: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "expression": self.expression,
            "facts": self.facts.to_json(),
            "first_order_genus": self.fog.to_json(),
            "warnings": list(self.warnings),
        }


def build_report(text: str) -> Report:
    return report(parse(text))


def report(expr: KnotExpr) -> Report:
    """The report on one expression, from one `fold(expr, firstorder.step)`."""
    facts, lo, hi = fold(expr, firstorder.step)
    return Report(
        expression=render(expr),
        facts=classical.knot_facts(expr, facts),
        fog=firstorder.first_order_result(lo, hi),
        warnings=tuple(facts.warnings()),
    )


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
    """The headline family: same classical data, pairwise-distinct g1."""
    rows = [_FAMILY_HEADER]
    seen: list[int] = []
    for n in range(1, n_max + 1):
        answer = report(Wh0(Kfam(n)))
        facts, fog = answer.facts, answer.fog
        assert fog.interval.is_point(), f"family row {n} has an open interval"
        assert facts.genus == classical.IntInterval.point(1)
        assert facts.alexander is not None and facts.alexander.is_one()
        assert str(facts.slice) == "yes"
        seen.append(fog.lo)
        rows.append((answer.expression, str(facts.genus.lo), str(facts.alexander),
                     str(facts.slice), str(fog.lo), str(fog.hi)))
    assert len(set(seen)) == len(seen), f"family g1 values not pairwise distinct: {seen}"
    widths = [max(len(row[i]) for row in rows) for i in range(len(_FAMILY_HEADER))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        for row in rows
    )


# -- argv -----------------------------------------------------------------------

# Per level (None for the top one, else a command): its options, its
# positional argument and the values it sets when not given.
_LEVELS = {
    None: (("-h", "--help"), "command", {"command": None}),
    "invariants": (("-h", "--help", "--json"), "expression", {"expression": None, "json": False}),
    "family-table": (("-h", "--help", "--n"), None, {"n": None}),
    "selftest": (("-h", "--help"), None, {}),
}
_COMMANDS = tuple(level for level in _LEVELS if level)

_HELP = {
    None: """\
usage: knotfog [-h] {invariants,family-table,selftest} ...

Exact knot invariants and certified first-order genus intervals.

positional arguments:
  {invariants,family-table,selftest}
    invariants          invariant report for one expression
    family-table        Whitehead doubles of the pretzel family
    selftest            run every acceptance criterion

options:
  -h, --help            show this help message and exit
""",
    "invariants": """\
usage: knotfog invariants [-h] [--json] expression

positional arguments:
  expression  e.g. 'wh0(kfam(2))' or 'trefoil # fig8'

options:
  -h, --help  show this help message and exit
  --json      emit JSON instead of a table
""",
    "family-table": """\
usage: knotfog family-table [-h] --n K

options:
  -h, --help  show this help message and exit
  --n K       number of rows, 1..12
""",
    "selftest": """\
usage: knotfog selftest [-h]

options:
  -h, --help  show this help message and exit
""",
}

# argparse's pattern, `$` included; compiled on first use (re caches it),
# which a report with no argument that starts with "-" never reaches
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _fail(level: str | None, message: str) -> NoReturn:
    """A usage error at one level, as argparse reports it."""
    usage = _HELP[level].partition("\n")[0]
    prog = "knotfog" if level is None else f"knotfog {level}"
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _option(level: str | None, arg: str) -> tuple[str | None, str | None] | None:
    """How argparse classifies one argument before `--`: None for a
    positional, else (option, text glued to it or None), where the option
    is None when the level has no such option."""
    options = _LEVELS[level][0]
    if arg[:1] != "-":
        return None
    if arg in options:
        return arg, None
    if len(arg) == 1:
        return None
    head, eq, glued = arg.partition("=")
    if eq and head in options:
        return head, glued
    if arg[1] == "-":  # a unique prefix of a long option stands for it
        matches = [option for option in options if option.startswith(head)]
        if len(matches) > 1:
            _fail(level, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], glued if eq else None
    elif arg[1] == "h":  # what follows -h is glued to it
        return "-h", arg[2:]
    if re.match(_NEGATIVE_NUMBER, arg) or " " in arg:
        return None
    return None, None


def _read_level(level: str | None, args: list[str], values: dict, extras: list[str]) -> None:
    """Read one level's arguments into `values`; unknown ones go to `extras`."""
    _, positional, defaults = _LEVELS[level]
    values.update(defaults)
    dash = args.index("--") if "--" in args else len(args)  # the rest is positional
    kinds = [_option(level, arg) for arg in args[:dash]]
    i = 0
    while i < len(args):
        option = kinds[i] if i < dash else None
        if option:
            name, glued = option
            if name is None:
                extras.append(args[i])
            elif name == "--n":
                if glued is None:
                    if i + 1 == dash or kinds[i + 1]:
                        _fail(level, "argument --n: expected one argument")
                    i += 1
                    glued = args[i]
                try:
                    values["n"] = int(glued)
                except ValueError:
                    _fail(level, f"argument --n: invalid int value: {glued!r}")
            elif glued is not None and (name != "-h" or not glued or glued.lstrip("h")):
                # -hh is -h -h; any other glued text is an error
                unused = glued.lstrip("h") if name == "-h" else glued
                action = "--json" if name == "--json" else "-h/--help"
                _fail(level, f"argument {action}: ignored explicit argument {unused!r}")
            elif name == "--json":
                values["json"] = True
            else:
                sys.stdout.write(_HELP[level])
                raise SystemExit(0)
        elif positional and (i != dash or i + 1 < len(args)):
            if level is None:  # the command reads the rest of the line
                command = args[i]
                if command not in _COMMANDS:
                    _fail(None, f"argument command: invalid choice: {command!r} "
                          f"(choose from {', '.join(map(repr, _COMMANDS))})")
                values["command"] = command
                _read_level(command, args[i + 1:], values, extras)
                return
            i += i == dash  # `-- x`: the value follows the `--`
            values[positional] = args[i]
            i += i + 1 == dash  # `x --`: the `--` goes with the value
            positional = None
        else:
            extras.append(args[i])
        i += 1
    if positional:
        _fail(level, f"the following arguments are required: {positional}")
    if level == "family-table" and values["n"] is None:
        _fail(level, "the following arguments are required: --n")


def read_argv(argv: list[str]) -> SimpleNamespace:
    """The parsed command line: `command` plus that command's fields.

    Usage errors and help requests print what argparse printed and raise
    SystemExit with its status (2 and 0)."""
    values: dict = {}
    extras: list[str] = []
    _read_level(None, list(argv), values, extras)
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    if values["command"] == "family-table" and not 1 <= values["n"] <= 12:
        _fail(None, f"--n must be in 1..12, got {values['n']}")
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = read_argv(sys.argv[1:] if argv is None else argv)

    if args.command == "invariants":
        try:
            answer = build_report(args.expression)
        except ParseError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            import json  # only here, so a table report never imports it
        try:
            text = json.dumps(answer.to_json(), indent=2) if args.json else render_report(answer)
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
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # e.g. `knotfog invariants ... | head -1`
        # the interpreter flushes stdout once more on exit; let it reach nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    entry()
