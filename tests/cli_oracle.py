"""Oracle for `knotfog.cli.read_argv`: the argparse front end alone.

`knotfog.cli.read_argv` reads a report's line (`invariants EXPR`, with
`--json` before or after EXPR or not at all) by a fast path that keeps
argparse out of a report process, and hands every other line to its own
`ArgumentParser`.  `read` below is the reference for both paths: the
same `ArgumentParser` and the same check on the range of `--n`, made
through the top-level parser, run on every line.  It is deliberately
kept apart from the code under test.
"""

from __future__ import annotations

import argparse


def build_parser() -> argparse.ArgumentParser:
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
    return parser


_PARSER = build_parser()  # built once: parse_args keeps no state between calls


def read(argv: list[str]) -> argparse.Namespace:
    """The parsed command line, or SystemExit after argparse's output."""
    args = _PARSER.parse_args(argv)
    if args.command == "family-table" and not 1 <= args.n <= 12:
        _PARSER.error(f"--n must be in 1..12, got {args.n}")
    return args
