"""Oracle for `knotfog.cli.read_argv`: the argparse front end it replaced.

`knotfog.cli` reads its command line by hand, so that a CLI process does
not import argparse.  `read` below is the previous front end, unchanged:
the same `ArgumentParser` and the same check on the range of `--n`, which
`main` made through the top-level parser.  It is deliberately kept apart
from the code under test.  The hand-written reader reproduces Python
3.11's argparse; other versions word some messages differently.
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


def read(argv: list[str]) -> argparse.Namespace:
    """The parsed command line, or SystemExit after argparse's output."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "family-table" and not 1 <= args.n <= 12:
        parser.error(f"--n must be in 1..12, got {args.n}")
    return args
