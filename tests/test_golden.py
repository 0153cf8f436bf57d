"""Golden CLI corpus: `knotfog invariants` output, byte for byte.

`golden_invariants.json.gz` holds, for every case, the argv passed to
`cli.main` and the exit code, stdout and stderr it produced (gzipped
JSON, 0.4 MB unpacked; `zcat` shows it).  The cases are 150 seeded
`selftest.random_expr` trees (seed 4104, depth cycling 1..6) and hand-picked
shapes, each as a table and with `--json`, plus two parse errors.  The
file was written by `python tests/test_golden.py` against an engine
already checked by the rest of the suite; it is the gate for refactors
of the engines, so it is not regenerated after changing them.  A
deliberate change of output rewrites only the cases it changes, each
listed in CHANGES.md.
"""

import contextlib
import gzip
import io
import json
import random
from pathlib import Path

import pytest

from knotfog import cli
from knotfog.knotlang import render
from knotfog.selftest import random_expr

CORPUS = Path(__file__).with_name("golden_invariants.json.gz")

CHAIN_TERMS = ("trefoil", "wh0(kfam(2))", "fig8", "ksat(fig8, kfam(1), 0, 0)",
               "unknot", "atom(A, genus=2, cable=no)")

HAND_PICKED = (
    # right-nested sums: render parenthesises a Sum on the right
    "unknot # (trefoil # fig8)",
    "trefoil # (fig8 # (kfam(1) # unknot))",
    "(trefoil # fig8) # (kfam(2) # (unknot # atom(A, genus=2)))",
    "wh0(fig8 # (trefoil # fig8), clasp=-)",
    # trivial composites
    "unknot # unknot",
    "wh0(unknot) # unknot",
    "wh0(wh0(unknot))",
    "ksat(fig8, unknot, 2, 0)",
    "ksat(unknot, unknot, 0, 0)",
    "ksat(unknot, fig8, 0, 3)",
    # guarded and unguarded doubles
    "wh0(kfam(2))",
    "wh0(fig8, clasp=-)",
    "wh0(trefoil)",
    "wh0(atom(A, genus=3, cable=no))",
    "wh0(atom(A, genus=3))",
    "wh0(fig8 # fig8)",
    "wh0(wh0(fig8))",
    "wh0(ksat(fig8, fig8, 1, 1))",
    # doubly-companioned, zero framings and not
    "ksat(fig8, kfam(2), 0, 0)",
    "ksat(atom(J, genus=2, torus=no, cable=no), atom(L, genus=3, torus=no, cable=no), 0, 0)",
    "ksat(trefoil, fig8, 0, 0)",
    "ksat(fig8, kfam(2), 1, -2)",
    "ksat(wh0(fig8), fig8, 0, 0)",
    "wh0(atom(A, genus=200, cable=no))",
    "trefoil # wh0(kfam(2)) # ksat(fig8, fig8, 0, 0)",
    " # ".join(CHAIN_TERMS[i % len(CHAIN_TERMS)] for i in range(60)),
)

PARSE_ERRORS = ("wh0(kfam(2)", "trefoil # kfam(0)")


def expressions() -> list[str]:
    rng = random.Random(4104)
    seeded = [render(random_expr(rng, 1 + i % 6)) for i in range(150)]
    return seeded + list(HAND_PICKED)


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> list[dict]:
    return json.loads(gzip.decompress(CORPUS.read_bytes()))


# Absent only while the corpus is being written; the test below then fails.
@pytest.mark.parametrize("case", load() if CORPUS.exists() else [],
                         ids=lambda case: " ".join(case["argv"][1:])[:60])
def test_cli_output_matches_corpus(case):
    assert run(case["argv"]) == case


def test_corpus_covers_every_case():
    argvs = [case["argv"] for case in load()]
    for text in expressions():
        assert ["invariants", text] in argvs and ["invariants", text, "--json"] in argvs
    for text in PARSE_ERRORS:
        assert ["invariants", text] in argvs


if __name__ == "__main__":
    argvs = [["invariants", text] + flag for text in expressions() for flag in ([], ["--json"])]
    argvs += [["invariants", text] for text in PARSE_ERRORS]
    cases = [run(argv) for argv in argvs]
    CORPUS.write_bytes(gzip.compress((json.dumps(cases, indent=1) + "\n").encode(), mtime=0))
    print(f"{len(cases)} cases, {CORPUS.stat().st_size} bytes")
