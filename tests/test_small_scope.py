"""Every tree up to a size bound, against the oracles and the laws.

The small-scope hypothesis (Jackson, "Software Abstractions", 2006):
most faults show on some small input, so every tree of at most
`MAX_NODES` nodes (counted with repeats) over a fixed alphabet is
checked, rather than a random sample.  The alphabet:

    leaves    unknot, trefoil, fig8, kfam(1), kfam(2), atom(A, genus=1)
              and atom(A, genus=2, torus=no, cable=no)
    nodes     #, wh0 with clasp + and -, and ksat with m, n in {-1, 0, 1}

That is 7 + 14 + 518 + 2996 = 3535 trees, about a second of checks on a
2-core VM; the 80472 trees of five nodes would take twenty times as
long.  Each report's rule ids, (genus, alexander, slice, g1 lo, g1 hi),
form one of 23 tuples the rules allow: 4 at the leaves (trefoil and fig8
share one), 8 at `#`, 6 at wh0 and 5 at ksat.  The trees reach 21 of
them.  `HAND_PICKED` adds a tree, with its subtrees, for each of the
other two: a slice atom on a `#` spine, which the alphabet has not, and
a trivial `#` with a summand not known slice, which needs a collapsed
ksat (three nodes) and a second summand.  So all 23 are reached, and
with them every one of the 36 rule ids in the one rule table,
`firstorder._ANCHORS`.
"""

import pytest

import facts_oracle
import seifert_oracle
import test_knotlang
from test_knotlang import NODE_CLASSES, subtrees
from knotfog import cli, firstorder
from knotfog.knotlang import Ksat, Sum, Wh0, fold, parse, render
from knotfog.laurent import unit_equivalent

LEAVES = ("unknot", "trefoil", "fig8", "kfam(1)", "kfam(2)", "atom(A, genus=1)",
          "atom(A, genus=2, torus=no, cable=no)")
FRAMINGS = (-1, 0, 1)
MAX_NODES = 4
HAND_PICKED = {
    "atom(A, genus=1, slice=yes) # atom(A, genus=2, torus=no, cable=no, slice=yes)":
        ("genus/connected-sum", "alexander/unknown-summand", "slice/connected-sum",
         "first-order/twice-genus", None),
    "ksat(unknot, fig8, 0, 0) # unknot":
        ("genus/connected-sum", "alexander/connected-sum", "slice/unknown-sum",
         "first-order/unknot", "first-order/unknot"),
}


def trees_by_size(max_nodes):
    """sizes[s]: every tree of exactly s nodes, for 1 <= s <= max_nodes."""
    sizes = [[], [parse(text) for text in LEAVES]]
    for s in range(2, max_nodes + 1):
        trees = [Wh0(c, clasp) for c in sizes[s - 1] for clasp in "+-"]
        for left in range(1, s - 1):
            for a in sizes[left]:
                for b in sizes[s - 1 - left]:
                    trees.append(Sum(a, b))
                    trees += [Ksat(a, b, m, n) for m in FRAMINGS for n in FRAMINGS]
        sizes.append(trees)
    return sizes


@pytest.fixture(scope="module")
def reports():
    """Every tree's report, keyed by the tree: nodes are interned."""
    sizes = trees_by_size(MAX_NODES)
    assert [len(trees) for trees in sizes[1:]] == [7, 14, 518, 2996]
    picked = [sub for text in HAND_PICKED for sub in subtrees(parse(text))]
    return {e: cli.report(e) for trees in [*sizes, picked] for e in trees}


def rule_tuple(report) -> tuple:
    rules = tuple(record.rule for record in report.facts.provenance[:3])
    bounds = {record.bound: record.rule for record in report.fog.provenance}
    return (*rules, bounds["lo"], bounds.get("hi"))


def test_facts_equal_the_oracle(reports):
    for e, report in reports.items():
        assert report.facts == facts_oracle.facts_of(e), render(e)


def test_alexander_is_the_spine_determinant(reports):
    answered = 0
    for e, report in reports.items():
        V = seifert_oracle.spine_matrix(e)
        assert (V is None) == (report.facts.alexander is None), render(e)
        if V is not None:
            assert unit_equivalent(seifert_oracle.alexander_polynomial(V), report.facts.alexander), render(e)
            answered += 1
    assert answered > len(reports) // 2


def test_first_order_interval_is_at_least_twice_the_genus(reports):
    for e, report in reports.items():
        lo, hi = report.fog.lo, report.fog.hi
        assert hi is None or lo <= hi, render(e)
        assert lo >= 2 * report.facts.genus.lo, render(e)


def test_upper_bound_is_subadditive(reports):
    checked = 0
    for e, report in reports.items():
        if e.__class__ is Sum:
            a, b = reports[e.left].fog.hi, reports[e.right].fog.hi
            if a is not None and b is not None:
                assert report.fog.hi is not None and report.fog.hi <= a + b, render(e)
                checked += 1
    assert checked > 0


def test_text_parses_back_to_the_tree(reports):
    for e, report in reports.items():
        assert parse(report.expression) is e, report.expression


def test_every_warning_names_a_subtree(reports):
    for e, report in reports.items():
        texts = {render(sub) for sub in subtrees(e)}
        for warning in report.warnings:
            assert any(warning.endswith(": " + text) for text in texts), (render(e), warning)


def test_records_name_nodes_never_records(reports):
    # the fold's memo is the one table of records: no field of a record,
    # looking inside tuples too, is a record, and every node a record
    # names, in `failed` or in `warned`, is a key of the same memo
    for e in [*reports, *test_knotlang.TestSharedFold().shared_trees(2024, 600)]:
        memo = fold(e, firstorder.step)
        for record in memo.values():
            fields = list(record)
            while fields:
                value = fields.pop()
                assert value.__class__ is not firstorder.NodeFacts, render(e)
                if isinstance(value, tuple):
                    fields.extend(value)
            for node in (*[sub for _, sub in record.failed], *record.warned):
                assert node in memo, render(e)


def test_rule_tuples_reached(reports):
    assert {e.__class__ for e in reports} == set(NODE_CLASSES)
    enumerated = {rule_tuple(reports[e]) for trees in trees_by_size(MAX_NODES) for e in trees}
    assert len(enumerated) == 21
    for text, rules in HAND_PICKED.items():
        assert rule_tuple(reports[parse(text)]) == rules and rules not in enumerated, text
    assert len({rule_tuple(report) for report in reports.values()}) == 23


def test_rule_ids_emitted_are_the_table(reports):
    emitted = {record.rule for report in reports.values()
               for record in (*report.facts.provenance, *report.fog.provenance)}
    assert emitted == set(firstorder._ANCHORS) and len(emitted) == 36
