"""The facts engine's fold step `node_facts`, `_RULES`, `knot_facts` and
`alexander_of` as they were in `classical` before the fold carried the
rule ids and the Alexander factor multiset, kept as the differential
oracle for the facts engine (since then `node_facts` has become the
classical half of `firstorder.step`, whose record is
`firstorder.NodeFacts`).

Here the fold decides the values only.  `knot_facts` then takes the rule
ids from the root's node type (`_RULES`), and `alexander_of` walks the
`#` spine again and multiplies each leaf's polynomial into a running
product, canonical after every step.  All are kept as they were, but
for reading a node's curated flags from its row, `e.flags`;
`facts_of(e)` is the old `classical.facts_of`.  `cli.report(e).facts`
must equal `facts_of(e)`, provenance included.
"""

from __future__ import annotations

from typing import NamedTuple

from knotfog.classical import (_ANCHORS, PRETZEL_BASE, IntInterval, KnotFacts,
                               Provenance, _satellite, genus_one_alexander)
from knotfog.knotlang import (Atom, Fig8, Kfam, KnotExpr, Ksat, Sum, Trefoil, TriState,
                              Unknot, Wh0, fold, render)
from knotfog.laurent import ONE, LaurentPoly


class NodeFacts(NamedTuple):
    """One node's classical facts.  `failed` pairs the warning of each
    closed-form guard failing at the node with the subtree it names;
    `warned` holds the child records under which a guard fails."""

    genus: IntInterval
    trivial: TriState
    slice: TriState
    in_R: TriState
    failed: tuple[tuple[str, KnotExpr], ...]
    warned: tuple["NodeFacts", ...]


def node_facts(e: KnotExpr, kids: list[NodeFacts]) -> NodeFacts:
    """The oracle's fold step, once per distinct subtree: the classical
    facts and failed guards that `firstorder.step` puts in each record,
    without its rule ids, Alexander factors or first-order bounds."""
    torus, cable, slice_ = e.flags  # all unknown on composite nodes
    failed: list[tuple[str, KnotExpr]] = []
    if isinstance(e, Unknot):
        genus, slice_ = IntInterval.point(0), TriState.YES
    elif isinstance(e, (Trefoil, Fig8)):
        genus = IntInterval.point(1)
    elif isinstance(e, Kfam):
        genus = IntInterval.point(e.n)
    elif isinstance(e, Atom):
        genus = IntInterval.point(e.genus)
    elif isinstance(e, Sum):
        left, right = kids
        genus = left.genus + right.genus
        both = left.slice is TriState.YES and right.slice is TriState.YES
        slice_ = TriState.YES if both else TriState.UNKNOWN
    elif isinstance(e, Wh0):
        (companion,) = kids
        genus = (IntInterval.point(0) if companion.trivial is TriState.YES else
                 IntInterval.point(1) if companion.trivial is TriState.NO else IntInterval(0, 1))
        slice_ = TriState.YES if companion.slice is TriState.YES else TriState.UNKNOWN
        if companion.trivial is not TriState.NO:
            failed.append(("whitehead closed form requires a companion known nontrivial: ", e.companion))
        if e.companion.flags[1] is not TriState.NO:
            failed.append(("whitehead closed form requires a noncable companion: ", e.companion))
    elif isinstance(e, Ksat):
        j, l = kids
        of_j, of_l = _satellite(e.n, l.trivial), _satellite(e.m, j.trivial)
        # A zero framing next to a trivial knot collapses the construction;
        # a satellite of a nontrivial companion has genus exactly one.
        if of_j is TriState.NO or of_l is TriState.NO:
            genus = IntInterval.point(0)
        elif (of_j is TriState.YES and j.trivial is TriState.NO) \
                or (of_l is TriState.YES and l.trivial is TriState.NO):
            genus = IntInterval.point(1)
        else:
            genus = IntInterval(0, 1)
        for side, sub, facts in (("first", e.j, j), ("second", e.l, l)):
            if facts.in_R is not TriState.YES:
                failed.append((f"satellite closed forms require the {side} companion in class R: ", sub))
    else:
        raise TypeError(f"not a KnotExpr: {e!r}")
    trivial = (TriState.YES if genus.hi == 0 else
               TriState.NO if genus.lo >= 1 else TriState.UNKNOWN)
    flags = (trivial, torus, cable)
    in_r = (TriState.NO if TriState.YES in flags else
            TriState.YES if flags == (TriState.NO,) * 3 else TriState.UNKNOWN)
    warned = tuple([k for k in kids if k.failed or k.warned])
    return NodeFacts(genus, trivial, slice_, in_r, tuple(failed), warned)


def alexander_of(e: KnotExpr) -> LaurentPoly | None:
    """Canonical Alexander polynomial, or None when no rule applies.
    Polynomials multiply along the `#` spine only: a double's or a ksat's
    polynomial comes from its own node, never from its companions.  An
    atom anywhere on the spine answers None before anything multiplies."""
    leaves, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            stack += node.right, node.left
        elif isinstance(node, Atom):
            return None
        else:
            leaves.append(node)
    product = ONE
    for node in leaves:
        if isinstance(node, (Unknot, Wh0)):
            continue  # trivial polynomial
        elif isinstance(node, Trefoil):
            factor = genus_one_alexander(1)
        elif isinstance(node, Fig8):
            factor = genus_one_alexander(-1)
        elif isinstance(node, Kfam):
            factor = PRETZEL_BASE ** node.n
        elif isinstance(node, Ksat):
            factor = genus_one_alexander(node.m * node.n)
        else:
            raise TypeError(f"not a KnotExpr: {node!r}")
        product = (product * factor).canonical()
    return product


# Node type -> its genus, alexander and slice rule ids.  A ksat's genus
# rule depends on which of its three genus intervals the node has; a
# sum's Alexander rule on whether its polynomial is known, and a sum's or
# a double's slice rule on its slice value.
_RULES = {
    Unknot: ("genus/unknot", "alexander/unknot", "slice/unknot"),
    Trefoil: ("genus/curated-leaf", "alexander/seifert-determinant", "slice/curated-leaf"),
    Fig8: ("genus/curated-leaf", "alexander/seifert-determinant", "slice/curated-leaf"),
    Kfam: ("genus/pretzel-family", "alexander/pretzel-power", "slice/ribbon"),
    Atom: ("genus/declared", "alexander/unknown", "slice/declared"),
    Sum: ("genus/connected-sum",
          {True: "alexander/connected-sum", False: "alexander/unknown-summand"},
          {TriState.YES: "slice/connected-sum", TriState.UNKNOWN: "slice/unknown-sum"}),
    Wh0: ("genus/whitehead-double", "alexander/untwisted-double",
          {TriState.YES: "slice/double-of-slice", TriState.UNKNOWN: "slice/unknown-double"}),
    Ksat: ({IntInterval.point(0): "genus/satellite-unknot",
            IntInterval.point(1): "genus/satellite-one",
            IntInterval(0, 1): "genus/standard-surface"},
           "alexander/twist-model", "slice/unknown"),
}


def facts_of(e: KnotExpr) -> KnotFacts:
    """All classical invariants with one provenance record per fact."""
    return knot_facts(e, fold(e, node_facts)[e])


def knot_facts(e: KnotExpr, facts: NodeFacts) -> KnotFacts:
    """e's classical invariants from its folded facts, with provenance."""
    alexander = alexander_of(e)
    genus_rule, alexander_rule, slice_rule = _RULES[type(e)]
    if isinstance(e, Ksat):
        genus_rule = genus_rule[facts.genus]
    if isinstance(e, Sum):
        alexander_rule = alexander_rule[alexander is not None]
    if isinstance(e, (Sum, Wh0)):
        slice_rule = slice_rule[facts.slice]
    provenance = tuple([Provenance(fact, rule, _ANCHORS[rule]) for fact, rule in (
        ("genus", genus_rule), ("alexander", alexander_rule), ("slice", slice_rule),
        ("in_R", "class-r/definition"), ("trivial", "trivial/genus"))])
    if alexander is not None:
        assert abs(alexander.evaluate(1)) == 1, \
            f"Alexander polynomial of {render(e)} fails the determinant-one check"
    return KnotFacts(facts.genus, alexander, facts.slice, facts.in_R, facts.trivial, provenance)
