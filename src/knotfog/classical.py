"""The classical view of a construction tree's root.

Reads off the memo of `fold(e, firstorder.step)`, the root's record last,
with per-rule provenance: a genus interval, the Alexander polynomial, a
sliceness tri-state, membership in class R (nontrivial knots that are
neither torus nor cable knots), and triviality.  Every rule is either an
exact closed form for a node type or a conservative interval; nothing is
ever guessed.  The step gives each fact its value and rule id, and
`firstorder._ANCHORS` its anchor; the Alexander fact is the `#` spine's
multiset of genus-one factors, which `_alexander` counts in one backward
pass over the memo, node by node, and multiplies out once.
"""

from __future__ import annotations

import collections

from .firstorder import _ANCHORS, IntInterval, NodeFacts, _satellite, step
from .knotlang import KnotExpr, Ksat, Sum, TriState, fold, render
from .laurent import LaurentPoly

Provenance = collections.namedtuple("Provenance", "fact rule anchor")


class KnotFacts(collections.namedtuple(
        "KnotFacts", "genus alexander slice in_R trivial provenance")):
    """Derived classical invariants of one expression: the genus an
    IntInterval, the Alexander polynomial a LaurentPoly or None, three
    TriStates, and a tuple of Provenance records."""

    __slots__ = ()


def genus_one_alexander(k: int) -> LaurentPoly:
    """k t^2 - (2k - 1) t + k, the factor of every `#`-spine leaf.  For the
    genus-one Seifert matrix V = [[m, 1], [0, n]] and k = mn, det(V - t V^T)
    = det [[m - mt, 1], [-t, n - nt]] = mn (1 - t)^2 + t, which is this.
    The trefoil's V has m = n = -1 (k = 1), the figure-eight's m = 1 and
    n = -1 (k = -1), ksat(_, _, m, n)'s twist model k = mn, and the first
    pretzel-family knot k = -2 (PRETZEL_BASE)."""
    return LaurentPoly(0, (k, 1 - 2 * k, k))


# -2t^2 + 5t - 2: the Alexander polynomial of the first pretzel-family knot.
PRETZEL_BASE = genus_one_alexander(-2)


def satellite_of_first(e: Ksat) -> TriState:
    """Whether the construction is a satellite with the first companion."""
    if not isinstance(e, Ksat):
        raise TypeError(f"expected a Ksat node, got {type(e).__name__}")
    return _satellite(e.n, trivial_of(e.l))


def _alexander(records: dict[KnotExpr, NodeFacts]) -> LaurentPoly | None:
    """The canonical product of q_k^e over the root's spine multiset {k: e},
    or None if an atom is on the spine.  `records` is the root's `fold`
    memo, where a node precedes every parent and the root comes last, so
    one backward pass hands each spine node's count of paths from the
    root on to its summands, a `#`'s children.  The largest
    power is one Miller pass (`LaurentPoly.__pow__`), and every other
    factor is multiplied in one copy at a time, so no two powers meet in
    `__mul__`.  A copy costs the length times the size of the coefficients
    so far, so factors go smallest 1-norm first."""
    root, record = next(reversed(records.items()))
    if record.factors is None:
        return None
    paths, factors = {root: 1}, {}
    for node, record in reversed(records.items()):
        n = paths.get(node)
        if n:
            for summand in node.children() if node.__class__ is Sum else ():
                paths[summand] = paths.get(summand, 0) + n
            for k, e in record.factors:
                factors[k] = factors.get(k, 0) + n * e
    ordered = sorted(factors.items(), key=lambda factor: 2 * abs(factor[0]) + abs(2 * factor[0] - 1))
    top, power = max(ordered, key=lambda factor: factor[1], default=(0, 0))  # q_0^0 = 1
    product = genus_one_alexander(top) ** power
    for k, e in ordered:
        if k != top:
            q = genus_one_alexander(k)
            for _ in range(e):
                product = q * product  # three rows of the product's length
    return product.canonical()


def genus_of(e: KnotExpr) -> IntInterval:
    """Genus interval; a point wherever a closed form applies."""
    return fold(e, step)[e].genus


def trivial_of(e: KnotExpr) -> TriState:
    """Trivial iff genus zero."""
    return fold(e, step)[e].trivial


def slice_of(e: KnotExpr) -> TriState:
    """Smooth sliceness tri-state."""
    return fold(e, step)[e].slice


def class_r_of(e: KnotExpr) -> TriState:
    """Membership in class R: nontrivial, not a torus knot, not a cable knot."""
    return fold(e, step)[e].in_R


def alexander_of(e: KnotExpr) -> LaurentPoly | None:
    """Canonical Alexander polynomial, or None when an atom is on the `#`
    spine.  It folds the whole tree, companions' guards included."""
    return _alexander(fold(e, step))


# -- provenance ----------------------------------------------------------------


def facts_of(e: KnotExpr) -> KnotFacts:
    """All classical invariants with one provenance record per fact."""
    return knot_facts(fold(e, step))


def knot_facts(records: dict[KnotExpr, NodeFacts]) -> KnotFacts:
    """The classical invariants and provenance of the memo's root, its last
    entry; the Alexander polynomial is built once, from its multiset."""
    (e, facts), alexander = next(reversed(records.items())), _alexander(records)
    provenance = tuple([Provenance(fact, rule, _ANCHORS[rule]) for fact, rule in (
        *zip(("genus", "alexander", "slice"), facts.rules),
        ("in_R", "class-r/definition"), ("trivial", "trivial/genus"))])
    if alexander is not None and abs(alexander.evaluate(1)) != 1:
        raise AssertionError(f"Alexander polynomial of {render(e)} fails the determinant-one check")
    return KnotFacts(facts.genus, alexander, facts.slice, facts.in_R, facts.trivial, provenance)
