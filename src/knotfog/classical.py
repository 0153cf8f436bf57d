"""Rule engine for classical invariants of construction trees.

Derives, with per-rule provenance: a genus interval, the Alexander
polynomial, a sliceness tri-state, membership in class R (nontrivial
knots that are neither torus nor cable knots), and triviality.  Every
rule is either an exact closed form for a node type or a conservative
interval; nothing is ever guessed.  One fold step, `node_facts`, gives
each fact its value and rule id; the Alexander fact is the `#` spine's
multiset of genus-one factors, multiplied out once by `knot_facts`.
"""

from __future__ import annotations

import collections

from .frozen import Frozen, integer
from .knotlang import (Atom, Fig8, Kfam, KnotExpr, Ksat, Sum, Trefoil, TriState,
                       Unknot, Wh0, fold, render)
from .laurent import LaurentPoly


class IntInterval(Frozen):
    """Integer interval [lo, hi]; hi=None means unbounded above.  Each bound
    given must be an int (not a bool)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int | None):
        if integer(lo, "interval lower bound") < 0:
            raise ValueError(f"interval lower bound must be nonnegative, got {lo}")
        if hi is not None and lo > integer(hi, "interval upper bound"):
            raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value: int) -> "IntInterval":
        return cls(value, value)

    def is_point(self) -> bool:
        return self.hi == self.lo

    def __add__(self, other: "IntInterval") -> "IntInterval":
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return IntInterval(self.lo + other.lo, hi)

    def __str__(self) -> str:
        return f"[{self.lo}, {'inf' if self.hi is None else self.hi}]"


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


def _satellite(framing: int, other_trivial: TriState) -> TriState:
    """Whether a ksat is a satellite of one companion: yes if the framing
    next to the other knot is nonzero or that knot is nontrivial, no if a
    zero framing meets a trivial knot (the unknot results), else unknown."""
    if framing != 0 or other_trivial is TriState.NO:
        return TriState.YES
    return TriState.NO if other_trivial is TriState.YES else TriState.UNKNOWN


def satellite_of_first(e: Ksat) -> TriState:
    """Whether the construction is a satellite with the first companion."""
    if not isinstance(e, Ksat):
        raise TypeError(f"expected a Ksat node, got {type(e).__name__}")
    return _satellite(e.n, trivial_of(e.l))


class NodeFacts(collections.namedtuple(
        "NodeFacts", "genus trivial slice in_R factors summands rules failed warned")):
    """One node's classical facts; `rules` names its genus, Alexander and
    slice rules.  The Alexander fact, the `#` spine's multiset of q_k =
    `genus_one_alexander(k)`, takes O(1) per node: a spine leaf's
    `factors` are its (k, e) pairs, k != 0, a `#`'s `summands` its two
    records, and `factors` is None if an atom is on the spine.  `failed`
    pairs the warning of each closed-form guard failing at the node with
    the subtree it names; `warned` holds the child records under which a
    guard fails.  `genus` is an IntInterval, and `trivial`, `slice` and
    `in_R` are TriStates.  The records are namedtuple subclasses, not
    `typing.NamedTuple`s, so that a CLI process does not import `typing`."""

    __slots__ = ()

    def warnings(self, texts: dict | None = None) -> list[str]:
        """A warning per closed-form guard failing in the subtree, pre-order.
        Each named subtree is rendered once, through `texts`, the memo of
        `render`; a subtree it already spells is a lookup."""
        warnings: list[str] = []
        texts = {} if texts is None else texts
        stack = [self]
        while stack:
            facts = stack.pop()
            for message, sub in facts.failed:
                text = texts.get(id(sub))
                if text.__class__ is not str:  # not yet joined: `render` joins or spells it
                    text = render(sub, texts=texts)
                warnings.append(message + text)
            stack.extend(reversed(facts.warned))
        return warnings


def node_facts(e: KnotExpr, kids: list[NodeFacts]) -> NodeFacts:
    """The fold step of the facts engine, run once per distinct subtree
    by `firstorder.step`.  Every closed-form guard is evaluated here only;
    the first-order bounds and `NodeFacts.warnings` read `failed`.  Each
    rule id is chosen where its value is; no companion adds a factor.
    One branch per node class, tested by identity: node classes are final."""
    cls = e.__class__
    torus, cable, slice_ = e.flags  # all unknown on composite nodes
    failed: list[tuple[str, KnotExpr]] = []
    factors: tuple[tuple[int, int], ...] | None = ()  # unknot, doubles
    summands: tuple[NodeFacts, ...] = ()
    if cls is Unknot:
        genus, slice_ = IntInterval.point(0), TriState.YES
        rules = "genus/unknot", "alexander/unknot", "slice/unknot"
    elif cls is Trefoil or cls is Fig8:
        genus, factors = IntInterval.point(1), ((1 if cls is Trefoil else -1, 1),)
        rules = "genus/curated-leaf", "alexander/seifert-determinant", "slice/curated-leaf"
    elif cls is Kfam:
        genus, factors = IntInterval.point(e.n), ((-2, e.n),)  # PRETZEL_BASE ** n
        rules = "genus/pretzel-family", "alexander/pretzel-power", "slice/ribbon"
    elif cls is Atom:
        genus, factors = IntInterval.point(e.genus), None
        rules = "genus/declared", "alexander/unknown", "slice/declared"
    elif cls is Sum:
        left, right = kids
        genus = left.genus + right.genus
        both = left.slice is TriState.YES and right.slice is TriState.YES
        slice_, slice_rule = ((TriState.YES, "slice/connected-sum") if both else
                              (TriState.UNKNOWN, "slice/unknown-sum"))
        if left.factors is None or right.factors is None:
            factors, alexander_rule = None, "alexander/unknown-summand"
        else:  # the multiset sum, added up by `_alexander`
            summands, alexander_rule = (left, right), "alexander/connected-sum"
        rules = "genus/connected-sum", alexander_rule, slice_rule
    elif cls is Wh0:
        (companion,) = kids
        genus = (IntInterval.point(0) if companion.trivial is TriState.YES else
                 IntInterval.point(1) if companion.trivial is TriState.NO else IntInterval(0, 1))
        slice_, slice_rule = ((TriState.YES, "slice/double-of-slice")
                              if companion.slice is TriState.YES else
                              (TriState.UNKNOWN, "slice/unknown-double"))
        rules = "genus/whitehead-double", "alexander/untwisted-double", slice_rule
        if companion.trivial is not TriState.NO:
            failed.append(("whitehead closed form requires a companion known nontrivial: ", e.companion))
        if e.companion.flags[1] is not TriState.NO:
            failed.append(("whitehead closed form requires a noncable companion: ", e.companion))
    else:  # Ksat
        j, l = kids
        of_j, of_l = _satellite(e.n, l.trivial), _satellite(e.m, j.trivial)
        # A zero framing next to a trivial knot collapses the construction;
        # a satellite of a nontrivial companion has genus exactly one.
        if of_j is TriState.NO or of_l is TriState.NO:
            genus, genus_rule = IntInterval.point(0), "genus/satellite-unknot"
        elif (of_j is TriState.YES and j.trivial is TriState.NO) \
                or (of_l is TriState.YES and l.trivial is TriState.NO):
            genus, genus_rule = IntInterval.point(1), "genus/satellite-one"
        else:
            genus, genus_rule = IntInterval(0, 1), "genus/standard-surface"
        factors = ((e.m * e.n, 1),) if e.m and e.n else ()
        rules = genus_rule, "alexander/twist-model", "slice/unknown"
        for side, sub, facts in (("first", e.j, j), ("second", e.l, l)):
            if facts.in_R is not TriState.YES:
                failed.append((f"satellite closed forms require the {side} companion in class R: ", sub))
    trivial = (TriState.YES if genus.hi == 0 else
               TriState.NO if genus.lo >= 1 else TriState.UNKNOWN)
    flags = (trivial, torus, cable)
    in_r = (TriState.NO if TriState.YES in flags else
            TriState.YES if flags == (TriState.NO,) * 3 else TriState.UNKNOWN)
    warned = tuple([k for k in kids if k.failed or k.warned])
    return NodeFacts(genus, trivial, slice_, in_r, factors, summands, rules, tuple(failed), warned)


def _alexander(facts: NodeFacts) -> LaurentPoly | None:
    """The canonical product of q_k^e over the spine's multiset {k: e}, or
    None if an atom is on the spine.  Each distinct spine record is met
    once: in topological order it passes the number of spine paths that
    reach it on to its summands.  The largest power is one Miller pass
    (`LaurentPoly.__pow__`), and every other factor is multiplied in one
    copy at a time, so no two powers meet in `__mul__`.  A copy costs the
    length times the size of the coefficients so far, so factors go
    smallest 1-norm first."""
    if facts.factors is None:
        return None
    order, seen, stack = [], set(), [(facts, False)]
    while stack:  # post-order: summands before the sums that hold them
        record, finished = stack.pop()
        if finished:
            order.append(record)
        elif id(record) not in seen:
            seen.add(id(record))
            stack.append((record, True))
            stack.extend((summand, False) for summand in record.summands)
    paths, factors = {id(facts): 1}, {}
    for record in reversed(order):
        n = paths[id(record)]
        for summand in record.summands:
            paths[id(summand)] = paths.get(id(summand), 0) + n
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
    return fold(e, node_facts).genus


def trivial_of(e: KnotExpr) -> TriState:
    """Trivial iff genus zero."""
    return fold(e, node_facts).trivial


def slice_of(e: KnotExpr) -> TriState:
    """Smooth sliceness tri-state."""
    return fold(e, node_facts).slice


def class_r_of(e: KnotExpr) -> TriState:
    """Membership in class R: nontrivial, not a torus knot, not a cable knot."""
    return fold(e, node_facts).in_R


def alexander_of(e: KnotExpr) -> LaurentPoly | None:
    """Canonical Alexander polynomial, or None when an atom is on the `#`
    spine.  It folds the whole tree, companions' guards included."""
    return _alexander(fold(e, node_facts))


# -- provenance ----------------------------------------------------------------


# Rule id -> anchor, the one place each classical rule is spelled.
_ANCHORS = {
    "genus/unknot": "the unknot bounds a disc",
    "genus/curated-leaf": "trefoil and figure-eight have genus one",
    "genus/pretzel-family":
        "the n-th pretzel-family surface has genus n and is minimal by the degree of its Alexander polynomial",
    "genus/declared": "genus declared on the atom",
    "genus/connected-sum": "genus is additive under connected sum",
    "genus/whitehead-double":
        "an untwisted double has genus one for a nontrivial companion and is trivial for a trivial one",
    "genus/satellite-unknot":
        "a zero framing next to a trivial companion collapses the construction to the unknot",
    "genus/satellite-one":
        "a certified satellite carried by the standard genus-one surface has genus exactly one",
    "genus/standard-surface":
        "the standard surface bounds the genus by one; nontriviality is not established",
    "alexander/unknot": "the unknot has trivial Alexander polynomial",
    "alexander/seifert-determinant": "det(V - t*V^T) of the curated genus-one Seifert matrix",
    "alexander/pretzel-power": "the pretzel family satisfies Delta_n = (-2t^2+5t-2)^n",
    "alexander/untwisted-double": "untwisted doubles have trivial Alexander polynomial",
    "alexander/twist-model":
        "the standard genus-one surface with band framings m, n has Seifert matrix [[m,1],[0,n]]",
    "alexander/connected-sum": "Alexander polynomials multiply under connected sum",
    "alexander/unknown": "no rule produces the polynomial of an opaque atom",
    "alexander/unknown-summand":
        "an atom on the connected-sum spine has an unknown polynomial, so the product is unknown",
    "slice/unknot": "the unknot is slice",
    "slice/ribbon": "the pretzel family is ribbon, and ribbon implies slice",
    "slice/curated-leaf": "curated flag: classical sliceness obstructions",
    "slice/declared": "sliceness declared on the atom",
    "slice/double-of-slice": "the untwisted double of a smoothly slice knot is smoothly slice",
    "slice/connected-sum": "a connected sum of slice knots is slice",
    "slice/unknown": "no sliceness rule applies to the doubly-companioned construction",
    "slice/unknown-sum":
        "a summand is not known slice, and no rule decides the sliceness of the sum",
    "slice/unknown-double":
        "the companion is not known slice, and no rule decides the sliceness of its untwisted double",
    "class-r/definition": "class R consists of nontrivial knots that are neither torus nor cable knots",
    "trivial/genus": "a knot is trivial iff it has genus zero",
}

def facts_of(e: KnotExpr) -> KnotFacts:
    """All classical invariants with one provenance record per fact."""
    return knot_facts(e, fold(e, node_facts))


def knot_facts(e: KnotExpr, facts: NodeFacts) -> KnotFacts:
    """e's classical invariants and provenance, read off its fold record
    alone; the Alexander polynomial is built once, from its multiset."""
    alexander = _alexander(facts)
    provenance = tuple([Provenance(fact, rule, _ANCHORS[rule]) for fact, rule in (
        *zip(("genus", "alexander", "slice"), facts.rules),
        ("in_R", "class-r/definition"), ("trivial", "trivial/genus"))])
    if alexander is not None and abs(alexander.evaluate(1)) != 1:
        raise AssertionError(f"Alexander polynomial of {render(e)} fails the determinant-one check")
    return KnotFacts(facts.genus, alexander, facts.slice, facts.in_R, facts.trivial, provenance)
