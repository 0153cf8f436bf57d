"""Rule engine for classical invariants of construction trees.

Derives, with per-rule provenance: a genus interval, the Alexander
polynomial, a sliceness tri-state, membership in class R (nontrivial
knots that are neither torus nor cable knots), and triviality.  Every
rule is either an exact closed form for a node type or a conservative
interval; nothing is ever guessed.  The one fold step, `firstorder.step`,
gives each fact its value and rule id; the Alexander fact is the `#`
spine's multiset of genus-one factors, multiplied out once by
`knot_facts`.  `_ANCHORS` is the one rule table of both engines.
"""

from __future__ import annotations

import collections

from .frozen import Frozen, integer
from .knotlang import KnotExpr, Ksat, TriState, fold, render
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
        "NodeFacts", "genus trivial slice in_R factors summands rules failed warned lo hi")):
    """One node's record from `firstorder.step`; `rules` names its genus,
    Alexander and slice rules, and its first-order bounds `lo` and `hi`
    (None if unknown) are (value, rule id) pairs.  The Alexander fact,
    the `#` spine's multiset of q_k = `genus_one_alexander(k)`, takes
    O(1) per node: a spine leaf's `factors` are its (k, e) pairs, k != 0,
    a `#`'s `summands` its two records, and `factors` is None if an atom
    is on the spine.  `failed` pairs the warning of each closed-form
    guard failing at the node with the subtree it names; `warned` holds
    the child records under which a guard fails.  `genus` is an
    IntInterval, and `trivial`, `slice` and `in_R` are TriStates.  The
    records are namedtuple subclasses, not `typing.NamedTuple`s, so that
    a CLI process does not import `typing`."""

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
    from .firstorder import step  # the fold step sits above this module
    return fold(e, step).genus


def trivial_of(e: KnotExpr) -> TriState:
    """Trivial iff genus zero."""
    from .firstorder import step
    return fold(e, step).trivial


def slice_of(e: KnotExpr) -> TriState:
    """Smooth sliceness tri-state."""
    from .firstorder import step
    return fold(e, step).slice


def class_r_of(e: KnotExpr) -> TriState:
    """Membership in class R: nontrivial, not a torus knot, not a cable knot."""
    from .firstorder import step
    return fold(e, step).in_R


def alexander_of(e: KnotExpr) -> LaurentPoly | None:
    """Canonical Alexander polynomial, or None when an atom is on the `#`
    spine.  It folds the whole tree, companions' guards included."""
    from .firstorder import step
    return _alexander(fold(e, step))


# -- provenance ----------------------------------------------------------------


# Rule id -> anchor, the one place each rule of either engine is spelled.
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
    "first-order/twice-genus": "the first-order genus is at least twice the genus: no basis curve of a "
                               "minimal surface bounds a disc in the complement",
    "first-order/unknot": "the unknot has first-order genus zero",
    "first-order/leaf-certificate": "each basis curve of the standard genus-one surface bounds a punctured torus",
    "first-order/double-enumerator": "on the unique minimal surface of a double of a noncable knot, every "
                                     "basis curve is a satellite of the companion: g1 >= 1 + g(companion)",
    "first-order/double-certificate": "on the standard double surface one curve bounds a pushed-off minimal "
                                      "surface of the companion and the other a punctured torus",
    "first-order/satellite-enumerator": "every symplectic basis of a minimal surface consists of satellites of "
                                        "the two companions: g1 >= g(J) + g(L)",
    "first-order/satellite-certificate": "at zero framings the two companion Seifert surfaces attach to the "
                                         "standard surface: g1 <= g(J) + g(L)",
    "first-order/subadditive": "the first-order genus is subadditive under connected sum",
}


def facts_of(e: KnotExpr) -> KnotFacts:
    """All classical invariants with one provenance record per fact."""
    from .firstorder import step
    return knot_facts(e, fold(e, step))


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
