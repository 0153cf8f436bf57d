"""Certified intervals for the first-order genus.

The first-order genus of a nontrivial knot is the minimum, over minimal
genus Seifert surfaces and symplectic bases, of the summed genera of
surfaces in the knot complement bounded by the basis curves; the unknot
is assigned zero.  This engine assembles an interval [lo, hi] whose
bounds each come from one named rule:

lower bounds
    * twice the genus lower bound (a basis curve bounding a disc would
      let the surface compress, contradicting minimality);
    * for guarded untwisted doubles and doubly-companioned knots, the
      symplectic-basis bound: every basis curve is a satellite of the
      companion(s), so a combined Schubert/no-disc bound holds for every
      unimodular change of basis, and its minimum over all bases has a
      proven closed form (`min_basis_bound`).

upper bounds
    * explicit weak-grope certificates on the standard surfaces of the
      curated leaves, guarded doubles, and the zero-framing
      doubly-companioned construction;
    * subadditivity under connected sum.

Unknown simply stays unknown: hi = None whenever no certificate exists.
`step` is the one fold step of a report: one `NodeFacts` per node holds
its facts and these bounds, with rule ids, and names child nodes, never
records.  `_ANCHORS` is the one rule table of both engines.  This module
imports no other engine; `classical` and `warnings` walk `fold`'s memo.
"""

from __future__ import annotations

import collections
import functools

from .frozen import Frozen, integer
from .knotlang import Atom, Fig8, Kfam, KnotExpr, Ksat, Sum, Trefoil, TriState, Unknot, Wh0, fold, render


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


class WeakGropeCertificate(Frozen):
    """First-stage genus g plus the 2g second-stage genera, in basis order;
    every genus must be an int (not a bool)."""

    __slots__ = ("first_stage_genus", "second_stage_genera")

    def __init__(self, first_stage_genus: int, second_stage_genera: tuple[int, ...]):
        if integer(first_stage_genus, "first stage genus") < 1:
            raise ValueError(f"first stage genus must be >= 1, got {first_stage_genus}")
        second_stage_genera = tuple(integer(g, "second-stage genus") for g in second_stage_genera)
        if len(second_stage_genera) != 2 * first_stage_genus:
            raise ValueError(
                f"expected {2 * first_stage_genus} second-stage genera, "
                f"got {len(second_stage_genera)}")
        if any(g < 0 for g in second_stage_genera):
            raise ValueError("second-stage genera must be nonnegative")
        object.__setattr__(self, "first_stage_genus", first_stage_genus)
        object.__setattr__(self, "second_stage_genera", second_stage_genera)

    @property
    def value(self) -> int:
        """The certified upper bound: the sum of the second-stage genera."""
        return sum(self.second_stage_genera)


class BasisWitness(Frozen):
    """A basis change x = p*a + q*b, y = r*a + s*b realizing the minimum;
    all five fields are ints (not bools)."""

    __slots__ = ("p", "q", "r", "s", "value")

    def __init__(self, p: int, q: int, r: int, s: int, value: int):
        fields = [integer(x, f"witness {name}") for name, x in zip(self.__slots__, (p, q, r, s, value))]
        if p * s - q * r != 1:
            raise ValueError("witness must have determinant 1")
        for name, field in zip(self.__slots__, fields):
            object.__setattr__(self, name, field)


# One bound of a first-order interval: `bound` is "lo" or "hi".
BoundRecord = collections.namedtuple("BoundRecord", "bound value rule anchor")


class FirstOrderResult(collections.namedtuple("FirstOrderResult", "interval provenance")):
    """Interval for the first-order genus, one provenance record per bound."""

    __slots__ = ()

    @property
    def lo(self) -> int:
        return self.interval.lo

    @property
    def hi(self) -> int | None:
        return self.interval.hi


# The cache no longer saves time; it stays because perfbench's tracer
# times this function as `min_basis_bound.__wrapped__`.  It is typed, so
# a cached (1, 0) cannot answer (True, 0).
@functools.lru_cache(maxsize=None, typed=True)
def min_basis_bound(g_alpha: int, g_beta: int) -> tuple[int, BasisWitness]:
    """Exact minimum of the per-basis lower bound over all unimodular bases.

    A curve p*a + q*b on the surface is a winding-|p| satellite of the
    first companion and a winding-|q| satellite of the second, so
    Schubert's inequality bounds its genus below by term(p, q), where
    term(u, v) = max(1, |u|*g_alpha, |v|*g_beta) (every curve on a
    nontrivial knot's minimal surface bounds genus >= 1).  The minimum
    of term(p, q) + term(r, s) over integers with p*s - q*r = 1 is
    g_alpha + max(1, g_beta), for g_alpha >= 1 and g_beta >= 0:

    * Either p != 0 and s != 0, or q != 0 and r != 0; otherwise both
      products vanish and the determinant is 0, not 1.
    * In the first case term(p, q) >= |p|*g_alpha >= g_alpha and
      term(r, s) >= max(1, |s|*g_beta) >= max(1, g_beta); the second
      case is the same with the two terms swapped.
    * The basis (p, q, r, s) = (0, -1, 1, 0) attains the bound.

    The witness is the minimizer with lexicographically smallest
    (|p|, |q|, |r|, |s|, p, q, r, s): p = 0 forces q*r = -1, hence
    |q| = |r| = 1; s = 0 attains the bound; and q = -1 precedes q = 1.
    Both genera must be ints (not bools).
    """
    if integer(g_alpha, "first companion genus") < 1:
        raise ValueError(f"first companion genus must be >= 1, got {g_alpha}")
    if integer(g_beta, "second companion genus") < 0:
        raise ValueError(f"second companion genus must be >= 0, got {g_beta}")
    value = g_alpha + max(1, g_beta)
    return value, BasisWitness(0, -1, 1, 0, value)


# -- interval assembly -----------------------------------------------------


def first_order_genus(e: KnotExpr) -> FirstOrderResult:
    """Certified interval for the first-order genus, with provenance.

    A guard that is not established disables its rule and becomes a
    warning of `warnings`.  `cli.report` folds `step` itself.
    """
    return first_order_result(fold(e, step)[e])


def first_order_result(record: NodeFacts) -> FirstOrderResult:
    """The root's bounds from its `step` record, with one provenance record each."""
    lo, hi = record.lo, record.hi
    records = [BoundRecord(bound, *pair, _ANCHORS[pair[1]])
               for bound, pair in (("lo", lo), ("hi", hi)) if pair is not None]
    return FirstOrderResult(IntInterval(lo[0], None if hi is None else hi[0]), tuple(records))


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


class NodeFacts(collections.namedtuple(
        "NodeFacts", "genus trivial slice in_R factors rules failed warned lo hi")):
    """One node's record from `firstorder.step`; `rules` names its genus,
    Alexander and slice rules, and its first-order bounds `lo` and `hi`
    (None if unknown) are (value, rule id) pairs.  The Alexander fact, the
    `#` spine's multiset of q_k = `genus_one_alexander(k)`, takes O(1) per
    node: `factors` are a spine leaf's (k, e) pairs, k != 0, () on a `#`,
    or None if an atom is on the spine.  `failed` pairs the warning of each
    closed-form guard failing at the node with the subtree it names, and
    `warned` holds the child nodes under which a guard fails.  A record
    names nodes, never records: equal records have equal facts, bounds,
    guards and named nodes, and no compare, hash, repr or pickle recurses.
    `genus` is an IntInterval, and `trivial`, `slice` and `in_R` TriStates.
    Records are namedtuples, not `typing.NamedTuple`s: no CLI imports `typing`."""

    __slots__ = ()


def warnings(records: dict[KnotExpr, NodeFacts], texts: dict | None = None) -> list[str]:
    """A warning per closed-form guard failing under the memo's root, its last
    entry, in pre-order.  Each named subtree is rendered once, through `texts`,
    `render`'s memo keyed by node; a subtree it already spells is a lookup."""
    out: list[str] = []
    texts = {} if texts is None else texts
    stack = [next(reversed(records))]
    while stack:
        facts = records[stack.pop()]
        for message, sub in facts.failed:
            text = texts.get(sub)
            if text.__class__ is not str:  # not yet joined: `render` joins or spells it
                text = render(sub, texts=texts)
            out.append(message + text)
        stack.extend(reversed(facts.warned))
    return out


def _satellite(framing: int, other_trivial: TriState) -> TriState:
    """Whether a ksat is a satellite of one companion: yes if the framing
    next to the other knot is nonzero or that knot is nontrivial, no if a
    zero framing meets a trivial knot (the unknot results), else unknown."""
    if framing != 0 or other_trivial is TriState.NO:
        return TriState.YES
    return TriState.NO if other_trivial is TriState.YES else TriState.UNKNOWN


def _certified(cert: WeakGropeCertificate, rule: str, genus: IntInterval, trivial: TriState) -> tuple[int, str]:
    """The certificate's (value, rule id), if it can be valid for a knot of
    this genus and triviality; otherwise AssertionError naming why.

    The first stage must be a minimal genus surface, so its genus must
    equal the (exactly known) genus of the expression; and no second
    stage of a nontrivial knot may be a disc, since a disc-bounding
    basis curve would compress the surface below minimal genus.
    """
    reasons: list[str] = []
    if not genus.is_point():
        reasons.append("genus of expression not exactly known")
    elif cert.first_stage_genus != genus.lo:
        reasons.append("first stage not minimal genus")
    if trivial is TriState.NO and any(s == 0 for s in cert.second_stage_genera):
        reasons.append("zero second stage on nontrivial knot")
    if reasons:  # a bug in the rules, so `python -O` must keep this check
        raise AssertionError(f"invalid {rule} certificate: {'; '.join(reasons)}")
    return cert.value, rule


def step(e: KnotExpr, kids: list[NodeFacts]) -> NodeFacts:
    """The fold step of a report, run once per distinct subtree: e's
    record from its children's.  One branch per node class, tested by
    identity (node classes are final), chooses each fact with its rule id,
    evaluates the node's closed-form guards, here only (the bounds and
    `warnings` read `failed`), and names the first-order rule
    that fires there, if any; each certificate is checked after the
    branch.  No companion adds a factor.

    The rules exclude each other, so each bound is chosen, not searched
    for.  A trivial node takes `first-order/unknot` for both: no guard
    holds there, as both need companions known nontrivial, and curated
    leaves are nontrivial.  A guarded wh0 or ksat has genus one, so its
    enumerator, g + max(1, h) >= 2, is its lower bound; elsewhere twice
    the genus is.  At most one rule gives an upper bound, by node type:
    the leaf, double or satellite (m = n = 0) certificate, or
    subadditivity on a `#` whose summands both have one.  Where values
    tie, the unknot rule and the enumerators win: the unknot rule ties
    only with twice the genus and subadditivity (0 and 0 + 0), an
    enumerator only with twice the genus (at g = 1).
    """
    cls = e.__class__
    torus, cable, slice_ = e.flags  # all unknown on composite nodes
    failed: list[tuple[str, KnotExpr]] = []
    factors: tuple[tuple[int, int], ...] | None = ()  # unknot, doubles, spine sums
    lo = hi = cert = None  # cert: a (certificate, rule id) pair, checked below
    if cls is Unknot:
        genus, slice_ = IntInterval.point(0), TriState.YES
        rules = "genus/unknot", "alexander/unknot", "slice/unknot"
    elif cls is Trefoil or cls is Fig8:
        genus, factors = IntInterval.point(1), ((1 if cls is Trefoil else -1, 1),)
        rules = "genus/curated-leaf", "alexander/seifert-determinant", "slice/curated-leaf"
        cert = WeakGropeCertificate(1, (1, 1)), "first-order/leaf-certificate"
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
        else:  # the multiset sum, added up by `classical._alexander`
            alexander_rule = "alexander/connected-sum"
        rules = "genus/connected-sum", alexander_rule, slice_rule
        if left.hi is not None and right.hi is not None:
            hi = left.hi[0] + right.hi[0], "first-order/subadditive"
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
        # A guard passes only on companions that are leaves flagged noncable
        # (fig8, kfam, atom), so their genus is exact and .lo is that genus.
        if not failed:
            lo = min_basis_bound(companion.genus.lo, 0)[0], "first-order/double-enumerator"
            cert = WeakGropeCertificate(1, (companion.genus.lo, 1)), "first-order/double-certificate"
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
        if not failed:  # both companions are such leaves
            gj, gl = j.genus.lo, l.genus.lo
            lo = min_basis_bound(gj, gl)[0], "first-order/satellite-enumerator"
            if e.m == 0 and e.n == 0:
                cert = WeakGropeCertificate(1, (gj, gl)), "first-order/satellite-certificate"
    trivial = (TriState.YES if genus.hi == 0 else
               TriState.NO if genus.lo >= 1 else TriState.UNKNOWN)
    flags = (trivial, torus, cable)
    in_r = (TriState.NO if TriState.YES in flags else
            TriState.YES if flags == (TriState.NO,) * 3 else TriState.UNKNOWN)
    lo = lo or (2 * genus.lo, "first-order/twice-genus")  # unless an enumerator fired
    if cert is not None:
        hi = _certified(*cert, genus, trivial)
    if trivial is TriState.YES:  # no certificate is made on a trivial node
        lo = hi = 0, "first-order/unknot"
    if hi is not None and lo[0] > hi[0]:
        raise AssertionError(f"inconsistent first-order bounds [{lo[0]}, {hi[0]}]: engine rules disagree")
    warned = tuple([node for node, k in zip(e.children(), kids) if k.failed or k.warned])
    return NodeFacts(genus, trivial, slice_, in_r, factors, rules, tuple(failed), warned, lo, hi)
