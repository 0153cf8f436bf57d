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
"""

from __future__ import annotations

import collections
import functools

from .classical import IntInterval, NodeFacts, node_facts
from .frozen import Frozen, integer
from .knotlang import Fig8, KnotExpr, Ksat, Sum, Trefoil, TriState, Wh0, fold


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


# Rule id -> anchor, the one place each first-order rule is spelled.
_ANCHORS = {
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


def first_order_genus(e: KnotExpr) -> FirstOrderResult:
    """Certified interval for the first-order genus, with provenance.

    A guard that is not established disables its rule and becomes one of
    `NodeFacts.warnings`.  `cli.report` folds `step` itself.
    """
    _, lo, hi = fold(e, step)
    return first_order_result(lo, hi)


def first_order_result(lo: tuple[int, str], hi: tuple[int, str] | None) -> FirstOrderResult:
    """The root's bounds from `step`, with one provenance record each."""
    records = [BoundRecord("lo", *lo, _ANCHORS[lo[1]])]
    if hi is not None:
        records.append(BoundRecord("hi", *hi, _ANCHORS[hi[1]]))
    return FirstOrderResult(IntInterval(lo[0], None if hi is None else hi[0]), tuple(records))


def _certified(cert: WeakGropeCertificate, facts: NodeFacts, rule: str) -> tuple[int, str]:
    """The certificate's (value, rule id), if it can be valid for an
    expression with these facts; otherwise AssertionError naming why.

    The first stage must be a minimal genus surface, so its genus must
    equal the (exactly known) genus of the expression; and no second
    stage of a nontrivial knot may be a disc, since a disc-bounding
    basis curve would compress the surface below minimal genus.
    """
    reasons: list[str] = []
    if not facts.genus.is_point():
        reasons.append("genus of expression not exactly known")
    elif cert.first_stage_genus != facts.genus.lo:
        reasons.append("first stage not minimal genus")
    if facts.trivial is TriState.NO and any(s == 0 for s in cert.second_stage_genera):
        reasons.append("zero second stage on nontrivial knot")
    if reasons:  # a bug in the rules, so `python -O` must keep this check
        raise AssertionError(f"invalid {rule} certificate: {'; '.join(reasons)}")
    return cert.value, rule


def step(e: KnotExpr, kids: list) -> tuple[NodeFacts, tuple[int, str], tuple[int, str] | None]:
    """The fold step of a report: e's facts, from one `node_facts` call,
    and its bounds lo and hi (None if unknown) as (value, rule id) pairs.

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
    facts = node_facts(e, [k[0] for k in kids])
    if facts.trivial is TriState.YES:
        return facts, (0, "first-order/unknot"), (0, "first-order/unknot")
    lo, hi = (2 * facts.genus.lo, "first-order/twice-genus"), None
    cls = e.__class__
    if cls is Trefoil or cls is Fig8:
        hi = _certified(WeakGropeCertificate(1, (1, 1)), facts, "first-order/leaf-certificate")
    # A guard passes only on companions that are leaves flagged noncable
    # (fig8, kfam, atom), so their genus is exact and .lo is that genus.
    elif cls is Wh0 and not facts.failed:
        g_j = kids[0][0].genus.lo
        lo = min_basis_bound(g_j, 0)[0], "first-order/double-enumerator"
        hi = _certified(WeakGropeCertificate(1, (g_j, 1)), facts, "first-order/double-certificate")
    elif cls is Ksat and not facts.failed:
        gj, gl = kids[0][0].genus.lo, kids[1][0].genus.lo
        lo = min_basis_bound(gj, gl)[0], "first-order/satellite-enumerator"
        if e.m == 0 and e.n == 0:
            hi = _certified(WeakGropeCertificate(1, (gj, gl)), facts,
                            "first-order/satellite-certificate")
    elif cls is Sum and kids[0][2] is not None and kids[1][2] is not None:
        hi = kids[0][2][0] + kids[1][2][0], "first-order/subadditive"
    if hi is not None and lo[0] > hi[0]:
        raise AssertionError(
            f"inconsistent first-order bounds [{lo[0]}, {hi[0]}]: engine rules disagree")
    return facts, lo, hi
