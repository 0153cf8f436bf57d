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

import dataclasses
import functools

from .classical import IntInterval, genus_of, class_r_of, trivial_of
from .knotlang import (Fig8, KnotExpr, Ksat, Sum, Trefoil, TriState, Unknot, Wh0,
                       builtin_flags)


@dataclasses.dataclass(frozen=True)
class WeakGropeCertificate:
    """First-stage genus g plus the 2g second-stage genera, in basis order."""

    first_stage_genus: int
    second_stage_genera: tuple[int, ...]

    def __post_init__(self):
        if self.first_stage_genus < 1:
            raise ValueError(f"first stage genus must be >= 1, got {self.first_stage_genus}")
        if len(self.second_stage_genera) != 2 * self.first_stage_genus:
            raise ValueError(
                f"expected {2 * self.first_stage_genus} second-stage genera, "
                f"got {len(self.second_stage_genera)}")
        if any(g < 0 for g in self.second_stage_genera):
            raise ValueError("second-stage genera must be nonnegative")

    @property
    def value(self) -> int:
        """The certified upper bound: the sum of the second-stage genera."""
        return sum(self.second_stage_genera)


@dataclasses.dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_certificate(cert: WeakGropeCertificate, e: KnotExpr) -> CertificateCheck:
    """Whether the certificate can be valid for the given expression.

    The first stage must be a minimal genus surface, so its genus must
    equal the (exactly known) genus of the expression; and no second
    stage of a nontrivial knot may be a disc, since a disc-bounding
    basis curve would compress the surface below minimal genus.
    """
    reasons: list[str] = []
    g = genus_of(e)
    if not g.is_point():
        reasons.append("genus of expression not exactly known")
    elif cert.first_stage_genus != g.lo:
        reasons.append("first stage not minimal genus")
    if trivial_of(e) is TriState.NO and any(s == 0 for s in cert.second_stage_genera):
        reasons.append("zero second stage on nontrivial knot")
    return CertificateCheck(not reasons, tuple(reasons))


@dataclasses.dataclass(frozen=True)
class BasisWitness:
    """A basis change x = p*a + q*b, y = r*a + s*b realizing the minimum."""

    p: int
    q: int
    r: int
    s: int
    value: int

    def __post_init__(self):
        if self.p * self.s - self.q * self.r != 1:
            raise ValueError("witness must have determinant 1")


@dataclasses.dataclass(frozen=True)
class BoundRecord:
    bound: str  # "lo" | "hi"
    value: int
    rule: str
    anchor: str

    def to_json(self) -> dict:
        return {"bound": self.bound, "value": self.value,
                "rule": self.rule, "anchor": self.anchor}


@dataclasses.dataclass(frozen=True)
class FirstOrderResult:
    """Interval for the first-order genus, one provenance record per bound."""

    interval: IntInterval
    provenance: tuple[BoundRecord, ...]

    @property
    def lo(self) -> int:
        return self.interval.lo

    @property
    def hi(self) -> int | None:
        return self.interval.hi

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi,
                "provenance": [r.to_json() for r in self.provenance]}


# The cache no longer saves time; it stays because perfbench's tracer
# times this function as `min_basis_bound.__wrapped__`.
@functools.lru_cache(maxsize=None)
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
    """
    if g_alpha < 1:
        raise ValueError(f"first companion genus must be >= 1, got {g_alpha}")
    if g_beta < 0:
        raise ValueError(f"second companion genus must be >= 0, got {g_beta}")
    value = g_alpha + max(1, g_beta)
    return value, BasisWitness(0, -1, 1, 0, value)


# -- interval assembly -----------------------------------------------------


_TWICE = ("first-order/twice-genus",
          "the first-order genus is at least twice the genus: no basis curve of a "
          "minimal surface bounds a disc in the complement")
_UNKNOT = ("first-order/unknot", "the unknot has first-order genus zero")
_LEAF_CERT = ("first-order/leaf-certificate",
              "each basis curve of the standard genus-one surface bounds a punctured torus")
_DOUBLE_LO = ("first-order/double-enumerator",
              "on the unique minimal surface of a double of a noncable knot, every "
              "basis curve is a satellite of the companion: g1 >= 1 + g(companion)")
_DOUBLE_HI = ("first-order/double-certificate",
              "on the standard double surface one curve bounds a pushed-off minimal "
              "surface of the companion and the other a punctured torus")
_SAT_LO = ("first-order/satellite-enumerator",
           "every symplectic basis of a minimal surface consists of satellites of "
           "the two companions: g1 >= g(J) + g(L)")
_SAT_HI = ("first-order/satellite-certificate",
           "at zero framings the two companion Seifert surfaces attach to the "
           "standard surface: g1 <= g(J) + g(L)")
_SUM_HI = ("first-order/subadditive",
           "the first-order genus is subadditive under connected sum")


def _double_guard(companion: KnotExpr) -> bool:
    return (trivial_of(companion) is TriState.NO
            and builtin_flags(companion)[1] is TriState.NO
            and genus_of(companion).is_point())


def first_order_genus(e: KnotExpr) -> FirstOrderResult:
    """Certified interval for the first-order genus, with provenance.

    Guards that are not established simply disable the corresponding
    rule; `knotlang.validate` surfaces those as warnings.
    """
    genus = genus_of(e)
    lows: list[BoundRecord] = []
    highs: list[BoundRecord] = []

    if trivial_of(e) is TriState.YES:
        lows.append(BoundRecord("lo", 0, *_UNKNOT))
        highs.append(BoundRecord("hi", 0, *_UNKNOT))

    if isinstance(e, (Trefoil, Fig8)):
        cert = WeakGropeCertificate(1, (1, 1))
        assert check_certificate(cert, e)
        highs.append(BoundRecord("hi", cert.value, *_LEAF_CERT))

    if isinstance(e, Wh0) and _double_guard(e.companion):
        g_j = genus_of(e.companion).lo
        value, _ = min_basis_bound(g_j, 0)
        lows.append(BoundRecord("lo", value, *_DOUBLE_LO))
        cert = WeakGropeCertificate(1, (g_j, 1))
        assert check_certificate(cert, e)
        highs.append(BoundRecord("hi", cert.value, *_DOUBLE_HI))

    if isinstance(e, Ksat) and class_r_of(e.j) is TriState.YES \
            and class_r_of(e.l) is TriState.YES:
        gj, gl = genus_of(e.j), genus_of(e.l)
        if gj.is_point() and gl.is_point():
            value, _ = min_basis_bound(gj.lo, gl.lo)
            lows.append(BoundRecord("lo", value, *_SAT_LO))
            if e.m == 0 and e.n == 0:
                cert = WeakGropeCertificate(1, (gj.lo, gl.lo))
                assert check_certificate(cert, e)
                highs.append(BoundRecord("hi", cert.value, *_SAT_HI))

    if isinstance(e, Sum):
        left = first_order_genus(e.left)
        right = first_order_genus(e.right)
        if left.hi is not None and right.hi is not None:
            highs.append(BoundRecord("hi", left.hi + right.hi, *_SUM_HI))

    # The no-disc bound applies to every expression.
    lows.append(BoundRecord("lo", 2 * genus.lo, *_TWICE))

    lo = max(rec.value for rec in lows)
    lo_record = next(rec for rec in lows if rec.value == lo)
    if highs:
        hi = min(rec.value for rec in highs)
        hi_record = next(rec for rec in highs if rec.value == hi)
        if lo > hi:
            raise AssertionError(
                f"inconsistent first-order bounds [{lo}, {hi}]: engine rules disagree")
        return FirstOrderResult(IntInterval(lo, hi), (lo_record, hi_record))
    return FirstOrderResult(IntInterval(lo, None), (lo_record,))
