"""Acceptance self-test: every shipped guarantee, runnable from the CLI.

Each criterion is an independent check with its own oracle where one is
called for: the pretzel determinants are compared against the closed
power form, the closed-form basis bound against an exhaustive search
over all unimodular 4-tuples in a box, the parser against a serializer
round-trip, and the interval engines against their defining
inequalities on large seeded samples.  Each expression is checked
through one `cli.report`, the answer the CLI prints.  Checks are
deterministic: all randomness is seeded here.
"""

from __future__ import annotations

import collections
import functools
import random
import time

from . import classical, cli, firstorder, knotlang, seifert
from .knotlang import (Atom, Fig8, Kfam, KnotExpr, Ksat, Sum, Trefoil, TriState, Unknot,
                       Wh0, parse, render)
from .laurent import ONE, LaurentPoly, unit_equivalent


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# -- pseudo-random expressions -------------------------------------------------


_ATOM_NAMES = ("A", "B", "J", "L", "X", "Y")


def random_expr(rng: random.Random, max_depth: int = 4) -> KnotExpr:
    """Seeded generator of construction trees, used by the criteria below
    and the property suites."""
    tri = lambda: rng.choice((TriState.YES, TriState.NO, TriState.UNKNOWN))
    leaf_kinds = ("unknot", "trefoil", "fig8", "kfam", "atom")
    all_kinds = leaf_kinds + ("wh0", "ksat", "sum", "sum")
    kind = rng.choice(leaf_kinds if max_depth <= 1 else all_kinds)
    if kind == "unknot":
        return Unknot()
    if kind == "trefoil":
        return Trefoil()
    if kind == "fig8":
        return Fig8()
    if kind == "kfam":
        return Kfam(rng.randint(1, 3))
    if kind == "atom":
        return Atom(rng.choice(_ATOM_NAMES), rng.randint(1, 3),
                    torus=tri(), cable=tri(), slice=tri())
    if kind == "wh0":
        return Wh0(random_expr(rng, max_depth - 1), rng.choice(("+", "-")))
    if kind == "ksat":
        return Ksat(random_expr(rng, max_depth - 1), random_expr(rng, max_depth - 1),
                    rng.randint(-2, 2), rng.randint(-2, 2))
    return Sum(random_expr(rng, max_depth - 1), random_expr(rng, max_depth - 1))


# -- criteria ---------------------------------------------------------------


def pretzel_polynomial_identity() -> str:
    """det of the banded family matrix equals the closed power form, n = 1..12."""
    for n in range(1, 13):
        via_det = seifert.alexander_polynomial(seifert.theta(n)).canonical()
        via_pow = (classical.PRETZEL_BASE ** n).canonical()
        _check(via_det == via_pow,
               f"n={n}: determinant route {via_det} != power route {via_pow}")
    return "n=1..12 determinant vs power: exact match"


def whitehead_family_table() -> str:
    """Wh0(Kfam(n)) for n = 1..8: constant classical data, g1 = n + 1 (`cli.family_table`)."""
    cli.family_table(8)
    return "g1 values [2, 3, 4, 5, 6, 7, 8, 9], classical data constant"


def twice_genus_soundness() -> str:
    """g1.lo >= 2*genus.lo on 1000 seeded expressions."""
    rng = random.Random(20240811)
    violations = 0
    for _ in range(1000):
        answer = cli.report(random_expr(rng, max_depth=4))
        if answer.fog.lo < 2 * answer.facts.genus.lo:
            violations += 1
    _check(violations == 0, f"{violations} violations of lo >= 2*genus.lo")
    return "1000 expressions, zero violations"


def subadditivity() -> str:
    """hi(a # b) <= hi(a) + hi(b) on 500 seeded pairs with finite hi."""
    rng = random.Random(987123)
    finite: list = []  # (e, hi)
    while len(finite) < 1000:
        e = random_expr(rng, max_depth=3)
        hi = cli.report(e).fog.hi
        if hi is not None:
            finite.append((e, hi))
    violations = 0
    for (a, hi_a), (b, hi_b) in zip(finite[::2], finite[1::2]):
        hi_sum = cli.report(Sum(a, b)).fog.hi
        if hi_sum is None or hi_sum > hi_a + hi_b:
            violations += 1
    _check(violations == 0, f"{violations} subadditivity violations")
    return "500 pairs, zero violations"


def _brute_force_min(g_alpha: int, g_beta: int, radius: int = 10) -> int:
    # Exhaustive search over ALL unimodular 4-tuples p*s - q*r = 1 in the
    # box; deliberately shares no code with firstorder's closed form.
    side = range(-radius, radius + 1)

    def fitting(p: int, q: int, r: int):  # every s in the box with p*s - q*r = 1
        if p == 0:
            return side if q * r == -1 else ()
        s, rest = divmod(1 + q * r, p)
        return (s,) if rest == 0 and -radius <= s <= radius else ()

    return min(max(1, abs(p) * g_alpha, abs(q) * g_beta) + max(1, abs(r) * g_alpha, abs(s) * g_beta)
               for p in side for q in side for r in side for s in fitting(p, q, r))


def basis_enumerator_closed_forms() -> str:
    """min_basis_bound is g + max(1, h) and matches exhaustive search for
    every pair with g + max(1, h) <= 10, the search's box radius."""
    pairs = [(g, h) for g in range(1, 10) for h in range(10) if g + max(1, h) <= 10]
    for g, h in pairs:
        value, witness = firstorder.min_basis_bound(g, h)
        _check(value == g + max(1, h),
               f"min_basis_bound({g}, {h}) = {value}, expected {g + max(1, h)}")
        _check(witness.value == value, "witness value disagrees with returned value")
        _check(_brute_force_min(g, h) == value,
               f"brute force disagrees with the closed form at ({g}, {h})")
    return f"closed form and exhaustive search agree on {len(pairs)} inputs"


def _random_standard_seifert(rng: random.Random, g: int) -> seifert.SeifertMatrix:
    # U + S with U the strict-upper standard part and S symmetric, so that
    # V - V^T is exactly the standard block form J.
    n = 2 * g
    m = [[0] * n for _ in range(n)]
    for k in range(g):
        m[2 * k][2 * k + 1] = 1
    for i in range(n):
        for j in range(i, n):
            x = rng.randint(-3, 3)
            m[i][j] += x
            if j != i:
                m[j][i] += x
    return seifert.SeifertMatrix(m)


def congruence_invariance() -> str:
    """Alexander polynomial and standard form survive 200 symplectic changes."""
    rng = random.Random(55221)
    for case in range(200):
        g = rng.randint(1, 3)
        V = _random_standard_seifert(rng, g)
        P = seifert.random_symplectic(g, seed=rng.randrange(2 ** 30),
                                      length=rng.randint(0, 8))
        moved = seifert.change_basis(V, P)
        _check(unit_equivalent(seifert.alexander_polynomial(moved),
                               seifert.alexander_polynomial(V)),
               f"case {case}: Alexander polynomial not congruence invariant")
        _check(seifert.intersection_form(moved)[1],
               f"case {case}: standard intersection form not preserved")
    return "200 symplectic congruences, zero violations"


def alexander_sanity() -> str:
    """|Delta(1)| = 1 wherever Delta is produced; twist family; trivial cases."""
    rng = random.Random(424242)
    produced = 0
    for _ in range(1000):
        answer = cli.report(random_expr(rng, max_depth=4))
        delta = answer.facts.alexander
        if delta is not None:
            produced += 1
            _check(abs(delta.evaluate(1)) == 1,
                   f"|Delta(1)| != 1 for {answer.expression}: {delta}")
    _check(produced >= 500, f"only {produced} expressions produced a polynomial")
    companion = Atom("J", 1)
    for m in range(-6, 7):
        got = cli.report(Ksat(companion, Unknot(), m, -1)).facts.alexander
        twist = LaurentPoly(0, (-m, 1 + 2 * m, -m))
        _check(unit_equivalent(got, twist),
               f"m={m}: twisted double polynomial {got} != twist form {twist}")
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m * n != 0:
                continue
            got = cli.report(Ksat(companion, Atom("L", 2), m, n)).facts.alexander
            _check(unit_equivalent(got, ONE),
                   f"m={m}, n={n}: zero-framing polynomial {got} not trivial")
    return f"{produced} polynomials with |Delta(1)| = 1; twist family reproduced"


def exact_point_values() -> str:
    """The engine's closed-form point values."""
    expected = [
        (Trefoil(), 2, 2),
        (Fig8(), 2, 2),
        (Ksat(Kfam(1), Kfam(2), 0, 0), 3, 3),
        (Unknot(), 0, 0),
    ]
    for e, lo, hi in expected:
        fog = cli.report(e).fog
        _check((fog.lo, fog.hi) == (lo, hi),
               f"{render(e)}: {fog.interval} != [{lo}, {hi}]")
    return "trefoil [2,2], fig8 [2,2], double satellite [3,3], unknot [0,0]"


# ½ and Ⅷ are numerals but neither letters nor digits, ² is a digit but
# not decimal, ١ is a decimal digit of another script, and U+3000 is space.
_FUZZ_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 ()#,=+-_½²١Ⅷ\u3000"


def parser_round_trip() -> str:
    """parse(render(e)) is e on 1000 expressions, a 2000-term chain and a
    DEPTH_MAX nest; 10^4 fuzz inputs, no crashes."""
    rng = random.Random(777001)
    chain = functools.reduce(Sum, [Kfam(k % 3 + 1) for k in range(2000)])
    nest = functools.reduce(Wh0, ["-"] * knotlang.DEPTH_MAX, Fig8())
    for e in [random_expr(rng, max_depth=4) for _ in range(1000)] + [chain, nest]:
        text = render(e)
        back = parse(text)
        _check(back is e, f"round trip failed: {text[:80]!r} -> {render(back)[:80]!r}")
    fuzz = random.Random(777002)
    for _ in range(10_000):
        text = "".join(fuzz.choice(_FUZZ_ALPHABET)
                       for _ in range(fuzz.randint(0, 40)))
        try:
            parse(text)
        except knotlang.ParseError:
            pass  # positioned rejection is the expected outcome
    return "1002 round trips, 10000 fuzz inputs"


# -- runner -------------------------------------------------------------------


CRITERIA = (
    ("pretzel-polynomial-identity", pretzel_polynomial_identity),
    ("whitehead-family-table", whitehead_family_table),
    ("twice-genus-soundness", twice_genus_soundness),
    ("subadditivity", subadditivity),
    ("basis-enumerator-closed-forms", basis_enumerator_closed_forms),
    ("congruence-invariance", congruence_invariance),
    ("alexander-sanity", alexander_sanity),
    ("exact-point-values", exact_point_values),
    ("parser-round-trip", parser_round_trip),
)


CriterionResult = collections.namedtuple("CriterionResult", "name passed detail seconds")


def run_criterion(name: str) -> CriterionResult:
    func = dict(CRITERIA)[name]
    start = time.perf_counter()
    try:
        detail = func()
        passed = True
    except AssertionError as exc:
        detail = str(exc)
        passed = False
    except Exception as exc:  # a crashing criterion is a failing criterion
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    return CriterionResult(name, passed, detail, time.perf_counter() - start)


def run_all() -> list[CriterionResult]:
    return [run_criterion(name) for name, _ in CRITERIA]
