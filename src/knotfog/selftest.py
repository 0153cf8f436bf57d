"""Acceptance self-test: every shipped guarantee, runnable from the CLI.

Each criterion is an independent check with its own oracle where one is
called for: the pretzel determinants are compared against the closed
power form, the closed-form basis bound against a vectorized exhaustive
search over all unimodular 4-tuples, the parser against a serializer
round-trip, and the interval engines against their defining
inequalities on large seeded samples.  Checks are deterministic: all
randomness is seeded here.
"""

from __future__ import annotations

import dataclasses
import random
import time
from typing import Callable

from . import classical, firstorder, knotlang, seifert
from .knotlang import Ksat, Sum, TriState, Unknot, Wh0, Kfam, Atom, parse, render
from .laurent import ONE, LaurentPoly, unit_equivalent


class SelfTestFailure(AssertionError):
    pass


def _fail(message: str) -> None:
    raise SelfTestFailure(message)


def _check(condition: bool, message: str) -> None:
    if not condition:
        _fail(message)


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
    """Wh0(Kfam(n)) for n = 1..8: constant classical data, strictly rising g1."""
    seen: list[int] = []
    for n in range(1, 9):
        e = Wh0(Kfam(n))
        facts = classical.facts_of(e)
        fog = firstorder.first_order_genus(e)
        _check(facts.genus == classical.IntInterval.point(1),
               f"n={n}: genus {facts.genus} != [1, 1]")
        _check(facts.alexander == ONE, f"n={n}: alexander {facts.alexander} != 1")
        _check(facts.slice is TriState.YES, f"n={n}: slice {facts.slice} != yes")
        _check((fog.lo, fog.hi) == (n + 1, n + 1),
               f"n={n}: first-order genus {fog.interval} != [{n + 1}, {n + 1}]")
        seen.append(fog.lo)
    _check(len(set(seen)) == 8, f"family values not pairwise distinct: {seen}")
    return f"g1 values {seen}, classical data constant"


def twice_genus_soundness() -> str:
    """first_order_genus(e).lo >= 2*genus_of(e).lo on 1000 seeded expressions."""
    rng = random.Random(20240811)
    violations = 0
    for _ in range(1000):
        e = knotlang.random_expr(rng, max_depth=4)
        fog = firstorder.first_order_genus(e)
        g = classical.genus_of(e)
        if fog.lo < 2 * g.lo:
            violations += 1
    _check(violations == 0, f"{violations} violations of lo >= 2*genus.lo")
    return "1000 expressions, zero violations"


def subadditivity() -> str:
    """hi(a # b) <= hi(a) + hi(b) on 500 seeded pairs with finite hi."""
    rng = random.Random(987123)
    finite: list = []
    while len(finite) < 1000:
        e = knotlang.random_expr(rng, max_depth=3)
        if firstorder.first_order_genus(e).hi is not None:
            finite.append(e)
    pairs = [(finite[2 * i], finite[2 * i + 1]) for i in range(500)]
    violations = 0
    for a, b in pairs:
        hi_a = firstorder.first_order_genus(a).hi
        hi_b = firstorder.first_order_genus(b).hi
        hi_sum = firstorder.first_order_genus(Sum(a, b)).hi
        if hi_sum is None or hi_sum > hi_a + hi_b:
            violations += 1
    _check(violations == 0, f"{violations} subadditivity violations")
    return "500 pairs, zero violations"


def _brute_force_min(g_alpha: int, g_beta: int, radius: int = 10) -> int:
    # Vectorized exhaustive search over ALL unimodular 4-tuples in the box;
    # deliberately shares no code with firstorder's closed form.
    import numpy as np

    side = np.arange(-radius, radius + 1)
    p, q, r, s = np.meshgrid(side, side, side, side, indexing="ij", sparse=True)
    unimodular = p * s - q * r == 1
    one = np.int64(1)
    term_x = np.maximum(one, np.maximum(np.abs(p) * g_alpha, np.abs(q) * g_beta))
    term_y = np.maximum(one, np.maximum(np.abs(r) * g_alpha, np.abs(s) * g_beta))
    values = np.broadcast_to(term_x + term_y, unimodular.shape)
    return int(values[unimodular].min())


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
        e = knotlang.random_expr(rng, max_depth=4)
        delta = classical.alexander_of(e)
        if delta is not None:
            produced += 1
            _check(abs(delta.evaluate(1)) == 1,
                   f"|Delta(1)| != 1 for {render(e)}: {delta}")
    _check(produced >= 500, f"only {produced} expressions produced a polynomial")
    companion = Atom("J", 1)
    for m in range(-6, 7):
        got = classical.alexander_of(Ksat(companion, Unknot(), m, -1))
        twist = LaurentPoly.from_terms({0: -m, 1: 1 + 2 * m, 2: -m})
        _check(unit_equivalent(got, twist),
               f"m={m}: twisted double polynomial {got} != twist form {twist}")
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m * n != 0:
                continue
            got = classical.alexander_of(Ksat(companion, Atom("L", 2), m, n))
            _check(unit_equivalent(got, ONE),
                   f"m={m}, n={n}: zero-framing polynomial {got} not trivial")
    return f"{produced} polynomials with |Delta(1)| = 1; twist family reproduced"


def exact_point_values() -> str:
    """The engine's closed-form point values."""
    expected = [
        (knotlang.Trefoil(), 2, 2),
        (knotlang.Fig8(), 2, 2),
        (Ksat(Kfam(1), Kfam(2), 0, 0), 3, 3),
        (Unknot(), 0, 0),
    ]
    for e, lo, hi in expected:
        fog = firstorder.first_order_genus(e)
        _check((fog.lo, fog.hi) == (lo, hi),
               f"{render(e)}: {fog.interval} != [{lo}, {hi}]")
    return "trefoil [2,2], fig8 [2,2], double satellite [3,3], unknot [0,0]"


_FUZZ_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 ()#,=+-_"


def parser_round_trip() -> str:
    """parse(render(e)) == e on 1000 expressions; 10^4 fuzz inputs, no crashes."""
    rng = random.Random(777001)
    for _ in range(1000):
        e = knotlang.random_expr(rng, max_depth=4)
        text = render(e)
        back = parse(text)
        _check(back == e, f"round trip failed: {text!r} -> {render(back)!r}")
    fuzz = random.Random(777002)
    for _ in range(10_000):
        text = "".join(fuzz.choice(_FUZZ_ALPHABET)
                       for _ in range(fuzz.randint(0, 40)))
        try:
            parse(text)
        except knotlang.ParseError:
            pass  # positioned rejection is the expected outcome
    return "1000 round trips, 10000 fuzz inputs"


# -- runner -------------------------------------------------------------------


CRITERIA: tuple[tuple[str, Callable[[], str]], ...] = (
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


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


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
