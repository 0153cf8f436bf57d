import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotfog import cli
from knotfog.classical import PRETZEL_BASE
from knotfog.knotlang import KFAM_MAX, Kfam
from knotfog.laurent import LaurentPoly, ONE, ZERO, exact_div, unit_equivalent

# -2t^2 + 5t - 2 and its hand-expanded square (schoolbook expansion).
BASE = LaurentPoly(0, (-2, 5, -2))
BASE_SQUARED = LaurentPoly(0, (4, -20, 33, -20, 4))


def top_degree(p: LaurentPoly) -> int:
    return p.min_degree + len(p.coeffs) - 1


polys = st.builds(
    LaurentPoly,
    st.integers(min_value=-8, max_value=8),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=9),
)


class TestConstruction:
    def test_trims_zeros(self):
        assert LaurentPoly(2, (0, 0, 3, 1, 0)) == LaurentPoly(4, (3, 1))

    def test_zero_normalizes_min_degree(self):
        assert LaurentPoly(5, (0, 0)) == ZERO
        assert ZERO.coeffs == ()

    def test_invariant_nonzero_ends(self):
        p = LaurentPoly(-3, (0, 1, 0, 2, 0))
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0


class TestMul:
    def test_base_squared(self):
        assert BASE * BASE == BASE_SQUARED

    def test_one_is_identity(self):
        assert BASE * ONE == BASE
        assert ONE * BASE == BASE

    def test_unit_cancellation(self):
        assert LaurentPoly(1, (1,)) * LaurentPoly(-1, (1,)) == ONE

    def test_degree_bound(self):
        a = LaurentPoly(-2, (1, 0, 3))
        b = LaurentPoly(1, (4, 5))
        assert top_degree(a * b) == top_degree(a) + top_degree(b)

    def test_only_polynomials_multiply(self):
        # the module has products and powers of polynomials, no ring over the ints
        for call in (lambda: 2 * BASE, lambda: BASE * 2, lambda: BASE + BASE,
                     lambda: BASE - BASE, lambda: -BASE):
            with pytest.raises(TypeError):
                call()


class TestPow:
    def test_first_power(self):
        assert BASE ** 1 == BASE

    def test_zeroth_power_is_one(self):
        assert BASE ** 0 == ONE
        assert ZERO ** 0 == ONE
        assert LaurentPoly(3, (2,)) ** 0 == ONE
        assert LaurentPoly(-2, (1, 0, 1)) ** 0 == ONE

    def test_square(self):
        assert BASE ** 2 == BASE_SQUARED

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BASE ** -1

    def test_pow_agrees_with_repeated_mul(self):
        for k in range(1, 7):
            assert BASE ** k == (BASE ** (k - 1)) * BASE

    def test_zero_power(self):
        assert ZERO ** 0 == ONE
        assert ZERO ** 5 == ZERO

    def test_monomials_and_units(self):
        assert LaurentPoly(-2, (3,)) ** 4 == LaurentPoly(-8, (81,))
        assert LaurentPoly(-3, (-1,)) ** 7 == LaurentPoly(-21, (-1,))

    def test_interior_zero_coefficients(self):
        p = LaurentPoly(0, (1, 0, 0, 1))
        assert p ** 3 == LaurentPoly(0, (1, 0, 0, 3, 0, 0, 3, 0, 0, 1))

    @pytest.mark.parametrize("n", [255, 256, 257, 2000])
    def test_pretzel_closed_forms(self, n):
        # -2t^2 + 5t - 2 is -5 at t = 3 and -9 at t = -1
        p = PRETZEL_BASE ** n
        assert top_degree(p) == 2 * n and p.min_degree == 0
        assert p.evaluate(3) == (-5) ** n
        assert p.evaluate(-1) == (-9) ** n
        assert p.evaluate(1) == 1

    def test_kfam_limit_renders_under_int_str_limit(self):
        # fewer than `limit` digits, compared without rendering
        limit = sys.int_info.default_max_str_digits
        p = PRETZEL_BASE ** KFAM_MAX
        assert max(map(abs, p.coeffs)) < 10 ** (limit - 1)


class TestEvaluate:
    def test_at_one(self):
        assert BASE.evaluate(1) == 1

    def test_at_minus_one(self):
        assert BASE.evaluate(-1) == -9

    def test_zero_poly(self):
        assert ZERO.evaluate(7) == 0
        assert type(ZERO.evaluate(7)) is int

    def test_negative_exponents_off_the_units_are_refused(self):
        with pytest.raises(ValueError, match="not an integer"):
            LaurentPoly(-1, (1,)).evaluate(2)

    def test_fraction_argument(self):
        for p, x in [(LaurentPoly(-1, (2, -5, 2)), Fraction(1, 2)), (BASE, Fraction(-1, 3)),
                     (BASE, Fraction(3))]:
            with pytest.raises(ValueError, match="must be an integer"):
                p.evaluate(x)

    def test_bool_argument(self):
        with pytest.raises(ValueError, match="must be an integer, got True"):
            BASE.evaluate(True)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            BASE.evaluate(0)
        with pytest.raises(ValueError):
            LaurentPoly(-1, (1,)).evaluate(0)

    @pytest.mark.parametrize("shift", [-3, 0, 3], ids=["negative", "zero", "positive"])
    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9)
           .filter(lambda c: c[0] != 0),
           st.fractions(max_denominator=7).filter(bool))
    def test_matches_the_fraction_oracle_and_is_never_a_float(self, shift, coeffs, q):
        # an int exactly where the value is an integer by shape, else a ValueError
        p = LaurentPoly(shift, coeffs)
        assert p.min_degree == shift
        for x in [-3, -2, -1, 1, 2, 3, q]:
            if isinstance(x, int) and (shift >= 0 or x in (1, -1)):
                got = p.evaluate(x)
                assert type(got) is int
                assert got == sum(Fraction(c) * Fraction(x) ** k for k, c in enumerate(p.coeffs, shift))
            else:
                with pytest.raises(ValueError):
                    p.evaluate(x)


class TestCanonical:
    def test_negates_to_positive_top(self):
        assert BASE.canonical() == LaurentPoly(0, (2, -5, 2))

    def test_units_normalize_to_one(self):
        for k in (-3, 0, 5):
            for sign in (1, -1):
                assert LaurentPoly(k, (sign,)).canonical() == ONE

    def test_idempotent_on_canonical_input(self):
        p = LaurentPoly(0, (2, -5, 2))
        assert p.canonical() == p

    def test_zero(self):
        assert ZERO.canonical() == ZERO


class TestEquivalence:
    def test_shifted_negated(self):
        assert unit_equivalent(BASE, LaurentPoly(-1, (2, -5, 2)))

    def test_reflexive(self):
        assert unit_equivalent(BASE, BASE)

    def test_distinct_classes(self):
        assert not unit_equivalent(ONE, LaurentPoly(0, (1, -1, 1)))

    def test_zero_only_equivalent_to_zero(self):
        assert unit_equivalent(ZERO, ZERO)
        assert not unit_equivalent(ZERO, ONE)


# -- property suites ---------------------------------------------------------


@settings(max_examples=500)
@given(polys, polys, polys)
def test_product_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * ONE == a
    assert a * ZERO == ZERO


@settings(max_examples=300)
@given(polys)
def test_canonical_idempotent(a):
    assert a.canonical().canonical() == a.canonical()


@settings(max_examples=200)
@given(polys, st.integers(min_value=1, max_value=6))
def test_pow_unfolds_to_mul(a, k):
    assert a ** k == (a ** (k - 1)) * a


def square_and_multiply(p: LaurentPoly, k: int) -> LaurentPoly:
    """Reference power by repeated squaring over the schoolbook product."""
    out, square = ONE, p
    while k:
        if k & 1:
            out = out * square
        k >>= 1
        if k:
            square = square * square
    return out


pow_bases = st.one_of(
    st.builds(lambda k, sign: LaurentPoly(k, (sign,)), st.integers(-20, 20), st.sampled_from((1, -1))),
    st.builds(
        LaurentPoly,
        st.integers(min_value=-20, max_value=20),
        st.lists(st.integers(min_value=-10 ** 12, max_value=10 ** 12), max_size=6)),
    # negative leading coefficient, large constant term
    st.builds(
        lambda lo, c0, mid, top: LaurentPoly(lo, (c0, *mid, top)),
        st.integers(min_value=-20, max_value=0),
        st.integers(min_value=10 ** 20, max_value=10 ** 30),
        st.lists(st.integers(min_value=-9, max_value=9), max_size=4),
        st.integers(min_value=-50, max_value=-1)),
)


@settings(max_examples=300, deadline=None)
@given(pow_bases, st.integers(min_value=0, max_value=12))
def test_pow_matches_square_and_multiply(a, k):
    assert a ** k == square_and_multiply(a, k)


@settings(max_examples=300)
@given(polys, polys)
def test_equivalence_matches_exhaustive_unit_search(a, b):
    found = False
    for k in range(-20, 21):
        for sign in (1, -1):
            if a == LaurentPoly(k, (sign,)) * b:
                found = True
    if not a.coeffs and not b.coeffs:
        found = True  # the zero class has no unit witness
    assert unit_equivalent(a, b) == found


@settings(max_examples=300)
@given(polys, polys)
def test_equivalence_is_symmetric_and_respects_canonical(a, b):
    assert unit_equivalent(a, b) == unit_equivalent(b, a)
    assert unit_equivalent(a, a.canonical())


@settings(max_examples=300)
@given(polys, polys)
def test_exact_division_inverts_multiplication(a, b):
    if not b.coeffs:
        with pytest.raises(ZeroDivisionError):
            exact_div(a, b)
    else:
        assert exact_div(a * b, b) == a


def test_exact_division_rejects_inexact():
    with pytest.raises(ValueError):
        exact_div(LaurentPoly(0, (1, 1)), LaurentPoly(0, (2,)))
    with pytest.raises(ValueError):
        exact_div(ONE, LaurentPoly(0, (1, 1)))


def reference_str(p: LaurentPoly) -> str:
    """The nonzero terms, sorted by descending exponent and joined by signs."""
    terms = sorted(((k, c) for k, c in enumerate(p.coeffs, p.min_degree) if c), reverse=True)
    if not terms:
        return "0"
    parts = []
    for k, c in terms:
        var = "" if k == 0 else "t" if k == 1 else f"t^{k}"
        body = var if abs(c) == 1 and var else f"{abs(c)}{var}"
        parts.append(f"{'-' if c < 0 else '+'} {body}")
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


class TestRendering:
    def test_decreasing_degree(self):
        assert str(LaurentPoly(0, (2, -5, 2))) == "2t^2 - 5t + 2"

    def test_unit_coefficients_omitted(self):
        assert str(LaurentPoly(0, (1, -1, 1))) == "t^2 - t + 1"

    def test_negative_exponents(self):
        assert str(LaurentPoly(-1, (2, -5, 2))) == "2t - 5 + 2t^-1"
        assert str(LaurentPoly(-2, (3, 0, 0, -1, 0, 1))) == "t^3 - t + 3t^-2"

    def test_zero_and_one(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(LaurentPoly(0, (-1,))) == "-1"

    @settings(max_examples=300)
    @given(polys)
    def test_matches_term_by_term_reference(self, p):
        assert str(p) == reference_str(p)

    def test_json_round_trip(self):
        # a report prints the canonical form: BASE with its sign flipped
        spelled = cli.report(Kfam(1)).to_json()["facts"]["alexander"]
        data = json.loads(json.dumps(spelled))
        assert data == spelled
        assert spelled == {"min_degree": 0, "coeffs": [2, -5, 2]}
        assert LaurentPoly(data["min_degree"], data["coeffs"]) == BASE.canonical()
