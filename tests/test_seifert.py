import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seifert_oracle
from knotfog import seifert
from knotfog.laurent import LaurentPoly, ONE, unit_equivalent
from knotfog.seifert import (BasisChange, SeifertMatrix, alexander_polynomial,
                             change_basis, int_det, intersection_form,
                             random_symplectic, standard_form, theta)
from test_cli import run_python

BASE = LaurentPoly(0, (-2, 5, -2))
TREFOIL = SeifertMatrix(((-1, 1), (0, -1)))

# What each decoding check of alexander_polynomial says when it trips, for
# V of size 4: digits of F(a) = det(a*S + A) left over, a remainder mod
# 2^4, digits of f left over, and digits of f that are not a palindrome.
CHECKS = {
    "F digits": r"det\(a\*S \+ A\) at a = 2\^\d+ has a \d+-bit value left over "
                r"past degree 4 in a",
    "2^n": r"at t = 2\^\d+ is not divisible by 2\^4",
    "f digits": r"det\(V - t\*V\^T\) at t = 2\^\d+ has a \d+-bit value left over "
                r"past degree 4,",
    "palindrome": r"has digits that are not a palindrome",
}


def is_symplectic(P: BasisChange) -> bool:
    """Whether P*J*P^T = J for the standard block form J."""
    J = standard_form(P.size // 2)
    PJ = [[sum(p * j for p, j in zip(row, col)) for col in zip(*J)] for row in P.entries]
    return tuple(tuple(sum(a * b for a, b in zip(row, q)) for q in P.entries) for row in PJ) == J


class TestTheta:
    def test_n1(self):
        assert theta(1).entries == ((0, 2), (1, 0))

    def test_n2(self):
        assert theta(2).entries == ((0, 2, 0, 0),
                                    (1, 0, -1, 0),
                                    (0, -2, 0, 2),
                                    (0, 0, 1, 0))

    def test_n3_extends_band(self):
        rows = theta(3).entries
        assert rows[4] == (0, 0, 0, -2, 0, 2)
        assert rows[5] == (0, 0, 0, 0, 1, 0)
        # upper-left 4x4 block repeats the n=2 pattern
        assert tuple(r[:4] for r in rows[:4]) == theta(2).entries

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            theta(0)
        with pytest.raises(ValueError):
            theta(-2)

    def test_deterministic(self):
        assert theta(4) == theta(4)

    def test_equals_the_oracle_to_64(self):
        for n in range(1, 65):
            assert theta(n).entries == seifert_oracle.theta(n).entries, n

    @pytest.mark.parametrize("bad", (2.0, True, "2", None))
    def test_rejects_n_that_is_not_an_integer(self, bad):
        # theta(True) once returned theta(1); theta(2.0) raised a bare TypeError
        with pytest.raises(ValueError, match=re.escape(f"theta n must be an integer, got {bad!r}")):
            theta(bad)


class TestAlexander:
    def test_theta1(self):
        assert alexander_polynomial(theta(1)) == BASE

    def test_trefoil(self):
        assert alexander_polynomial(TREFOIL) == LaurentPoly(0, (1, -1, 1))

    def test_disc(self):
        assert alexander_polynomial(SeifertMatrix(())) == ONE

    def test_closed_form_family(self):
        for n in range(1, 7):
            det = alexander_polynomial(theta(n))
            assert unit_equivalent(det, BASE ** n)
            assert det.canonical() == (BASE ** n).canonical()
        for n in (32, 48, 64):  # at scale: one determinant that skips the zeros
            assert alexander_polynomial(theta(n)).canonical() == (BASE ** n).canonical()

    def test_agrees_with_int_det_off_the_sample_points(self):
        # The routine takes one determinant, of a*S + A at a = 2^(w/2), and
        # none of V - x*V^T; these are checked against int_det directly.
        rng = random.Random(4242)
        for _ in range(500):
            n = rng.choice((0, 2, 4, 6, 8, 10))
            huge = rng.random() < 0.2
            V = SeifertMatrix([[rng.randint(-10 ** 30, 10 ** 30) if huge and rng.random() < 0.3
                                else rng.randint(-9, 9) for _ in range(n)]
                               for _ in range(n)])
            poly = alexander_polynomial(V)
            for x in (-n - 2, -n - 1, n + 1, n + 2):
                rows = tuple(tuple(V.entries[i][j] - x * V.entries[j][i] for j in range(n))
                             for i in range(n))
                assert poly.evaluate(x) == int_det(rows)

    def test_skewed_determinant_breaks_the_division_by_2_to_the_n(self, monkeypatch):
        # F(2^(w/2)) + 1 moves the lowest digit p_0 by 1 and no other, since
        # |p_0| + 1 < 2^(w-1) here.  X - 1 and X + 1 are odd, so
        # G = sum_i p_i (X-1)^(2i) (X+1)^(n-2i) has the parity of sum_i p_i,
        # which is even before the skew (G = 2^n f(X)) and odd after it.
        monkeypatch.setattr(seifert, "int_det", lambda rows: int_det(rows) + 1)
        with pytest.raises(ArithmeticError, match=CHECKS["2^n"]):
            alexander_polynomial(theta(2))

    def test_value_past_the_bound_leaves_digits_over(self, monkeypatch):
        # F(2^(w/2)) + 2^(w*(g+1)) has the same g + 1 low digits and a 1 above them.
        V = theta(2)
        past = 1 << seifert_oracle.half_width(V) * (V.size // 2 + 1)
        monkeypatch.setattr(seifert, "int_det", lambda rows: int_det(rows) + past)
        with pytest.raises(ArithmeticError, match=CHECKS["F digits"]):
            alexander_polynomial(V)

    def test_too_narrow_digits_of_f_leave_digits_over(self, monkeypatch):
        # No value of int_det reaches this check: once 2^n divides G, the
        # integer G / 2^n is at most s (X^(n+1) - 1) / (X - 1) in absolute
        # value, s = sum_i |p_i| < X/2, which n + 1 balanced base-X digits
        # reach.  So the digits of f are read 2 bits wide instead.
        read = seifert._balanced_digits
        monkeypatch.setattr(seifert, "_balanced_digits", lambda value, bits, count:
                            read(value, 2 if count == 5 else bits, count))
        with pytest.raises(ArithmeticError, match=CHECKS["f digits"]):
            alexander_polynomial(theta(2))

    def test_determinant_off_the_even_form_breaks_the_palindrome(self, monkeypatch):
        # Digits (p_0, p_1, p_2) = (1, 15, 0) give 2^4 f(t) = 16 + 4t - 24t^2
        # + 4t^3 + 16t^4, which is no integer polynomial; at X = 2^6 its
        # value is still divisible by 2^4, and its digits are
        # (17, -32, 15, 0, 1).
        w = seifert_oracle.half_width(theta(2))
        monkeypatch.setattr(seifert, "int_det", lambda rows: 1 + (15 << w))
        with pytest.raises(ArithmeticError, match=CHECKS["palindrome"]):
            alexander_polynomial(theta(2))

    def test_decode_checks_raise_under_optimization(self):
        # the four faults above, in CHECKS order, each under `python -O`
        w = seifert_oracle.half_width(theta(2))
        proc = run_python("-O", "-c", (
            "from knotfog import seifert\n"
            "V = seifert.theta(2)\n"
            "det, read = seifert.int_det, seifert._balanced_digits\n"
            f"faults = [(lambda rows: det(rows) + (1 << 3 * {w}), read),\n"
            "          (lambda rows: det(rows) + 1, read),\n"
            "          (det, lambda value, bits, count:\n"
            "                read(value, 2 if count == 5 else bits, count)),\n"
            f"          (lambda rows: 1 + (15 << {w}), read)]\n"
            "for seifert.int_det, seifert._balanced_digits in faults:\n"
            "    try:\n"
            "        seifert.alexander_polynomial(V)\n"
            "    except ArithmeticError as e:\n"
            "        print(e)\n"))
        lines = proc.stdout.splitlines()
        assert (proc.returncode, len(lines)) == (0, 4), proc.stderr
        for line, pattern in zip(lines, CHECKS.values()):
            assert re.search(pattern, line), (line, pattern)

    @pytest.mark.parametrize("which", ("theta(16)", "moved genus 8"))
    def test_determinant_entries_are_half_width(self, which, monkeypatch):
        # The one determinant is of a*S + A with a = 2^(w/2), and
        # |S_ij|, |A_ij| <= 2m for m = max |V_ij|, so each entry is below
        # 2m (2^(w/2) + 1) <= 2^(w/2 + bit_length(m) + 2).  det(V - 2^w V^T)
        # would have entries of about w + bit_length(m) bits.
        if which == "theta(16)":
            V = theta(16)
        else:
            rng = random.Random(8)
            V = change_basis(_random_standard(rng, 8), random_symplectic(8, seed=8, length=12))
        seen = []
        monkeypatch.setattr(seifert, "int_det", lambda rows: seen.append(rows) or int_det(rows))
        assert_matches_oracle(V, seifert_oracle.alexander_polynomial(V))
        m = max(abs(x) for row in V.entries for x in row)
        assert len(seen) == 1
        assert (max(x.bit_length() for row in seen[0] for x in row)
                <= seifert_oracle.half_width(V) // 2 + m.bit_length() + 2)

    def test_loads_no_fractions(self):
        # the route is integers only: one determinant and a digit loop
        proc = run_python("-c", (
            "import sys\n"
            "from knotfog.seifert import (SeifertMatrix, alexander_polynomial, change_basis,\n"
            "                             random_symplectic, theta)\n"
            "alexander_polynomial(theta(5))\n"
            "V = SeifertMatrix([[(i * 7 + j * 3) % 5 - 2 for j in range(6)] for i in range(6)])\n"
            "alexander_polynomial(change_basis(V, random_symplectic(3, seed=7, length=6)))\n"
            "print('fractions' in sys.modules)\n"))
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def random_matrix(rng: random.Random, n: int, shape: str) -> list[list[int]]:
    """An n x n integer matrix of the given shape, some entries up to 30 digits."""
    huge = rng.random() < 0.3

    def entry() -> int:
        if huge and rng.random() < 0.3:
            return rng.randint(-10 ** 30, 10 ** 30)
        return rng.randint(-9, 9)

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if shape == "banded":
        width = rng.randint(0, 2)
        m = [[x if abs(i - j) <= width else 0 for j, x in enumerate(row)]
             for i, row in enumerate(m)]
    elif shape == "sparse":
        m = [[x if rng.random() < 0.25 else 0 for x in row] for row in m]
    elif shape == "zero-diagonal":  # every pivot needs a row swap
        m = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    elif shape == "singular" and n:  # a row that is a multiple of another, or zero
        i, j = rng.randrange(n), rng.randrange(n)
        m[i] = [rng.randint(-3, 3) * x for x in m[j]] if i != j else [0] * n
    return m


SHAPES = ("dense", "banded", "sparse", "zero-diagonal", "singular")


def poly_key(p: LaurentPoly) -> tuple:
    return p.min_degree, p.coeffs


def hadamard_square(V: SeifertMatrix) -> int:
    """R^2 = prod_i sum_j (|V_ij| + |V_ji|)^2, straight from its definition."""
    n, m = V.size, V.entries
    return math.prod(sum((abs(m[i][j]) + abs(m[j][i])) ** 2 for j in range(n)) for i in range(n))


def assert_matches_oracle(V: SeifertMatrix, expected: LaurentPoly) -> None:
    """The routine returns exactly `expected`, whose coefficients obey
    Parseval's |c| <= R.  F(a) = det(a*S + A), expanded from `expected`, is
    even, its coefficients p_i obey sum p_i^2 <= R_F^2 and lie in the
    digit window |p_i| < 2^(w-1), and every |c| <= sum |p_i|."""
    square = hadamard_square(V)
    assert all(c * c <= square for c in expected.coeffs), V
    F = seifert_oracle.even_form(V, expected)
    evens, window = F[::2], 1 << seifert_oracle.half_width(V) - 1
    assert not any(F[1::2]), V
    assert sum(p * p for p in evens) <= seifert_oracle.even_square(V), V
    assert all(abs(p) < window for p in evens), V
    assert all(abs(c) <= sum(map(abs, evens)) for c in expected.coeffs), V
    assert poly_key(alexander_polynomial(V)) == poly_key(expected), V


class TestAgainstTheOracle:
    """The one determinant of a*S + A gives exactly what the n + 1 dense
    ones of `seifert_oracle` give, and the oracle's coefficients, of f and
    of F, lie within the bounds that the widths are read from."""

    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_matrices(self, shape):
        rng = random.Random(f"seifert-oracle:{shape}")
        for _ in range(120):
            V = SeifertMatrix(random_matrix(rng, rng.choice(range(0, 13, 2)), shape))
            assert_matches_oracle(V, seifert_oracle.alexander_polynomial(V))

    def test_theta_family(self):
        for n in range(1, 21):
            assert_matches_oracle(theta(n), seifert_oracle.alexander_polynomial(theta(n)))

    def test_theta_family_closed_form_to_64(self):
        # det(V - t*V^T) = (-2 + 5t - 2t^2)^n, which test_theta_family
        # confirms against the dense oracle up to n = 20
        for n in range(1, 65):
            assert_matches_oracle(theta(n), BASE ** n)

    def test_moved_standard_matrices(self):
        rng = random.Random(9001)
        for g in range(1, 10):
            for _ in range(3):
                P = random_symplectic(g, seed=rng.randrange(10 ** 6), length=rng.randint(g, 2 * g))
                V = change_basis(_random_standard(rng, g), P)
                assert_matches_oracle(V, seifert_oracle.alexander_polynomial(V))

    def test_bound_is_near_tight(self):
        # V = diag(m_1*J, ..., m_k*J) with J = [[0, 1], [-1, 0]]: each block
        # gives m^2 (1 + t)^2 with R = 4m^2, so R / max|c| = 4^k / C(2k, k),
        # about sqrt(pi*k): R^2 <= 2n * max|c|^2 for n = 2k, equal at k = 1.
        # S = 0 and A = 2V, so F(a) = det(2V) = R is constant and R_F = R:
        # the bound on F is met exactly, and the digit window of F is at
        # most four times R: 2^(w-3) <= isqrt(R^2).
        rng = random.Random(5151)
        for k in range(1, 25):
            ms = [rng.randint(1, 9) for _ in range(k)]
            n = 2 * k
            rows = [[0] * n for _ in range(n)]
            for b, m in enumerate(ms):
                rows[2 * b][2 * b + 1], rows[2 * b + 1][2 * b] = m, -m
            V = SeifertMatrix(rows)
            scale = math.prod(ms) ** 2
            expected = LaurentPoly(0, tuple(scale * math.comb(n, j) for j in range(n + 1)))
            if k <= 6:
                assert poly_key(seifert_oracle.alexander_polynomial(V)) == poly_key(expected)
            assert_matches_oracle(V, expected)
            square, top = hadamard_square(V), max(expected.coeffs)
            assert top * top <= square <= 2 * n * top * top, k
            assert seifert_oracle.even_square(V) == square, k
            assert seifert_oracle.even_form(V, expected) == [math.isqrt(square)] + [0] * n, k
            assert 1 << seifert_oracle.half_width(V) - 3 <= math.isqrt(square), k

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_matrix(self, data):
        # shapes and sizes drawn so that a counterexample shrinks toward a
        # small dense matrix with small entries
        n = 2 * data.draw(st.integers(0, 5), "g")
        entries = st.integers(-9, 9) | st.integers(-10 ** 30, 10 ** 30)
        m = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=n, max_size=n))
        shape = data.draw(st.sampled_from(("dense", "banded", "zero-diagonal", "singular")))
        if shape == "banded":
            width = data.draw(st.integers(0, 2), "width")
            m = [[x if abs(i - j) <= width else 0 for j, x in enumerate(row)]
                 for i, row in enumerate(m)]
        elif shape == "zero-diagonal":
            m = [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
        elif shape == "singular" and n:  # a row that is a multiple of another, or zero
            i, j = data.draw(st.integers(0, n - 1), "i"), data.draw(st.integers(0, n - 1), "j")
            factor = data.draw(st.integers(-3, 3), "factor")
            m[i] = [factor * x for x in m[j]] if i != j else [0] * n
        V = SeifertMatrix(m)
        assert_matches_oracle(V, seifert_oracle.alexander_polynomial(V))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_int_det(self, shape):
        rng = random.Random(f"int-det-oracle:{shape}")
        for _ in range(200):
            m = tuple(map(tuple, random_matrix(rng, rng.randint(0, 12), shape)))
            assert int_det(m) == seifert_oracle.int_det(m), m


class TestSeifertMatrixType:
    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            SeifertMatrix(((1,),))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SeifertMatrix(((1, 2), (3, 4), (5, 6)))

    @pytest.mark.parametrize("bad", (0.9, 1.0, "3", Fraction(7, 2), True, None))
    def test_rejects_entries_that_are_not_integers(self, bad):
        # once truncated by int(): [[0.9, 1.7], [0, 0]] became [[0, 1], [0, 0]]
        for cls, what in ((SeifertMatrix, "Seifert matrix"), (BasisChange, "basis change")):
            with pytest.raises(ValueError, match=re.escape(f"{what} entry must be an integer, "
                                                           f"got {bad!r}")):
                cls(((1, bad), (0, 1)))

    def test_size_is_twice_the_genus(self):
        assert theta(3).size == 6
        assert theta(1).size == 2
        assert SeifertMatrix(()).size == 0


class TestIntersectionForm:
    def test_theta1_standard(self):
        form, standard = intersection_form(theta(1))
        assert form == ((0, 1), (-1, 0))
        assert standard

    def test_trefoil_standard(self):
        form, standard = intersection_form(TREFOIL)
        assert form == ((0, 1), (-1, 0))
        assert standard

    def test_degenerate_not_standard(self):
        form, standard = intersection_form(SeifertMatrix(((0, 0), (0, 0))))
        assert form == ((0, 0), (0, 0))
        assert not standard

    def test_theta2_is_not_standard_but_unimodular(self):
        # the family's displayed basis is not symplectic for n >= 2
        form, standard = intersection_form(theta(2))
        assert not standard
        assert int_det(form) == 1

    def test_determinant_at_one_when_standard(self):
        rng = random.Random(31337)
        for _ in range(60):
            g = rng.randint(1, 3)
            V = _random_standard(rng, g)
            assert intersection_form(V)[1]
            assert alexander_polynomial(V).evaluate(1) == 1


class TestChangeBasis:
    def test_shear_example(self):
        got = change_basis(SeifertMatrix(((0, 2), (1, 0))),
                           BasisChange(((1, 1), (0, 1))))
        assert got.entries == ((3, 2), (1, 0))
        assert alexander_polynomial(got) == BASE

    def test_identity(self):
        V = theta(2)
        P = BasisChange(tuple(tuple(1 if i == j else 0 for j in range(4))
                              for i in range(4)))
        assert change_basis(V, P) == V
        assert change_basis(SeifertMatrix(()), BasisChange(())) == SeifertMatrix(())  # the disc

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            BasisChange(((2, 0), (0, 1)))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            change_basis(theta(2), BasisChange(((1, 0), (0, 1))))


def _random_standard(rng: random.Random, g: int) -> SeifertMatrix:
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
    return SeifertMatrix(m)


class TestRandomSymplectic:
    def test_length_zero_is_identity(self):
        P = random_symplectic(2, seed=5, length=0)
        assert P.entries == tuple(tuple(1 if i == j else 0 for j in range(4))
                                  for i in range(4))

    def test_always_symplectic(self):
        for seed in range(40):
            g = 1 + seed % 3
            P = random_symplectic(g, seed=seed, length=2 + seed % 7)
            assert is_symplectic(P)

    def test_check_rejects_a_unimodular_non_symplectic_basis(self):
        # diag(1, -1) has det -1 and sends J to -J
        assert not is_symplectic(BasisChange(((1, 0), (0, -1))))
        assert is_symplectic(BasisChange(((1, 0), (0, 1))))

    def test_deterministic_in_seed(self):
        assert random_symplectic(2, 99, 6) == random_symplectic(2, 99, 6)

    def test_preserves_theta1_class(self):
        for seed in range(10):
            P = random_symplectic(1, seed=seed, length=5)
            moved = change_basis(theta(1), P)
            assert unit_equivalent(alexander_polynomial(moved), BASE)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_symplectic(0, 1, 1)
        with pytest.raises(ValueError):
            random_symplectic(1, 1, -1)

    @pytest.mark.parametrize("bad", (2.0, True, "2"))
    def test_rejects_g_and_length_that_are_not_integers(self, bad):
        # random_symplectic(2.0, 1, 3) once raised a bare TypeError
        with pytest.raises(ValueError, match=re.escape(f"random_symplectic g must be an integer, "
                                                       f"got {bad!r}")):
            random_symplectic(bad, 1, 3)
        with pytest.raises(ValueError, match=re.escape(f"random_symplectic length must be an "
                                                       f"integer, got {bad!r}")):
            random_symplectic(2, 1, bad)

    @pytest.mark.parametrize("g", range(1, 10))
    def test_equals_the_oracle(self, g):
        # pins every generator and the order of every draw from the seed
        for seed in range(40):
            for length in (0, 1, 3, 8, 18):
                assert (random_symplectic(g, seed, length).entries
                        == seifert_oracle.random_symplectic(g, seed, length).entries), (seed, length)


class TestCongruenceInvariance:
    def test_alexander_class_invariant(self):
        rng = random.Random(2024)
        for _ in range(200):
            g = rng.randint(1, 3)
            V = SeifertMatrix([[rng.randint(-3, 3) for _ in range(2 * g)]
                               for _ in range(2 * g)])
            P = random_symplectic(g, seed=rng.randrange(10 ** 6),
                                  length=rng.randint(0, 8))
            assert unit_equivalent(alexander_polynomial(change_basis(V, P)),
                                   alexander_polynomial(V))

    def test_form_transport(self):
        rng = random.Random(404)
        for _ in range(60):
            g = rng.randint(1, 3)
            V = _random_standard(rng, g)
            P = random_symplectic(g, seed=rng.randrange(10 ** 6),
                                  length=rng.randint(1, 8))
            moved = change_basis(V, P)
            form, standard = intersection_form(moved)
            assert standard
            assert form == standard_form(g)


class TestIntDet:
    def test_small(self):
        assert int_det(((1, 2), (3, 4))) == -2
        assert int_det(((0, 1), (-1, 0))) == 1
        assert int_det(()) == 1

    def test_zero_column(self):
        assert int_det(((0, 1), (0, 2))) == 0

    def test_against_permutation_expansion(self):
        rng = random.Random(55)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert int_det(tuple(tuple(row) for row in m)) == permutation_det(m)

    @pytest.mark.parametrize("shape", ("sparse", "banded", "zero-diagonal", "singular"))
    def test_skipped_rows_against_permutation_expansion(self, shape):
        rng = random.Random(f"int-det-permutations:{shape}")
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 6), shape)
            assert int_det(tuple(tuple(row) for row in m)) == permutation_det(m), m

    def test_inexact_division_raises_under_optimization(self):
        # Bareiss quotients are exact for integer matrices; a 1/3 entry makes
        # one inexact, and the check must survive `python -O`.
        proc = run_python("-O", "-c", (
            "from fractions import Fraction\n"
            "from knotfog.seifert import int_det\n"
            "try:\n"
            "    int_det(((3, 1, 1), (1, 2, 1), (1, 1, Fraction(1, 3))))\n"
            "except ArithmeticError:\n"
            "    print('raised')\n"))
        assert (proc.returncode, proc.stdout) == (0, "raised\n"), proc.stderr


def permutation_det(m: list[list[int]]) -> int:
    """Oracle: the Leibniz sum over all permutations."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total
