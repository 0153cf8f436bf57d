import random

import pytest

from knotfog import seifert
from knotfog.laurent import LaurentPoly, ONE, ZERO, unit_equivalent
from knotfog.seifert import (BasisChange, SeifertMatrix, alexander_polynomial,
                             change_basis, int_det, intersection_form,
                             random_symplectic, standard_form, theta)

BASE = LaurentPoly(0, (-2, 5, -2))
TREFOIL = SeifertMatrix(((-1, 1), (0, -1)))


def det_cofactor(m: list[list[LaurentPoly]]) -> LaurentPoly:
    """Oracle: Laplace expansion along the first row, over ZZ[t, 1/t]."""
    n = len(m)
    if n == 0:
        return ONE
    if n == 1:
        return m[0][0]
    total = ZERO
    for j in range(n):
        top = m[0][j]
        if top.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = top * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def cofactor_alexander(V: SeifertMatrix) -> LaurentPoly:
    n = V.size
    return det_cofactor([[LaurentPoly.from_terms({0: V.entries[i][j], 1: -V.entries[j][i]})
                          for j in range(n)] for i in range(n)])


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

    def test_bareiss_agrees_with_cofactor(self):
        rng = random.Random(1009)
        for _ in range(150):
            n = rng.choice((0, 2, 4, 6))
            V = SeifertMatrix([[rng.randint(-4, 4) for _ in range(n)]
                               for _ in range(n)])
            assert alexander_polynomial(V) == cofactor_alexander(V)

    def test_bareiss_agrees_with_cofactor_on_family(self):
        for n in (1, 2, 3):
            assert alexander_polynomial(theta(n)) == cofactor_alexander(theta(n))

    def test_agrees_with_int_det_off_the_sample_points(self):
        # The interpolation samples x = 0..n; these points are never sampled.
        rng = random.Random(4242)
        for _ in range(500):
            n = rng.choice((0, 2, 4, 6, 8, 10))
            huge = rng.random() < 0.2
            V = SeifertMatrix([[rng.randint(-10 ** 30, 10 ** 30) if huge and rng.random() < 0.3
                                else rng.randint(-9, 9) for _ in range(n)]
                               for _ in range(n)])
            poly = alexander_polynomial(V)
            for x in (-3, -1, n + 1, n + 2):
                rows = tuple(tuple(V.entries[i][j] - x * V.entries[j][i] for j in range(n))
                             for i in range(n))
                assert poly.evaluate(x) == int_det(rows)

    def test_samples_of_no_polynomial_raise(self, monkeypatch):
        # One sample off by one, at x = 1: the k-th difference at 0 moves by
        # +-k, which k! does not divide for k >= 3.
        calls = []

        def skewed(rows):
            calls.append(rows)
            return int_det(rows) + (len(calls) == 2)

        monkeypatch.setattr(seifert, "int_det", skewed)
        with pytest.raises(ArithmeticError):
            alexander_polynomial(theta(2))


class TestSeifertMatrixType:
    def test_rejects_odd_size(self):
        with pytest.raises(ValueError):
            SeifertMatrix(((1,),))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SeifertMatrix(((1, 2), (3, 4), (5, 6)))

    def test_genus_is_half_size(self):
        assert theta(3).genus == 3
        assert theta(1).genus == 1
        assert SeifertMatrix(()).genus == 0


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
            assert P.is_symplectic()

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
        import itertools
        rng = random.Random(55)
        for _ in range(50):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            expected = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                prod = 1
                for i in range(n):
                    prod *= m[i][perm[i]]
                expected += sign * prod
            assert int_det(tuple(tuple(row) for row in m)) == expected
