"""Seifert matrices and exact Alexander polynomials.

A Seifert matrix is a square integer matrix of even size 2g recording
linking numbers of pushed-off basis curves on a genus-g spanning
surface.  This module provides:

* the banded matrices of the ribbon pretzel family (``theta``),
* the Alexander polynomial f(t) = det(V - t*V^T), interpolated exactly
  from g + 1 integer determinants at t = 0, 1, -1, 2, -2, ...: the size
  2g is even, so transposing and then negating all rows gives
  t^(2g) f(1/t) = det(t*V - V^T) = det(t*V^T - V) = f(t), a palindrome
  of degree at most 2g, and f(t) = t^g * H(t + 1/t) with H an integer
  polynomial of degree at most g (see alexander_polynomial),
* one determinant routine, int_det: fraction-free elimination that
  skips every row a step would only rescale.  Step k multiplies such a
  row by p_k / p_(k-1), with p_k the k-th pivot; over steps s..t-1 the
  factors telescope to p_(t-1) / p_(s-1), so the row is brought up to
  date by one exact multiply-divide when it is next read,
* the intersection form V - V^T and its comparison with the standard
  block form J = diag([[0,1],[-1,0]], ...),
* congruence change of basis P*V*P^T with unimodularity checks, and
* a seeded generator of integer symplectic matrices, used to exercise
  congruence invariance.

Basis order convention: x1, y1, x2, y2, ..., so the standard form J is
block diagonal.
"""

from __future__ import annotations

import random
from typing import Sequence

from .frozen import Frozen
from .laurent import LaurentPoly

Rows = tuple[tuple[int, ...], ...]


def _freeze(entries: Sequence[Sequence[int]]) -> Rows:
    rows = tuple(tuple(int(x) for x in row) for row in entries)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


class SeifertMatrix(Frozen):
    """Square integer matrix of even size 2g; size 0 is the disc."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = _freeze(entries)
        if len(rows) % 2:
            raise ValueError(f"Seifert matrix must have even size, got {len(rows)}")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        """Genus of the surface the matrix came from (size/2).

        This is a property of the surface, not a claim that the surface
        realizes the knot genus.
        """
        return self.size // 2

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.entries) + "]"


class BasisChange(Frozen):
    """Unimodular integer matrix acting on a Seifert matrix by congruence."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = _freeze(entries)
        if len(rows) % 2:
            raise ValueError(f"basis change must have even size, got {len(rows)}")
        d = int_det(rows)
        if d not in (1, -1):
            raise ValueError(f"basis change must be unimodular, det = {d}")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def is_symplectic(self) -> bool:
        """Whether P*J*P^T = J for the standard block form J."""
        P = self.entries
        J = standard_form(self.size // 2)
        return _mat_mul(_mat_mul(P, J), _transpose(P)) == J


# -- determinants -------------------------------------------------------


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    The module's one determinant routine: it checks unimodularity and
    samples every Alexander polynomial (Bareiss, Math. Comp. 22, 1968).
    Step k replaces each row i > k, on columns j > k, by

        (p_k * m[i][j] - m[i][k] * m[k][j]) / p_(k-1),

    with p_k the k-th pivot and p_(-1) = 1; the quotient is exact, since
    it is a minor of the input.  A row whose column-k entry is 0 is only
    scaled, by p_k / p_(k-1), and over the steps s..t-1 these factors
    telescope to p_(t-1) / p_(s-1).  So such a row is skipped and keeps a
    stamp, the divisor p_(s-1) as of which it is current: its current
    entries are the stored ones times p_(t-1) / stamp.  Substituting that
    into the step above, p_(t-1) cancels, so a row with a nonzero entry
    is brought up to date and eliminated in one multiply-divide, by its
    stamp instead of p_(t-1).  The pivot row and the last entry are
    rescaled by p_(t-1) / stamp before they are read.  A zero test needs
    no rescaling, since the factor is a ratio of nonzero pivots, and a
    swap moves the stamps with the rows.  A dense matrix pays one zero
    test per row per step, with every stamp equal to p_(t-1); a banded
    one skips the rows below the band, about O(n^2) steps instead of
    O(n^3).  A division with a remainder can only be a bug, so it raises
    ArithmeticError, which `python -O` keeps, unlike an `assert`.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    stamp = [1] * n
    sign = prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            stamp[k], stamp[pivot] = stamp[pivot], stamp[k]
            sign = -sign
        top, *tail = _scaled(m[k][k:], prev, stamp[k])
        for i in range(k + 1, n):
            row = m[i]
            head = row[k]
            if head:
                den, out = stamp[i], [0]
                for a, b in zip(row[k + 1:], tail):
                    q, r = divmod(top * a - head * b, den)
                    if r:
                        raise ArithmeticError(f"inexact Bareiss step: remainder {r} mod {den}")
                    out.append(q)
                row[k:] = out
                stamp[i] = top
        prev = top
    return sign * _scaled(m[n - 1][n - 1:], prev, stamp[n - 1])[0]


def _scaled(values: list[int], num: int, den: int) -> list[int]:
    """values * num / den, each division checked exact."""
    if num == den:
        return values
    out = []
    for x in values:
        q, r = divmod(x * num, den)
        if r:
            raise ArithmeticError(f"inexact Bareiss division: {x} * {num} / {den}")
        out.append(q)
    return out


def alexander_polynomial(V: SeifertMatrix) -> LaurentPoly:
    """det(V - t*V^T), exactly; the size-0 matrix (disc) yields 1.

    For V of even size n = 2g, f(x) = det(V - x*V^T) is a palindrome:
    transposing, then negating all n rows,

        x^n f(1/x) = det(x*V - V^T) = det(x*V^T - V) = (-1)^n f(x) = f(x).

    Its degree is at most n, so f(x) = x^g * H(x + 1/x) for a polynomial
    H = b_0 + b_1*u + ... + b_g*u^g with integer coefficients: for
    k = g, g-1, ..., 0, subtracting b_k * x^(g-k) * (1 + x^2)^k, with b_k
    the coefficient of x^(g+k) left, clears that coefficient and, by
    symmetry, the one of x^(g-k).  So b_g = f(0), and H's other g
    coefficients are fixed by g values H(x + 1/x) = f(x) / x^g, at
    x = 1, -1, 2, -2, ...; x + 1/x is odd and increasing on x >= 1, so
    these points are distinct.  That is g + 1 integer determinants in
    all, of matrices with small multipliers x.  Newton's divided
    differences interpolate H - f(0)*u^g over the fractions; a
    coefficient that is not an integer can only be a bug, so it raises
    rather than rounding.  Horner's rule in integers then expands

        T_g = b_g,  T_k = T_(k+1) * (1 + x^2) + b_k * x^(g-k),  f = T_0.
    """
    from fractions import Fraction  # imported here: no report computes a determinant

    g = V.size // 2
    rows = V.entries
    pairs = tuple(zip(rows, zip(*rows)))  # row i of V with row i of V^T

    def f(x: int) -> int:
        return int_det([[a - x * b for a, b in zip(row, col)] for row, col in pairs])

    lead = f(0)
    xs = [(k // 2 + 1) * (-1) ** k for k in range(g)]
    us = [Fraction(x * x + 1, x) for x in xs]
    diffs = [Fraction(f(x), x ** g) - lead * u ** g for x, u in zip(xs, us)]
    for k in range(1, g):  # diffs[i] becomes the divided difference on us[i-k..i]
        for i in range(g - 1, k - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) / (us[i] - us[i - k])
    low: list[Fraction] = []
    for d, u in zip(reversed(diffs), reversed(us)):  # low := low * (u - us[i]) + diffs[i]
        low = [a - u * b for a, b in zip([0] + low, low + [0])]
        low[0] += d
    b = []
    for c in low:
        if c.denominator != 1:
            raise ArithmeticError(f"non-integer coefficient {c} of H in det(V - t*V^T), V = {V}")
        b.append(c.numerator)
    b.append(lead)
    poly = [0] * (2 * g + 1)
    for k in range(g, -1, -1):  # poly := poly * (1 + x^2) + b_k * x^(g-k)
        for j in range(2 * (g - k), 1, -1):
            poly[j] += poly[j - 2]
        poly[g - k] += b[k]
    return LaurentPoly(0, poly)


# -- intersection forms and congruence -----------------------------------


def standard_form(g: int) -> Rows:
    """Block-diagonal J with 2x2 blocks [[0,1],[-1,0]], size 2g."""
    n = 2 * g
    J = [[0] * n for _ in range(n)]
    for k in range(g):
        J[2 * k][2 * k + 1] = 1
        J[2 * k + 1][2 * k] = -1
    return tuple(tuple(row) for row in J)


def intersection_form(V: SeifertMatrix) -> tuple[Rows, bool]:
    """V - V^T and whether it equals the standard block form J."""
    n = V.size
    form = tuple(tuple(V.entries[i][j] - V.entries[j][i] for j in range(n))
                 for i in range(n))
    return form, form == standard_form(n // 2)


def change_basis(V: SeifertMatrix, P: BasisChange) -> SeifertMatrix:
    """P*V*P^T; P must be unimodular (enforced by BasisChange) and size-matched."""
    if P.size != V.size:
        raise ValueError(f"size mismatch: matrix {V.size}, basis change {P.size}")
    return SeifertMatrix(_mat_mul(_mat_mul(P.entries, V.entries), _transpose(P.entries)))


def _transpose(rows: Rows) -> Rows:
    return tuple(zip(*rows)) if rows else ()


def _mat_mul(a: Rows, b: Rows) -> Rows:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


# -- the pretzel family ---------------------------------------------------


def theta(n: int) -> SeifertMatrix:
    """Seifert matrix of the genus-n surface of the ribbon pretzel family.

    Size 2n, built from the two repeating row templates: even rows carry
    (-2, ., 2) around the diagonal, odd rows carry (1, ., -1).

    >>> theta(1).entries
    ((0, 2), (1, 0))
    """
    if n < 1:
        raise ValueError(f"theta requires n >= 1, got {n}")
    size = 2 * n
    m = [[0] * size for _ in range(size)]
    for k in range(n):
        i = 2 * k
        if i - 1 >= 0:
            m[i][i - 1] = -2
        m[i][i + 1] = 2
        j = 2 * k + 1
        m[j][j - 1] = 1
        if j + 1 < size:
            m[j][j + 1] = -1
    return SeifertMatrix(m)


# -- random symplectic matrices -------------------------------------------


def _transvection(size: int, v: Sequence[int], J: Rows) -> Rows:
    # x -> x + <x, v> v  with <x, v> = x^T J v; symplectic for any integer v.
    Jv = [sum(J[i][j] * v[j] for j in range(size)) for i in range(size)]
    return tuple(
        tuple((1 if i == j else 0) + v[i] * Jv[j] for j in range(size))
        for i in range(size)
    )


def _block_swap(g: int, a: int, b: int) -> Rows:
    perm = list(range(2 * g))
    perm[2 * a], perm[2 * b] = perm[2 * b], perm[2 * a]
    perm[2 * a + 1], perm[2 * b + 1] = perm[2 * b + 1], perm[2 * a + 1]
    return tuple(
        tuple(1 if perm[i] == j else 0 for j in range(2 * g)) for i in range(2 * g)
    )


def _block_rotation(g: int, a: int) -> Rows:
    m = [[1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)]
    m[2 * a][2 * a] = 0
    m[2 * a][2 * a + 1] = 1
    m[2 * a + 1][2 * a] = -1
    m[2 * a + 1][2 * a + 1] = 0
    return tuple(tuple(row) for row in m)


def random_symplectic(g: int, seed: int, length: int) -> BasisChange:
    """Product of `length` standard symplectic generators chosen from `seed`.

    Generators: symplectic transvections along short integer vectors,
    swaps of (x_i, y_i) pairs, and rotations within one pair.  Every
    factor preserves the standard form J exactly, so the product always
    satisfies P*J*P^T = J; length 0 gives the identity.
    """
    if g < 1:
        raise ValueError(f"random_symplectic requires g >= 1, got {g}")
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    rng = random.Random(seed)
    size = 2 * g
    J = standard_form(g)
    P = tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0 or (kind == 1 and g < 2):
            v = [0] * size
            i = rng.randrange(size)
            v[i] = rng.choice((1, -1))
            if rng.randrange(2):
                j = rng.randrange(size)
                if j != i:
                    v[j] = rng.choice((1, -1))
            gen = _transvection(size, v, J)
        elif kind == 1:
            a, b = rng.sample(range(g), 2)
            gen = _block_swap(g, a, b)
        else:
            gen = _block_rotation(g, rng.randrange(g))
        P = _mat_mul(gen, P)
    return BasisChange(P)
