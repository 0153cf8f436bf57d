"""Seifert matrices and exact Alexander polynomials.

A Seifert matrix is a square integer matrix of even size 2g recording
linking numbers of pushed-off basis curves on a genus-g spanning
surface.  This module provides:

* the tridiagonal matrices of the ribbon pretzel family (``theta``),
  built from their two diagonals,
* the Alexander polynomial f(t) = det(V - t*V^T), read exactly off one
  integer determinant at t = 2^B (Kronecker substitution): Hadamard's
  inequality and Parseval's identity bound every coefficient of f below
  2^(B-1) in absolute value, so they are the balanced base-2^B digits
  of f(2^B), which must form a palindrome of length 2g + 1 (see
  alexander_polynomial),
* one determinant routine, int_det: fraction-free elimination that
  skips every row a step would only rescale.  Step k multiplies such a
  row by p_k / p_(k-1), with p_k the k-th pivot; over steps s..t-1 the
  factors telescope to p_(t-1) / p_(s-1), so the row is brought up to
  date by one exact multiply-divide when it is next read,
* the intersection form V - V^T and its comparison with the standard
  block form J = diag([[0,1],[-1,0]], ...),
* congruence change of basis P*V*P^T with unimodularity checks, and
* a seeded generator of integer symplectic matrices that applies each
  standard generator of Sp(2g, Z) to P as a row operation, used to
  exercise congruence invariance.

Basis order convention: x1, y1, x2, y2, ..., so the standard form J is
block diagonal.
"""

from __future__ import annotations

import math
import random

from .frozen import Frozen, integer
from .laurent import LaurentPoly

TYPE_CHECKING = False  # `typing` is not imported, to keep it out of a selftest process
if TYPE_CHECKING:
    from collections.abc import Sequence

Rows = tuple[tuple[int, ...], ...]


def _freeze(entries: Sequence[Sequence[int]], what: str) -> Rows:
    """entries as a square tuple of int rows of even size; else a ValueError."""
    rows = tuple(tuple(integer(x, f"{what} entry") for x in row) for row in entries)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if n % 2:
        raise ValueError(f"{what} must have even size, got {n}")
    return rows


class SeifertMatrix(Frozen):
    """Square integer matrix of even size 2g; size 0 is the disc."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        object.__setattr__(self, "entries", _freeze(entries, "Seifert matrix"))

    @property
    def size(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.entries) + "]"


class BasisChange(Frozen):
    """Unimodular integer matrix acting on a Seifert matrix by congruence."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = _freeze(entries, "basis change")
        d = int_det(rows)
        if d not in (1, -1):
            raise ValueError(f"basis change must be unimodular, det = {d}")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)


# -- determinants -------------------------------------------------------


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    The module's one determinant routine: it checks unimodularity and
    evaluates every Alexander polynomial at its one point t = 2^B
    (Bareiss, Math. Comp. 22, 1968).
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
    """det(V - t*V^T), exactly, from one determinant; the size-0 matrix
    (disc) yields 1.

    For V of even size n = 2g, f(x) = det(V - x*V^T) is a palindrome:
    transposing, then negating all n rows,

        x^n f(1/x) = det(x*V - V^T) = det(x*V^T - V) = (-1)^n f(x) = f(x).

    So f = c_0 + c_1*x + ... + c_n*x^n with integers c_j = c_(n-j).

    The bound (Hadamard, then Parseval).  For |x| = 1, entry (i, j) of
    V - x*V^T has absolute value at most |V_ij| + |V_ji|, and Hadamard's
    inequality, |det M| <= the product of the Euclidean lengths of M's
    rows, gives |f(x)| <= R on the unit circle, with

        R^2 = prod_i sum_j (|V_ij| + |V_ji|)^2.

    Parseval's identity, sum_j c_j^2 = (1/2pi) * integral over [0, 2pi]
    of |f(e^(i*s))|^2 ds, then gives sum_j c_j^2 <= R^2, so every
    |c_j| <= r = isqrt(R^2), the c_j being integers.  With
    B = bit_length(r + 1) + 1, r + 1 < 2^(B-1), so every |c_j| < 2^(B-1)
    (see von zur Gathen and Gerhard, Modern Computer Algebra, 8.4, 16.6).

    The digits (Kronecker substitution).  At X = 2^B, one determinant
    gives D = f(X) = sum_j c_j X^j.  Every integer has exactly one
    expansion sum_j d_j X^j in balanced digits -X/2 <= d_j < X/2, all
    but finitely many 0: d_0 must be the one residue of D mod X in that
    window, and the others the digits of the integer (D - d_0) / X.  The
    c_j are such digits, so the n + 1 digits read off the low end are
    c_0, ..., c_n and 0 is left over.  A value left over, or digits that
    are not a palindrome, can only be a bug, so either raises
    ArithmeticError.
    """
    n = V.size
    rows = V.entries
    bits = _digit_bits(V)
    X = 1 << bits
    value = int_det([[a - X * b for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))])
    mask, coeffs = X - 1, []
    for _ in range(n + 1):
        digit = value & mask
        if digit >> (bits - 1):
            digit -= X
        coeffs.append(digit)
        value = (value - digit) >> bits
    if value:
        raise ArithmeticError(f"det(V - t*V^T) at t = 2^{bits} has a {value.bit_length()}-bit "
                              f"value left over past degree {n}, V = {V}")
    if coeffs != coeffs[::-1]:
        raise ArithmeticError(f"det(V - t*V^T) at t = 2^{bits} has digits that are not "
                              f"a palindrome, V = {V}")
    return LaurentPoly(0, coeffs)


def _digit_bits(V: SeifertMatrix) -> int:
    """B with every coefficient of det(V - t*V^T) below 2^(B-1) in absolute
    value: B = bit_length(isqrt(R^2) + 1) + 1 for Hadamard's R^2 (proof in
    alexander_polynomial)."""
    square = 1
    for row, col in zip(V.entries, zip(*V.entries)):
        square *= sum((abs(a) + abs(b)) ** 2 for a, b in zip(row, col))
    return (math.isqrt(square) + 1).bit_length() + 1


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

    Size 2n and tridiagonal with a zero diagonal: the superdiagonal reads
    (2, -1, 2, -1, ..., 2) and the subdiagonal (1, -2, 1, -2, ..., 1).
    n must be an int (not a bool) and at least 1.

    >>> theta(1).entries
    ((0, 2), (1, 0))
    """
    if integer(n, "theta n") < 1:
        raise ValueError(f"theta requires n >= 1, got {n}")
    size = 2 * n
    m = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        m[i][i + 1] = -1 if i % 2 else 2
        m[i + 1][i] = -2 if i % 2 else 1
    return SeifertMatrix(m)


# -- random symplectic matrices -------------------------------------------


def random_symplectic(g: int, seed: int, length: int) -> BasisChange:
    """Product of `length` standard symplectic generators chosen from `seed`.

    Generators (Hua and Reiner, Trans. AMS 65, 1949), each applied to P
    from the left as a row operation, so P becomes G*P:

    * the transvection x -> x + <x, v> v along a short integer vector v,
      with <x, v> = x^T J v: G = I + v (Jv)^T, so with w = (Jv)^T P every
      row r gains v_r * w, where (Jv)_(2k) = v_(2k+1) and
      (Jv)_(2k+1) = -v_(2k);
    * the swap of the pairs (x_a, y_a) and (x_b, y_b): rows 2a, 2a+1
      trade places with rows 2b, 2b+1;
    * the rotation x_a -> y_a, y_a -> -x_a within one pair: rows
      (2a, 2a+1) become (row 2a+1, -row 2a).

    Every generator preserves the standard form J exactly, so the product
    always satisfies P*J*P^T = J; length 0 gives the identity.  g and
    length must be ints (not bools).
    """
    if integer(g, "random_symplectic g") < 1:
        raise ValueError(f"random_symplectic requires g >= 1, got {g}")
    if integer(length, "random_symplectic length") < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    rng = random.Random(seed)
    size = 2 * g
    P = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
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
            Jv = [x for k in range(0, size, 2) for x in (v[k + 1], -v[k])]
            w = [sum(c * x for c, x in zip(Jv, col)) for col in zip(*P)]
            for r, c in enumerate(v):
                if c:
                    P[r] = [a + c * b for a, b in zip(P[r], w)]
        elif kind == 1:
            a, b = (2 * k for k in rng.sample(range(g), 2))
            P[a], P[a + 1], P[b], P[b + 1] = P[b], P[b + 1], P[a], P[a + 1]
        else:
            a = 2 * rng.randrange(g)
            P[a], P[a + 1] = P[a + 1], [-x for x in P[a]]
    return BasisChange(P)
