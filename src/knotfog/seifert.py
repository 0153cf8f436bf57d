"""Seifert matrices and exact Alexander polynomials.

A Seifert matrix is a square integer matrix of even size 2g recording
linking numbers of pushed-off basis curves on a genus-g spanning
surface.  This module provides:

* the tridiagonal matrices of the ribbon pretzel family (``theta``),
  built from their two diagonals,
* the Alexander polynomial f(t) = det(V - t*V^T), read exactly off one
  integer determinant with half-width entries: with S = V + V^T and
  A = V - V^T, F(a) = det(a*S + A) is even in a, Hadamard's inequality
  and Parseval's identity bound its g + 1 coefficients p_i below
  2^(w-1), so they are the balanced base-2^w digits of F(2^(w/2)); and
  2^n f(t) = sum_i p_i (1-t)^(2i) (1+t)^(n-2i) turns them into f's
  coefficients, read as the digits of one integer, which must form a
  palindrome of length 2g + 1 (see alexander_polynomial),
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
    evaluates every Alexander polynomial's det(a*S + A) at its one point
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
    """det(V - t*V^T), exactly, from one determinant with half-width
    entries; the size-0 matrix (disc) yields 1.

    Let V have even size n = 2g, f(t) = det(V - t*V^T) = sum_j c_j t^j,
    S = V + V^T and A = V - V^T.

    The palindrome.  Transposing, then negating all n rows,

        t^n f(1/t) = det(t*V - V^T) = det(t*V^T - V) = (-1)^n f(t) = f(t),

    so the integers c_j satisfy c_j = c_(n-j).

    Evenness.  F(a) = det(a*S + A) = det((a+1)*V + (a-1)*V^T).  S is
    symmetric and A antisymmetric, so transposing, then negating all n
    rows,

        F(-a) = det(-a*S + A) = det(-a*S - A) = (-1)^n F(a) = F(a),

    and F(a) = sum_(i<=g) p_i a^(2i) with integers p_i.

    The bound on F (Hadamard, then Parseval).  For |a| = 1, entry (i, j)
    of a*S + A has absolute value at most |V_ij + V_ji| + |V_ij - V_ji|,
    and Hadamard's inequality, |det M| <= the product of the Euclidean
    lengths of M's rows, gives |F(a)| <= R on the unit circle, with

        R^2 = prod_i sum_j (|V_ij + V_ji| + |V_ij - V_ji|)^2.

    Parseval's identity, sum_i p_i^2 = (1/2pi) * integral over [0, 2pi]
    of |F(e^(i*u))|^2 du, then gives sum_i p_i^2 <= R^2, so every
    |p_i| <= r = isqrt(R^2), the p_i being integers.  The width w, the
    least even number >= bit_length(r) + 1, makes every |p_i| < 2^(w-1)
    (see von zur Gathen and Gerhard, Modern Computer Algebra, 8.4, 16.6).

    The digits of F (Kronecker substitution).  At a = 2^(w/2), one
    determinant gives D = F(a) = sum_i p_i Y^i with Y = 2^w.  Every
    integer has exactly one expansion sum_i d_i Y^i in balanced digits
    -Y/2 <= d_i < Y/2, all but finitely many 0: d_0 must be the one
    residue of D mod Y in that window, and the others the digits of the
    integer (D - d_0) / Y.  The p_i are such digits, so the g + 1 digits
    read off the low end are p_0, ..., p_g and 0 is left over.  The
    entries a*S_ij + A_ij have about w/2 bits, and D about g*w: half of
    what det(V - Y*V^T) would carry at the same width.

    Back to f.  H(x, y) = det(x*S + y*A) is homogeneous of degree n with
    H(a, 1) = F(a), so H(x, y) = sum_i p_i x^(2i) y^(n-2i).  At x = 1 - t,
    y = 1 + t the matrix is x*S + y*A = 2V - 2t*V^T, so

        2^n f(t) = sum_i p_i (1-t)^(2i) (1+t)^(n-2i).

    The coefficients of each term (1-t)^(2i) (1+t)^(n-2i) have absolute
    values summing to at most 2^(2i) * 2^(n-2i) = 2^n, so every
    |c_j| <= s = sum_i |p_i|.  At X = 2^(bit_length(s) + 1), Horner's
    rule in the pair (X-1)^2, (X+1)^2 gives G = 2^n f(X), and f(X) is an
    integer since the c_j are, so the division by 2^n is exact.  As
    s < X/2, the n + 1 balanced base-X digits of f(X) are c_0, ..., c_n
    with 0 left over.

    A value left over in either expansion, a remainder mod 2^n, or
    digits that are not a palindrome can only be a bug, so each raises
    ArithmeticError.
    """
    n = V.size
    g = n // 2
    rows = V.entries
    cols = tuple(zip(*rows))
    square = 1
    for row, col in zip(rows, cols):
        square *= sum((abs(a + b) + abs(a - b)) ** 2 for a, b in zip(row, col) if a or b)
    half = (math.isqrt(square).bit_length() + 2) // 2
    value = int_det([[((a + b) << half) + a - b if a or b else 0 for a, b in zip(row, col)]
                     for row, col in zip(rows, cols)])
    evens, value = _balanced_digits(value, 2 * half, g + 1)
    if value:
        raise ArithmeticError(f"det(a*S + A) at a = 2^{half} has a {value.bit_length()}-bit "
                              f"value left over past degree {n} in a, V = {V}")
    bits = sum(map(abs, evens)).bit_length() + 1
    X = 1 << bits
    down, up = (X - 1) ** 2, (X + 1) ** 2
    value, power = evens[g], 1
    for p in reversed(evens[:g]):
        power *= up
        value = value * down + p * power
    if value & ((1 << n) - 1):
        raise ArithmeticError(f"sum_i p_i (1-t)^(2i) (1+t)^(n-2i) at t = 2^{bits} is not "
                              f"divisible by 2^{n}, V = {V}")
    coeffs, value = _balanced_digits(value >> n, bits, n + 1)
    if value:
        raise ArithmeticError(f"det(V - t*V^T) at t = 2^{bits} has a {value.bit_length()}-bit "
                              f"value left over past degree {n}, V = {V}")
    if coeffs != coeffs[::-1]:
        raise ArithmeticError(f"det(V - t*V^T) at t = 2^{bits} has digits that are not "
                              f"a palindrome, V = {V}")
    return LaurentPoly(0, coeffs)


def _balanced_digits(value: int, bits: int, count: int) -> tuple[list[int], int]:
    """The `count` low balanced base-2^bits digits of value, each in
    [-2^(bits-1), 2^(bits-1)), and the value left over past them."""
    X = 1 << bits
    mask, digits = X - 1, []
    for _ in range(count):
        digit = value & mask
        if digit >> (bits - 1):
            digit -= X
        digits.append(digit)
        value = (value - digit) >> bits
    return digits, value


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
    return SeifertMatrix(_mat_mul(_mat_mul(P.entries, V.entries), tuple(zip(*P.entries))))


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
