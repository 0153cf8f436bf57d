"""Seifert matrices and exact Alexander polynomials.

A Seifert matrix is a square integer matrix of even size 2g recording
linking numbers of pushed-off basis curves on a genus-g spanning
surface.  This module provides:

* the banded matrices of the ribbon pretzel family (``theta``),
* the Alexander polynomial det(V - t*V^T), interpolated exactly from
  integer determinants at t = 0, 1, ..., size (one routine, int_det),
* the intersection form V - V^T and its comparison with the standard
  block form J = diag([[0,1],[-1,0]], ...),
* congruence change of basis P*V*P^T with unimodularity checks, and
* a seeded generator of integer symplectic matrices, used to exercise
  congruence invariance.

Basis order convention: x1, y1, x2, y2, ..., so the standard form J is
block diagonal.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Sequence

from .laurent import LaurentPoly

Rows = tuple[tuple[int, ...], ...]


def _freeze(entries: Sequence[Sequence[int]]) -> Rows:
    rows = tuple(tuple(int(x) for x in row) for row in entries)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    return rows


@dataclasses.dataclass(frozen=True)
class SeifertMatrix:
    """Square integer matrix of even size 2g; size 0 is the disc."""

    entries: Rows

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

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.entries) + "]"


@dataclasses.dataclass(frozen=True)
class BasisChange:
    """Unimodular integer matrix acting on a Seifert matrix by congruence."""

    entries: Rows

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

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


# -- determinants -------------------------------------------------------


def int_det(rows: Rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination.

    The module's one determinant routine: it checks unimodularity and
    samples every Alexander polynomial (Bareiss, Math. Comp. 22, 1968).
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top, pivot_row = m[k][k], m[k]
        for row in m[k + 1:]:
            head = row[k]
            for j in range(k + 1, n):
                num = top * row[j] - head * pivot_row[j]
                assert num % prev == 0, "Bareiss division must be exact"
                row[j] = num // prev
            row[k] = 0
        prev = top
    return sign * m[n - 1][n - 1]


def alexander_polynomial(V: SeifertMatrix) -> LaurentPoly:
    """det(V - t*V^T), exactly; the size-0 matrix (disc) yields 1.

    For V of size n, f(x) = det(V - x*V^T) has degree at most n, so the
    integer determinants f(0), ..., f(n) fix it, and Newton's forward
    differences recover it:

        f(x) = sum_k c_k * x(x-1)...(x-k+1),   c_k = (Delta^k f)(0) / k!.

    Each division is exact: f = sum_m a_m x^m with integer a_m, Delta^k
    is linear and (Delta^k x^m)(0) = k! * S(m, k), with S the Stirling
    number of the second kind, so (Delta^k f)(0) = k! * sum_m a_m S(m, k).
    A remainder can only be a bug, so it raises rather than rounding;
    Horner's rule over the falling factorials keeps every step integral.
    """
    n = V.size
    rows = V.entries
    diffs = [int_det(tuple(tuple(rows[i][j] - x * rows[j][i] for j in range(n))
                           for i in range(n)))
             for x in range(n + 1)]
    for k in range(1, n + 1):  # diffs[k] becomes (Delta^k f)(0)
        for i in range(n, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    poly: list[int] = []
    for k in range(n, -1, -1):  # poly := poly * (x - k) + c_k
        c, rem = divmod(diffs[k], math.factorial(k))
        if rem:
            raise ArithmeticError(f"inexact Newton step k={k} in det(V - t*V^T), V = {V}")
        poly = [a - k * b for a, b in zip([0] + poly, poly + [0])]
        poly[0] += c
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
