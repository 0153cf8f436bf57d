"""`seifert.int_det` and `seifert.alexander_polynomial` as they were before
the row-skipping elimination and the palindromic sampling, and
`seifert.theta` and `seifert.random_symplectic` as they were before the
diagonals and the row operations, kept as the differential oracle for the
Seifert tests.

The determinant is dense Bareiss elimination, every row rescaled at every
step; the polynomial is Newton's forward differences over the n + 1
samples x = 0, 1, ..., n, for V of size n.  `theta` fills each row from
its parity's template, and `random_symplectic` builds every generator as
a full matrix and multiplies it into P.  All are kept as they were,
except that the Bareiss division check raises ArithmeticError instead of
asserting.  The module's routines must return exactly what these return.

`even_form`, `even_square` and `half_width` are an independent account of
the bounds `seifert.alexander_polynomial` reads its one determinant with:
the coefficients of F(a) = det(a*S + A), S = V + V^T, A = V - V^T, expanded
from f = det(V - t*V^T) with no division; Hadamard's R^2 for a*S + A on the
unit circle, from its definition; and the least even width w with
isqrt(R^2) < 2^(w-1), found by search.

`spine_matrix` is an independent semantics for the classical engine's
Alexander polynomials: a Seifert matrix for every tree, built from the
leaves of its `#` spine.  det(V - t*V^T) of it must be the polynomial
the engine prints; no `LaurentPoly` product or power is on that path.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from knotfog.knotlang import Atom, Fig8, Kfam, KnotExpr, Ksat, Sum, Trefoil, Unknot, Wh0
from knotfog.laurent import LaurentPoly
from knotfog.seifert import BasisChange, Rows, SeifertMatrix, standard_form


def int_det(rows: Rows) -> int:
    """Determinant of an integer matrix by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968), every entry updated at every step."""
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
                if num % prev:
                    raise ArithmeticError("Bareiss division must be exact")
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


def even_form(V: SeifertMatrix, f: LaurentPoly) -> list[int]:
    """The coefficients of F(a) = det(a*S + A), lowest first, from those of
    f(t) = det(V - t*V^T): a*S + A = (1+a)*V - (1-a)*V^T, so with
    f = sum_j c_j t^j, F(a) = sum_j c_j (1-a)^j (1+a)^(n-j), expanded by
    Horner's rule in the pair (1-a), (1+a)."""
    n = V.size
    c = [0] * (n + 1)
    for j, x in enumerate(f.coeffs, f.min_degree):
        c[j] = x
    F, power = [c[n]], [1]
    for x in reversed(c[:n]):
        power = _times_one_plus(power, 1)
        F = [y + x * z for y, z in zip(_times_one_plus(F, -1), power)]
    return F


def _times_one_plus(poly: list[int], sign: int) -> list[int]:
    """poly * (1 + sign*a), lowest coefficient first."""
    return [y + sign * z for y, z in zip(poly + [0], [0] + poly)]


def even_square(V: SeifertMatrix) -> int:
    """R^2 = prod_i sum_j (|S_ij| + |A_ij|)^2, which bounds |det(a*S + A)|^2
    for |a| = 1 by Hadamard's inequality, straight from its definition."""
    n, m = V.size, V.entries
    return math.prod(sum((abs(m[i][j] + m[j][i]) + abs(m[i][j] - m[j][i])) ** 2
                         for j in range(n))
                     for i in range(n))


def half_width(V: SeifertMatrix) -> int:
    """The least even w with isqrt(even_square(V)) < 2^(w-1)."""
    r, w = math.isqrt(even_square(V)), 2
    while r >= 1 << w - 1:
        w += 2
    return w


def theta(n: int) -> SeifertMatrix:
    """The pretzel family's matrix, row by row: even rows carry (-2, ., 2)
    around the diagonal, odd rows carry (1, ., -1)."""
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


def _mat_mul(a: Rows, b: Rows) -> Rows:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


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
    """Product of `length` generator matrices chosen from `seed`, each
    multiplied into P from the left."""
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


def spine_matrix(e: KnotExpr) -> SeifertMatrix | None:
    """The block-diagonal sum, along e's `#` spine in text order, of one
    Seifert matrix per leaf, or None if an atom is on the spine.  A
    connected sum's Seifert surface is the boundary sum of its summands',
    so its matrix is the block sum.  The blocks:

        [[k, 1], [0, 1]]    trefoil (k = 1) and figure-eight (k = -1)
        [[m, 1], [0, n]]    ksat(_, _, m, n), the twist model
        theta(n)            kfam(n)
        [[-1, 1], [0, 0]]   an untwisted double, whose det(V - tV^T) = t
        (none)              the unknot, which bounds a disc
    """
    blocks: list[Rows] = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            stack += node.right, node.left
        elif isinstance(node, Atom):
            return None
        elif isinstance(node, (Trefoil, Fig8)):
            blocks.append(((1 if isinstance(node, Trefoil) else -1, 1), (0, 1)))
        elif isinstance(node, Ksat):
            blocks.append(((node.m, 1), (0, node.n)))
        elif isinstance(node, Kfam):
            blocks.append(theta(node.n).entries)
        elif isinstance(node, Wh0):
            blocks.append(((-1, 1), (0, 0)))
        elif not isinstance(node, Unknot):
            raise TypeError(f"not a KnotExpr: {node!r}")
    size = sum(len(block) for block in blocks)
    rows, offset = [], 0
    for block in blocks:
        for row in block:
            rows.append((0,) * offset + row + (0,) * (size - offset - len(row)))
        offset += len(block)
    return SeifertMatrix(rows)
