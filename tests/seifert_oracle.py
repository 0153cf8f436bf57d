"""`seifert.int_det` and `seifert.alexander_polynomial` as they were before
the row-skipping elimination and the palindromic sampling, kept as the
differential oracle for the Seifert tests.

The determinant is dense Bareiss elimination, every row rescaled at every
step; the polynomial is Newton's forward differences over the n + 1
samples x = 0, 1, ..., n, for V of size n.  Both are kept as they were,
except that the Bareiss division check raises ArithmeticError instead of
asserting.  The module's routines must return exactly what these return.
"""

from __future__ import annotations

import math

from knotfog.laurent import LaurentPoly
from knotfog.seifert import Rows, SeifertMatrix


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
