"""Exact integer Laurent polynomials in one variable t.

The invariants need products and powers of Alexander polynomials, exact
evaluation, and, since an Alexander polynomial is only defined up to
multiplication by a unit +-t^k, a canonical representative (lowest
exponent shifted to 0, positive top coefficient) and unit-equivalence
testing.  This module provides those and no ring beyond them: there are
no sums, and a polynomial multiplies only by a polynomial.  Coefficients
are arbitrary-precision Python integers throughout; determinants of the
banded pretzel matrices grow like 2^n and must never overflow.
"""

from __future__ import annotations

from .frozen import Frozen, integer

TYPE_CHECKING = False  # `typing` is not imported, to keep it out of a CLI process
if TYPE_CHECKING:
    from collections.abc import Sequence


class LaurentPoly(Frozen):
    """An integer Laurent polynomial, stored densely from its lowest exponent.

    ``coeffs[i]`` is the coefficient of ``t**(min_degree + i)``.  The zero
    polynomial is the empty coefficient tuple (with ``min_degree == 0``);
    a nonzero polynomial never has a zero first or last coefficient.

    >>> LaurentPoly(0, (-2, 5, -2))
    LaurentPoly('-2t^2 + 5t - 2')
    >>> LaurentPoly(-1, (1,)) * LaurentPoly(1, (1,))
    LaurentPoly('1')
    """

    __slots__ = ("min_degree", "coeffs")

    def __init__(self, min_degree: int = 0, coeffs: Sequence[int] = ()):
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
            min_degree += 1
        while lo < hi and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            min_degree = 0
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "coeffs", tuple(coeffs[lo:hi]))

    # -- products, powers and evaluation ---------------------------------

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if other.__class__ is not LaurentPoly:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return ZERO
        dense = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                dense[i + j] += a * b
        return LaurentPoly(self.min_degree + other.min_degree, dense)

    def __pow__(self, k: int) -> "LaurentPoly":
        """p**k by the J.C.P. Miller recurrence, one coefficient at a time.

        Write p = t^m * a(t) with a = a_0 + ... + a_d t^d; a_0 != 0 because
        a nonzero polynomial never stores a zero first coefficient.  Then
        p^k = t^(mk) * q(t) with q = a^k, and differentiating gives
        a * q' = k * a' * q.  Comparing coefficients of t^(j-1):

            q_0 = a_0^k,
            q_j = sum_{i=1..min(j,d)} ((k+1)*i - j) * a_i * q_(j-i) / (j * a_0),

        one pass over the dk + 1 coefficients of q with at most d products
        each (Knuth, TAOCP Vol. 2, section 4.7; Zeilberger, "The J.C.P.
        Miller recurrence for exponentiating a polynomial, and its
        q-analog", 1995).  Every division is exact: q is a power of an
        integer polynomial, so q_j is an integer, and since j * a_0 != 0
        the recurrence forces the numerator to equal j * a_0 * q_j.  A
        nonzero remainder can only be a bug, so it raises rather than
        rounding.  At k = 0 the pass is empty and q = [a_0^0] = [1].
        """
        if k < 0:
            raise ValueError("negative powers are not defined for general Laurent polynomials")
        if not self.coeffs:
            return ZERO if k else ONE
        a = self.coeffs
        d = len(a) - 1
        a0 = a[0]
        q = [a0 ** k]
        for j in range(1, d * k + 1):
            total = 0
            for i in range(1, min(j, d) + 1):
                if a[i]:
                    total += ((k + 1) * i - j) * a[i] * q[j - i]
            qj, rem = divmod(total, j * a0)
            if rem:
                raise ArithmeticError(f"inexact Miller step j={j} in ({self!r}) ** {k}")
            q.append(qj)
        return LaurentPoly(self.min_degree * k, q)

    def evaluate(self, x: int) -> int:
        """Exact substitution t := x, for an int x (not a bool) at which the
        value is an integer by shape: min_degree >= 0, or x = +-1.  Any
        other x, t = 0 included, raises ValueError.  Horner's rule over the
        stored coefficients, times x^min_degree once at the end.
        """
        if integer(x, "t") == 0:
            raise ValueError("cannot evaluate at t = 0: negative exponents")
        if self.min_degree < 0 and x not in (1, -1):
            raise ValueError(f"t^{self.min_degree} at t = {x} is not an integer")
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total * x ** abs(self.min_degree)  # x^-k = x^k at x = +-1, and 1 ** -2 is a float

    # -- unit normalization ----------------------------------------------

    def canonical(self) -> "LaurentPoly":
        """The representative of the unit class: min_degree 0, positive top coefficient.

        Any unit-normal form would do; this one makes golden-file comparison
        deterministic.  Idempotent, and maps every unit +-t^k to 1.
        """
        coeffs = self.coeffs
        if coeffs and coeffs[-1] < 0:
            coeffs = tuple(-c for c in coeffs)
        return LaurentPoly(0, coeffs)

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        lo = self.min_degree
        for k, c in zip(range(lo + len(self.coeffs) - 1, lo - 1, -1), reversed(self.coeffs)):
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


ZERO = LaurentPoly(0, ())
ONE = LaurentPoly(0, (1,))


def unit_equivalent(a: LaurentPoly, b: LaurentPoly) -> bool:
    """True iff a = u*b for some unit u = +-t^k (equal canonical forms)."""
    return a.canonical() == b.canonical()


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact quotient num/den in ZZ[t, 1/t]; raises if the division is not exact.

    No knotfog code calls it; perfbench/tracer.py resolves `laurent.exact_div`
    by attribute for its span, so removing it would crash `--trace 1` runs.
    """
    if not den.coeffs:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num.coeffs:
        return ZERO
    rem = list(num.coeffs)
    div = den.coeffs
    qlen = len(rem) - len(div) + 1
    if qlen <= 0:
        raise ValueError(f"{num!r} is not divisible by {den!r}")
    quot = [0] * qlen
    top = div[-1]
    for i in range(qlen - 1, -1, -1):
        head = rem[i + len(div) - 1]
        if head % top:
            raise ValueError(f"{num!r} is not divisible by {den!r}")
        c = head // top
        quot[i] = c
        if c:
            for j, d in enumerate(div):
                rem[i + j] -= c * d
    if any(rem):
        raise ValueError(f"{num!r} is not divisible by {den!r}")
    return LaurentPoly(num.min_degree - den.min_degree, quot)
