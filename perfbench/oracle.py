"""Checks of knotfog answers that do not use knotfog.

`parse_report` reads either output form of `knotfog invariants`, and
`check` compares it with the `Expect` the generator attached to the
request.  `fraction_det` is an exact determinant over the rationals for
the Seifert workload.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import Expect

_TERM = re.compile(r"(-?)(\d*)(?:t(?:\^(-?\d+))?)?")


def parse_poly(s: str) -> tuple[int, list[int]]:
    """'2t^2 - 5t + 2' -> (min_degree, dense coefficients from the lowest exponent)."""
    terms: dict[int, int] = {}
    for part in s.replace(" - ", " + -").split(" + "):
        m = _TERM.fullmatch(part)
        if m is None or part in ("", "-"):
            raise ValueError(f"bad polynomial term {part!r}")
        sign, digits, exp = m.groups()
        has_t = "t" in part
        coeff = int(digits) if digits else 1
        power = int(exp) if exp is not None else (1 if has_t else 0)
        terms[power] = terms.get(power, 0) + (-coeff if sign else coeff)
    lo, hi = min(terms), max(terms)
    return lo, [terms.get(k, 0) for k in range(lo, hi + 1)]


def _interval(s: str) -> tuple[int, int | None]:
    lo, hi = s.strip("[]").split(", ")
    return int(lo), None if hi == "inf" else int(hi)


def parse_report(stdout: str, as_json: bool) -> dict:
    """expression, genus, alexander ((min_degree, coeffs) or None), g1, warnings."""
    if as_json:
        data = json.loads(stdout)
        facts, fog = data["facts"], data["first_order_genus"]
        alex = facts["alexander"]
        return {
            "expression": data["expression"],
            "genus": (facts["genus"]["lo"], facts["genus"]["hi"]),
            "alexander": None if alex == "unknown" else (alex["min_degree"], alex["coeffs"]),
            "g1": (fog["lo"], fog["hi"]),
            "warnings": data["warnings"],
        }
    lines = stdout.rstrip("\n").split("\n")
    fields = {}
    for line in lines:
        if line.startswith("  ") or line.startswith("g1 bounds:") or line.startswith("warnings"):
            continue
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    start = next(i for i, line in enumerate(lines) if line.startswith("warnings"))
    warnings = [] if lines[start] == "warnings: none" else [w[2:] for w in lines[start + 1:]]
    alex = fields["alexander"]
    return {
        "expression": lines[0][len("expression   "):],
        "genus": _interval(fields["genus"]),
        "alexander": None if alex == "unknown" else parse_poly(alex),
        "g1": _interval(fields["g1"]),
        "warnings": warnings,
    }


def evaluate(min_degree: int, coeffs: list[int], x: int) -> Fraction:
    """Horner evaluation of sum_k coeffs[k] * x^(min_degree + k)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return Fraction(acc) * Fraction(x) ** min_degree


def check(request, report: dict) -> list[str]:
    """Every way the report disagrees with what the request's oracle knows."""
    e: Expect = request.expect
    bad = []
    if report["expression"] != request.text:
        bad.append("expression does not echo the canonical input")
    if tuple(report["genus"]) != e.genus:
        bad.append(f"genus {report['genus']} != {e.genus}")
    alex = report["alexander"]
    if e.alex == "unknown":
        if alex is not None:
            bad.append("alexander polynomial given where no rule applies")
    elif alex is None:
        bad.append("alexander polynomial missing")
    elif e.alex == "one":
        if alex[0] != 0 or list(alex[1]) != [1]:
            bad.append(f"alexander {alex} != 1")
    else:
        for x, want in e.alex:
            if evaluate(alex[0], alex[1], x) != want:
                bad.append(f"alexander at t={x} disagrees")
    lo, hi = report["g1"]
    if e.exact_g1:
        if (lo, hi) != (e.g1_lo_min, e.g1_hi):
            bad.append(f"g1 {(lo, hi)} != {(e.g1_lo_min, e.g1_hi)}")
    else:
        if lo < e.g1_lo_min:
            bad.append(f"g1 lower bound {lo} below {e.g1_lo_min}")
        if hi != e.g1_hi:
            bad.append(f"g1 upper bound {hi} != {e.g1_hi}")
    if len(report["warnings"]) != e.warnings:
        bad.append(f"{len(report['warnings'])} warnings, expected {e.warnings}")
    return bad


def max_coeff_digits(report: dict) -> int:
    alex = report["alexander"]
    return 0 if alex is None else max(len(str(abs(c))) for c in alex[1])


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [list(map(Fraction, row)) for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            if factor:
                row_k, row_i = m[k], m[i]
                for j in range(k + 1, n):
                    if row_k[j]:
                        row_i[j] -= factor * row_k[j]
    return det


def seifert_at(v: list[list[int]], x: int) -> Fraction:
    """det(V - x V^T)."""
    n = len(v)
    return fraction_det([[v[i][j] - x * v[j][i] for j in range(n)] for i in range(n)])
