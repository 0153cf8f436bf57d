"""Tests of the benchmark itself: generators, oracles and self-time arithmetic.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import calibrate
import oracle
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _kfam_coeffs(n):
    """(2t - 1)^n (t - 2)^n, ascending, by the binomial theorem."""
    a = [math.comb(n, k) * 2 ** k * (-1) ** (n - k) for k in range(n + 1)]
    b = [math.comb(n, k) * (-2) ** (n - k) for k in range(n + 1)]
    return _poly_mul(a, b)


def _request(node, expect):
    return workloads._request(node, True, expect)


def _report(req, genus, alexander, g1, warnings=()):
    return {"expression": req.text, "genus": genus, "alexander": alexander,
            "g1": g1, "warnings": list(warnings)}


# -- generators -----------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.CLI_ROUNDS))
def test_same_seed_same_requests(workload):
    assert workloads.cli_round(workload, 7) == workloads.cli_round(workload, 7)
    assert workloads.limit_probes(workload, 7) == workloads.limit_probes(workload, 7)
    assert workloads.cli_round(workload, 7) != workloads.cli_round(workload, 8)


def test_same_seed_same_seifert_inputs():
    make = lambda seed: workloads.seifert_round(workloads.rng_for("seifert-det", seed))
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_chains_of_one_length_hold_the_same_leaves():
    # The seed only orders the leaves and names the atoms.
    def mix(seed, length, atoms):
        terms = workloads._chain(workloads.rng_for("t", seed), length, atoms, True).text
        leaves = [t.split("(", 1)[1].split(",", 1)[1] if t.startswith("atom(") else t
                  for t in terms.split(" # ")]
        return sorted(leaves), terms
    for length, atoms in ((90, True), (120, False)):
        (a, text_a), (b, text_b) = mix(1, length, atoms), mix(2, length, atoms)
        assert a == b and text_a != text_b


def test_seifert_percentiles_fall_inside_a_band():
    specs = workloads.seifert_round(workloads.rng_for("seifert-det", 3))
    assert len(specs) == 40
    size = lambda s: s["n"] if s["kind"] == "theta" else s["g"]
    # Nearest-rank p50 is rank 20 and p90 rank 36: the middle of the
    # genus-8 band (ranks 13-28) and of the dear band (ranks 33-40).
    assert sum(s["kind"] == "moved" and s["g"] == 8 for s in specs) == 16
    assert sorted(size(s) for s in specs if s["kind"] == "theta")[-8:] == [16] * 6 + [18, 20]


def test_scaler_uses_the_probes_on_both_sides():
    probes = iter([0.001, 0.002, 0.003, 0.004, 0.005, 0.006])
    scaler = calibrate.Scaler(per_side=2, probe=lambda: next(probes), reference=0.003)
    # Around the first operation: 1, 2 before and 3, 4 after; median 2.5 ms.
    assert scaler.scaled(1.0) == pytest.approx(0.003 / 0.0025)
    # Around the second: 3, 4 and 5, 6; median 4.5 ms.
    assert scaler.scaled(2.0) == pytest.approx(2 * 0.003 / 0.0045)


def test_half_of_each_round_uses_json():
    for workload in workloads.CLI_ROUNDS:
        reqs = workloads.cli_round(workload, 3)
        assert sum(r.json for r in reqs) == len(reqs) // 2


def test_every_request_fits_one_exec_argument():
    for seed in range(5):
        for workload in workloads.CLI_ROUNDS:
            for req in workloads.cli_round(workload, seed) + workloads.limit_probes(workload, seed):
                assert len(req.text.encode()) <= workloads.MAX_ARG_BYTES


def test_oversized_doubling_trees_are_refused():
    atom = ("atom", "A", 1, "no", "no", "unknown")
    for depth, leaf in ((12, atom), (14, ("kfam", 1))):
        with pytest.raises(ValueError, match="exec argument limit"):
            workloads._request(workloads.doubling(leaf, depth), True, None)


def test_shape_counts_the_parsed_binary_tree():
    d = workloads.doubling(("fig8",), 3)
    assert workloads.shape(d) == (15, 4, 4)
    chain = ("sum", (("trefoil",), ("wh0", ("fig8",), "-"), ("trefoil",)))
    # Sum(Sum(trefoil, wh0(fig8)), trefoil): 6 nodes; distinct: 2 sums,
    # trefoil, wh0(fig8), fig8; depth: sum, sum, wh0, fig8.
    assert workloads.shape(chain) == (6, 5, 4)


# -- oracles --------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 7))
def test_kfam_oracle_agrees_with_the_binomial_expansion(n):
    req = _request(("kfam", n), workloads.kfam_expect(n))
    coeffs = _kfam_coeffs(n)
    assert oracle.check(req, _report(req, (n, n), (0, coeffs), (2 * n, None))) == []
    coeffs[n] += 1
    assert oracle.check(req, _report(req, (n, n), (0, coeffs), (2 * n, None)))
    assert oracle.check(req, _report(req, (n, n), (0, _kfam_coeffs(n)), (2 * n - 1, None)))


def test_kfam_expansion_small_cases():
    assert _kfam_coeffs(1) == [2, -5, 2]
    assert _kfam_coeffs(2) == [4, -20, 33, -20, 4]


def test_chain_oracle_trefoil_fig8():
    terms = (("trefoil",), ("fig8",))
    req = _request(("sum", terms), workloads.chain_expect(terms))
    # (t^2 - t + 1)(t^2 - 3t + 1) = t^4 - 4t^3 + 5t^2 - 4t + 1
    good = _report(req, (2, 2), (0, [1, -4, 5, -4, 1]), (4, 4))
    assert oracle.check(req, good) == []
    assert oracle.check(req, {**good, "alexander": (0, [1, -4, 6, -4, 1])})
    assert oracle.check(req, {**good, "g1": (4, None)})
    assert oracle.check(req, {**good, "genus": (1, 2)})
    assert oracle.check(req, {**good, "g1": (3, 4)})


def test_chain_oracle_with_an_atom_knows_no_polynomial():
    terms = (("trefoil",), ("atom", "A", 2, "no", "no", "yes"))
    req = _request(("sum", terms), workloads.chain_expect(terms))
    assert oracle.check(req, _report(req, (3, 3), None, (6, None))) == []
    assert oracle.check(req, _report(req, (3, 3), (0, [1]), (6, None)))


def test_satellite_oracle_ksat_of_pretzels():
    # g1(ksat(kfam(1), kfam(2), 0, 0)) = g(J) + g(L) = 3.
    node = ("ksat", ("kfam", 1), ("kfam", 2), 0, 0)
    req = _request(node, workloads.companion_expect(3))
    assert oracle.check(req, _report(req, (1, 1), (0, [1]), (3, 3))) == []
    assert oracle.check(req, _report(req, (1, 1), (0, [1]), (3, None)))


def test_doubling_oracle_counts_warnings():
    rng = workloads.rng_for("test", 0)
    req = workloads.satellite_request(rng, 3, "fig8", "wh0", 10, True)
    good = _report(req, (2, 2), (0, [1]), (4, None), ["w"] * 6)
    assert oracle.check(req, good) == []
    assert oracle.check(req, {**good, "warnings": ["w"] * 5})


def test_parse_poly_reads_the_table_form():
    assert oracle.parse_poly("2t^2 - 5t + 2") == (0, [2, -5, 2])
    assert oracle.parse_poly("-t^3 + 1") == (0, [1, 0, 0, -1])
    assert oracle.parse_poly("t") == (1, [1])


@pytest.mark.parametrize("n", range(1, 5))
def test_seifert_oracle_on_theta(n):
    # det(theta(n) - x theta(n)^T) = (-2x^2 + 5x - 2)^n.
    for x in (2, 3, -1):
        assert oracle.seifert_at(workloads.theta_rows(n), x) == (-2 * x * x + 5 * x - 2) ** n


def test_fraction_det_pivots():
    assert oracle.fraction_det([[0, 1], [1, 0]]) == -1
    assert oracle.fraction_det([[2, 1], [4, 2]]) == 0
    assert oracle.fraction_det([[Fraction(1, 2), 0], [0, 4]]) == 2


def test_standard_seifert_matrices_have_the_standard_form():
    v = workloads.standard_seifert(workloads.rng_for("test", 1), 3)
    form = [[v[i][j] - v[j][i] for j in range(6)] for i in range(6)]
    for k in range(3):
        assert form[2 * k][2 * k + 1] == 1 and form[2 * k + 1][2 * k] == -1
    assert sum(abs(x) for row in form for x in row) == 6


# -- timing arithmetic -------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    # A[0,10] holds B[1,4] (holding C[2,3]) and B[5,9] (holding A[6,8]).
    timeline = [("A", 0), ("B", 1), ("C", 2), 3, 4, ("B", 5), ("A", 6), 8, 9, 10]
    timer = tracer.SelfTimer()
    for event in timeline:
        if isinstance(event, tuple):
            timer.enter(event[0], event[0], event[1])
        else:
            timer.exit(event)
    # A: 10 - (3 + 4) + (8 - 6); B: (3 - 1) + (4 - 2); C: 1.
    assert timer.self_s == {"A": 5, "B": 4, "C": 1}
    assert timer.calls == {"A": 2, "B": 2, "C": 1}


def test_failures_miss_every_latency_limit():
    ops = [{"seconds": s / 10, "fail": None} for s in range(1, 10)]
    assert run.latency_metrics(ops)["latency_p90_ms"] == pytest.approx(900)
    ops.append({"seconds": 0.001, "fail": "RecursionError"})
    m = run.latency_metrics(ops)
    assert m["latency_p50_ms"] == pytest.approx(500)
    assert m["latency_p90_ms"] == pytest.approx(900)
    ops.append({"seconds": 0.001, "fail": "Timeout"})
    assert run.latency_metrics(ops)["latency_p90_ms"] == run.TIMEOUT_S * 1e3


def test_failure_class_reads_the_exception():
    err = b"Traceback (most recent call last):\n  ...\nknotfog.firstorder.CapInsufficientError: cap\n"
    assert run.failure_class(run.Outcome(0.1, 1, b"", err, False)) == "CapInsufficientError"
    assert run.failure_class(run.Outcome(0.1, 2, b"", b"parse error", False)) == "exit 2"
    assert run.failure_class(run.Outcome(9.0, None, b"", b"", True)) == "Timeout"
    assert run.failure_class(run.Outcome(0.1, 0, b"ok", b"", False)) is None


# -- against the real CLI -----------------------------------------------------------


def _cli(text, as_json):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "knotfog.cli", "invariants", text] + (["--json"] if as_json else [])
    return subprocess.run(argv, capture_output=True, env=env, timeout=60, check=True).stdout.decode()


@pytest.mark.parametrize("as_json", [True, False])
def test_oracles_accept_the_cli_on_small_cases(as_json):
    cases = [_request(("kfam", n), workloads.kfam_expect(n)) for n in range(1, 7)]
    terms = (("trefoil",), ("fig8",))
    cases.append(_request(("sum", terms), workloads.chain_expect(terms)))
    cases.append(_request(("ksat", ("kfam", 1), ("kfam", 2), 0, 0), workloads.companion_expect(3)))
    for req in cases:
        report = oracle.parse_report(_cli(req.text, as_json), as_json)
        assert oracle.check(req, report) == [], req.text


def test_traced_runner_prints_what_the_cli_prints(tmp_path):
    text = "trefoil # wh0(kfam(2)) # ksat(fig8, fig8, 0, 0)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), str(out),
                             "invariants", text, "--json"],
                            capture_output=True, env=env, timeout=60, check=True)
    assert traced.stdout.decode() == _cli(text, True)
    trace = json.loads(out.read_text())
    # Sum(Sum(trefoil, wh0), ksat) is visited once per node by the first-order engine.
    assert trace["calls"]["firstorder.first_order_genus"] == 5
    assert trace["maxima"]["firstorder.min_basis_bound.__wrapped__"] == 3
    assert trace["import_ms"] > 0
