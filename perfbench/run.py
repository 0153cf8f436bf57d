"""The knotfog benchmark: cold-process `knotfog invariants` latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a knotfog checkout; it uses the working tree's
`src/` (nothing needs to be installed).  Workloads: pretzel-power,
sum-chain, satellite-tree (one fresh `python -m knotfog.cli invariants`
process per request, one request at a time) and seifert-det (an
in-process loop over `seifert.alexander_polynomial`).  See README.md.

With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics, with times scaled to a reference machine speed (see
calibrate.py); with --trace 1 it holds the per-layer metrics of a
traced run of the same requests.  Exit status 2 means the checkout has
no knotfog source.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import dataclasses
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import oracle
import workloads

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 20.0         # per untraced request; a request past it has failed
TRACED_TIMEOUT_S = 45.0  # per traced request
STOP_STARTING_S = 80.0   # no operation starts later than this into the loop
SETUP_SAMPLES = 21       # fresh imports per run, half before the loop, half after
CLOCK = time.perf_counter


@dataclasses.dataclass
class Outcome:
    seconds: float
    code: int | None
    stdout: bytes
    stderr: bytes
    timed_out: bool


def spawn(argv: list[str], env: dict, timeout: float) -> Outcome:
    """Run one process to completion; wall time is spawn to exit."""
    start = CLOCK()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    return Outcome(CLOCK() - start, proc.returncode, out, err, timed_out)


def failure_class(o: Outcome) -> str | None:
    """None for a clean exit; otherwise the exception class, 'Timeout' or 'exit N'."""
    if o.timed_out:
        return "Timeout"
    err = o.stderr.decode(errors="replace")
    if "Traceback (most recent call last)" in err:
        last = err.strip().splitlines()[-1]
        m = re.match(r"([\w.]+)", last)
        return m.group(1).rsplit(".", 1)[-1] if m else "Traceback"
    return None if o.code == 0 else f"exit {o.code}"


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- environment ----------------------------------------------------------------


class Bench:
    def __init__(self, root: Path, seconds: float, trace: bool):
        self.seconds, self.trace = seconds, trace
        self.tmp = root / ".perfbench_work" / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        pycache = root / ".perfbench_work" / "pycache"
        # Children see only these Python settings.  Bytecode lives in a
        # cache beside the source tree, not in src/; the warm-up runs
        # below fill it (stdlib included) and timed runs only read it.
        warm = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        warm.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=str(pycache))
        self.env = {**warm, "PYTHONDONTWRITEBYTECODE": "1"}
        self.py = sys.executable
        sys.pycache_prefix = str(pycache)
        compileall.compile_dir(str(root / "src"), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1)
        for argv in (self.cli_argv("unknot", True), self.cli_argv("unknot", False),
                     self.traced_argv("unknot", True), [self.py, "-c", "import hashlib"]):
            spawn(argv, warm, TRACED_TIMEOUT_S)

    def cli_argv(self, text: str, as_json: bool) -> list[str]:
        return [self.py, "-m", "knotfog.cli", "invariants", text] + (["--json"] if as_json else [])

    def traced_argv(self, text: str, as_json: bool) -> list[str]:
        return [self.py, str(HERE / "traced_cli.py"), str(self.tmp / "trace.json"),
                "invariants", text] + (["--json"] if as_json else [])

    def setup_seconds(self, count: int) -> list[tuple[float, float]]:
        """Interpreter start plus `import knotfog.cli`, each in a fresh process:
        (measured, at reference speed) pairs."""
        argv, bare = [self.py, "-c", "import knotfog.cli"], [self.py, "-c", "pass"]
        scaler = calibrate.Scaler(per_side=1, probe=lambda: spawn(bare, self.env, TIMEOUT_S).seconds,
                                  reference=calibrate.START_REFERENCE_S)
        out = []
        for _ in range(count):
            seconds = spawn(argv, self.env, TIMEOUT_S).seconds
            out.append((seconds, scaler.scaled(seconds)))
        return out


def peak_child_rss_mb() -> float:
    # Linux reports kilobytes; the maximum is over every child waited for.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- the CLI workloads ------------------------------------------------------------------


def keep_going(start: float, passes: int, last: float, seconds: float, min_passes: int) -> bool:
    elapsed = CLOCK() - start
    if elapsed > STOP_STARTING_S:
        return False
    return passes < min_passes or elapsed + last <= seconds


def run_cli(bench: Bench, reqs: list) -> dict:
    """Whole passes over the round, closed loop, one request at a time.

    Untraced runs make at least two passes, so every request is repeated
    and its bytes compared; traced runs follow each request with the
    traced runner and compare its bytes with the CLI's.
    """
    ops, first, reports = [], {}, {}
    scaler = calibrate.Scaler(per_side=3)
    start, passes, last = CLOCK(), 0, 0.0
    while keep_going(start, passes, last, bench.seconds, 1 if bench.trace else 2):
        pass_start = CLOCK()
        for i, req in enumerate(reqs):
            if CLOCK() - start > STOP_STARTING_S:
                break
            o = spawn(bench.cli_argv(req.text, req.json), bench.env, TIMEOUT_S)
            scaled = scaler.scaled(o.seconds)
            fail = failure_class(o)
            if fail is None and first.setdefault(i, o.stdout) != o.stdout:
                fail = "NondeterministicOutput"
            op = {"i": i, "seconds": scaled, "measured": o.seconds, "fail": fail,
                  "output_bytes": len(o.stdout)}
            if bench.trace:
                t = spawn(bench.traced_argv(req.text, req.json), bench.env, TRACED_TIMEOUT_S)
                scaler.scaled(t.seconds)  # fresh probes before the next request
                op["traced_seconds"] = t.seconds
                if fail is None and (t.code != 0 or t.stdout != o.stdout):
                    op["fail"] = "TracedOutputDiffers"
                elif fail is None:
                    op["trace"] = json.loads((bench.tmp / "trace.json").read_text())
            ops.append(op)
        passes += 1
        last = CLOCK() - pass_start
    peak = peak_child_rss_mb()
    for i, stdout in first.items():
        req = reqs[i]
        try:
            report = oracle.parse_report(stdout.decode(), req.json)
            wrong = oracle.check(req, report)
        except (ValueError, KeyError, StopIteration) as exc:
            report, wrong = None, [f"unreadable output: {exc!r}"]
        reports[i] = report
        if wrong:
            print(f"oracle mismatch on request {i}: {'; '.join(wrong)}", file=sys.stderr)
            for op in ops:
                if op["i"] == i and op["fail"] is None:
                    op["fail"] = "OracleMismatch"
    return {"ops": ops, "peak_rss_mb": peak, "reports": reports}


def run_probes(bench: Bench, probes: list) -> tuple[list[str], bool]:
    """Run inputs past an engine limit once each, outside the measured loop."""
    lines, correct = [], True
    for req in probes:
        o = spawn(bench.cli_argv(req.text, req.json), bench.env, TIMEOUT_S)
        fail = failure_class(o)
        if fail is None:
            wrong = oracle.check(req, oracle.parse_report(o.stdout.decode(), req.json))
            correct = correct and not wrong
            fail = "answered, " + ("disagrees with the oracle" if wrong else "correct")
        lines.append(f"limit probe ({req.nodes} nodes, {len(req.text)} chars): {fail}")
    return lines, correct


# -- the seifert-det workload ------------------------------------------------------------


def run_seifert(bench: Bench, specs: list[dict]) -> dict:
    job = {"inputs": specs, "seconds": bench.seconds, "trace": int(bench.trace),
           "min_passes": 2, "deadline": STOP_STARTING_S}
    job_path, out_path = bench.tmp / "seifert_job.json", bench.tmp / "seifert_out.json"
    job_path.write_text(json.dumps(job))
    o = spawn([bench.py, str(HERE / "seifert_worker.py"), str(job_path), str(out_path)],
              bench.env, STOP_STARTING_S + 60)
    fail = failure_class(o)
    if fail is not None:
        print(o.stderr.decode(errors="replace"), file=sys.stderr)
        return {"ops": [{"i": -1, "seconds": math.inf, "measured": math.inf, "fail": fail}],
                "peak_rss_mb": peak_child_rss_mb(), "traces": [], "import_ms": 0.0,
                "polys": []}
    result = json.loads(out_path.read_text())
    wrong, known = set(), {}
    for i, spec in enumerate(specs):
        matrix, (min_degree, coeffs) = result["matrices"][i], result["polys"][i]
        checks = [(matrix, x) for x in (2, 3, -1)]
        if spec["kind"] == "theta" and matrix != spec["V"]:
            wrong.add(i)
        checks.append((spec["V"], 2))  # congruence by a unimodular P keeps det
        for rows, x in checks:
            # A round repeats some theta(n); each determinant is computed once.
            key = (json.dumps(rows), x)
            if key not in known:
                known[key] = oracle.seifert_at(rows, x)
            if oracle.evaluate(min_degree, coeffs, x) != known[key]:
                wrong.add(i)
    digests = {}
    ops = []
    for i, seconds, scaled, digest, traced in result["calls"]:
        fail = "OracleMismatch" if i in wrong else None
        if digests.setdefault(i, digest) != digest:
            fail = "NondeterministicOutput"
        ops.append({"i": i, "seconds": scaled, "measured": seconds, "fail": fail,
                    "traced": traced})
    return {"ops": ops, "peak_rss_mb": peak_child_rss_mb(),
            "traces": result["traces"], "import_ms": result["import_ms"],
            "polys": result["polys"]}


# -- metrics ------------------------------------------------------------------------


def latency_metrics(ops: list[dict]) -> dict:
    """Nearest-rank p50/p90; a failed operation misses every limit."""
    values = [math.inf if op["fail"] else op["seconds"] for op in ops]
    out = {}
    for name, q in (("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)):
        v = nearest_rank(values, q)
        # JSON has no infinity: a percentile that lands on a failure reads
        # as the request timeout, above any successful request.
        out[name] = (TIMEOUT_S if math.isinf(v) else v) * 1e3
    return out


PER_LAYER_UNITS = {
    "laurent.pow_ms": "ms", "laurent.mul_ms": "ms", "laurent.mul_calls": "count",
    "laurent.str_ms": "ms", "laurent.evaluate_ms": "ms", "laurent.max_coeff_digits": "digits",
    "laurent.exact_div_ms": "ms", "laurent.exact_div_calls": "count",
    "seifert.det_ms": "ms", "seifert.det_calls": "count", "seifert.change_basis_ms": "ms",
    "seifert.symplectic_ms": "ms", "seifert.matrix_size": "rows",
    "knotlang.parse_ms": "ms", "knotlang.validate_ms": "ms", "knotlang.render_ms": "ms",
    "knotlang.input_chars": "chars", "knotlang.nodes": "count",
    "knotlang.distinct_ratio": "ratio", "knotlang.max_depth": "nodes",
    "knotlang.warnings": "count",
    "classical.facts_ms": "ms", "classical.visits": "count",
    "classical.visits_per_node": "ratio",
    "firstorder.fog_ms": "ms", "firstorder.fog_visits": "count",
    "firstorder.visits_per_node": "ratio",
    "firstorder.enum_ms": "ms", "firstorder.enum_calls": "count",
    "firstorder.enum_radius_max": "count",
    "cli.serialize_ms": "ms", "cli.output_bytes": "bytes",
    "startup.import_ms": "ms", "trace.overhead_ratio": "ratio",
}
VISITS = ("genus_of", "trivial_of", "alexander_of", "slice_of", "class_r_of")


def layer_metrics(records: list[dict], overhead: float) -> dict:
    """Per-layer figures from traced requests.

    Each record holds one request's tracer output ("self_ms", "calls",
    "maxima", "import_ms") and the benchmark's own counts of it.  Times
    and counts are means per request, maxima are over requests, ratios
    are of totals.
    """
    n = max(1, len(records))

    def mean(get) -> float:
        return sum(get(r) for r in records) / n

    def self_ms(span):
        return mean(lambda r: r["self_ms"].get(span, 0.0))

    def calls(*keys):
        return sum(r["calls"].get(k, 0) for r in records for k in keys)

    def top(get):
        return max((get(r) for r in records), default=0)

    nodes = sum(r["nodes"] for r in records)
    visits = calls(*(f"classical.{v}" for v in VISITS))
    fog_visits = calls("firstorder.first_order_genus")
    m = {
        "laurent.pow_ms": self_ms("laurent.pow"),
        "laurent.mul_ms": self_ms("laurent.mul"),
        "laurent.mul_calls": calls("laurent.LaurentPoly.__mul__") / n,
        "laurent.str_ms": self_ms("laurent.str"),
        "laurent.evaluate_ms": self_ms("laurent.evaluate"),
        "laurent.max_coeff_digits": top(lambda r: r["coeff_digits"]),
        "laurent.exact_div_ms": self_ms("laurent.exact_div"),
        "laurent.exact_div_calls": calls("laurent.exact_div") / n,
        "seifert.det_ms": self_ms("seifert.det"),
        "seifert.det_calls": calls("seifert.alexander_polynomial") / n,
        "seifert.change_basis_ms": self_ms("seifert.change_basis"),
        "seifert.symplectic_ms": self_ms("seifert.symplectic"),
        "seifert.matrix_size": top(lambda r: r["maxima"].get("seifert.alexander_polynomial", 0)),
        "knotlang.parse_ms": self_ms("knotlang.parse"),
        "knotlang.validate_ms": self_ms("knotlang.validate"),
        "knotlang.render_ms": self_ms("knotlang.render"),
        "knotlang.input_chars": mean(lambda r: r["input_chars"]),
        "knotlang.nodes": nodes / n,
        "knotlang.distinct_ratio": sum(r["distinct"] for r in records) / nodes if nodes else 0.0,
        "knotlang.max_depth": top(lambda r: r["depth"]),
        "knotlang.warnings": mean(lambda r: r["warnings"]),
        "classical.facts_ms": self_ms("classical.facts"),
        "classical.visits": visits / n,
        "classical.visits_per_node": visits / nodes if nodes else 0.0,
        "firstorder.fog_ms": self_ms("firstorder.fog"),
        "firstorder.fog_visits": fog_visits / n,
        "firstorder.visits_per_node": fog_visits / nodes if nodes else 0.0,
        "firstorder.enum_ms": self_ms("firstorder.enum"),
        "firstorder.enum_calls": calls("firstorder.min_basis_bound.__wrapped__") / n,
        "firstorder.enum_radius_max": top(
            lambda r: r["maxima"].get("firstorder.min_basis_bound.__wrapped__", 0)),
        "cli.serialize_ms": self_ms("cli.serialize"),
        "cli.output_bytes": mean(lambda r: r["output_bytes"]),
        "startup.import_ms": mean(lambda r: r["import_ms"]),
        "trace.overhead_ratio": overhead,
    }
    assert m.keys() == PER_LAYER_UNITS.keys()
    return m


def cli_layer_records(reqs: list, result: dict) -> list[dict]:
    records = []
    for op in result["ops"]:
        if "trace" not in op or op["fail"]:
            continue
        req, report = reqs[op["i"]], result["reports"][op["i"]]
        records.append({**op["trace"], "nodes": req.nodes, "distinct": req.distinct,
                        "depth": req.depth, "input_chars": len(req.text),
                        "warnings": len(report["warnings"]),
                        "coeff_digits": oracle.max_coeff_digits(report),
                        "output_bytes": op["output_bytes"]})
    return records


def seifert_layer_records(result: dict) -> list[dict]:
    digits = [max(len(str(abs(c))) for c in coeffs) for _, coeffs in result["polys"]]
    return [{**t, "import_ms": result["import_ms"], "nodes": 0, "distinct": 0, "depth": 0,
             "input_chars": 0, "warnings": 0, "coeff_digits": max(digits, default=0),
             "output_bytes": 0} for t in result["traces"]]


def overhead_ratio(plain: list[float], traced: list[float]) -> float:
    """Traced median over untraced median, on the same requests."""
    if not plain or not traced:
        return 0.0
    return statistics.median(traced) / statistics.median(plain)


# -- main ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "knotfog" / "cli.py").is_file():
        print(f"perfbench: no knotfog source at {root / 'src' / 'knotfog'}; "
              "run from the root of a knotfog checkout", file=sys.stderr)
        return 2
    # One CPU for the client and every process it starts: the calibration
    # samples then see the same core, at the same moments, as the
    # operations they scale (on a shared host one vCPU may be slowed
    # while the other is not).  The client waits while a request runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = Bench(root, args.seconds, bool(args.trace))
    # Set-up is sampled on both sides of the loop, so a slow spell of the
    # machine at either end moves the median less.
    setup = bench.setup_seconds(SETUP_SAMPLES // 2 + 1)

    probe_lines, probes_correct = [], True
    if args.workload == "seifert-det":
        specs = workloads.seifert_round(workloads.rng_for(args.workload, args.seed))
        result = run_seifert(bench, specs)
        distinct = len(specs)
        records = seifert_layer_records(result)
        ok = [op for op in result["ops"] if not op["fail"]]
        overhead = overhead_ratio([op["measured"] for op in ok if not op["traced"]],
                                  [op["measured"] for op in ok if op["traced"]])
        timed = [op for op in result["ops"] if not op.get("traced")]
    else:
        reqs = workloads.cli_round(args.workload, args.seed)
        result = run_cli(bench, reqs)
        probe_lines, probes_correct = run_probes(
            bench, workloads.limit_probes(args.workload, args.seed))
        distinct = len(reqs)
        records = cli_layer_records(reqs, result)
        pairs = [op for op in result["ops"] if "trace" in op]
        overhead = overhead_ratio([op["measured"] for op in pairs],
                                  [op["traced_seconds"] for op in pairs])
        timed = result["ops"]
    setup += bench.setup_seconds(SETUP_SAMPLES // 2)

    ops = result["ops"]
    failed = [op for op in ops if op["fail"]]
    metrics = {**latency_metrics(timed),
               "setup_s": statistics.median(scaled for _, scaled in setup),
               "peak_rss_mb": result["peak_rss_mb"]}
    raw = {**latency_metrics([{**op, "seconds": op["measured"]} for op in timed]),
           "setup_s": statistics.median(measured for measured, _ in setup)}
    units = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}

    print(f"workload {args.workload}, seed {args.seed}: {distinct} distinct inputs, "
          f"{len(timed)} timed operations, {len(failed)} failed; closed loop, one client")
    print("  times are at reference speed: each operation scaled by calibration "
          "samples taken beside it (calibrate.py)")
    for name, value in metrics.items():
        measured = f"  (measured {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<16} {value:14.4f} {units[name]}{measured}")
    print(f"  {'error_rate':<16} {len(failed) / max(1, len(ops)):14.4f} ratio")
    print(f"  (percentiles are nearest-rank over {len(timed)} operations; "
          f"setup_s is the median of {len(setup)} fresh imports)")
    for name, count in sorted(collections.Counter(op["fail"] for op in failed).items()):
        print(f"  failed: {count} x {name}")
    for line in probe_lines:
        print(f"  {line}")

    if args.trace:
        layer = layer_metrics(records, overhead)
        for name, value in layer.items():
            print(f"  {name:<28} {value:14.4f} {PER_LAYER_UNITS[name]}")
        out = {name: {"value": v, "unit": PER_LAYER_UNITS[name]} for name, v in layer.items()}
    else:
        out = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
    print(json.dumps({"correct": not failed and probes_correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
