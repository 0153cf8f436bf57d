"""The seifert-det workload: an in-process loop over `alexander_polynomial`.

    PYTHONPATH=src python perfbench/seifert_worker.py JOB_IN RESULT_OUT

JOB_IN names the inputs (`theta(n)`, or a standard Seifert matrix moved
by `random_symplectic` and `change_basis`) and the time to spend.  The
loop makes whole passes over the inputs and times each
`alexander_polynomial` call alone.  With tracing on, passes alternate
between untraced and traced; a traced operation also rebuilds its input,
so the basis change shows in the trace.  RESULT_OUT receives the
matrices, the first polynomial per input, and every call's time (as
measured and at reference speed, see calibrate.py) and result digest.
"""

import hashlib
import json
import sys
import time

import calibrate
import tracer


def main() -> int:
    job_path, out_path = sys.argv[1], sys.argv[2]
    with open(job_path) as f:
        job = json.load(f)
    start = time.perf_counter()
    import knotfog.cli  # noqa: F401  (the import a CLI user pays)
    import_ms = (time.perf_counter() - start) * 1e3
    from knotfog import seifert

    def build(spec):
        if spec["kind"] == "theta":
            return seifert.theta(spec["n"])
        moved = seifert.random_symplectic(spec["g"], spec["seed"], spec["length"])
        return seifert.change_basis(seifert.SeifertMatrix(spec["V"]), moved)

    table = tracer.registry() if job["trace"] else None
    specs = job["inputs"]
    matrices = [build(spec) for spec in specs]
    polys: list = [None] * len(specs)
    calls, traces = [], []
    scaler = calibrate.Scaler(per_side=2)
    clock = time.perf_counter
    begin, passes, last = clock(), 0, 0.0
    while passes < job["min_passes"] or clock() - begin + last <= job["seconds"]:
        if clock() - begin > job["deadline"]:
            break
        traced = bool(job["trace"]) and passes % 2 == 1
        pass_start = clock()
        for i, spec in enumerate(specs):
            if traced:
                timer = tracer.SelfTimer()
                with tracer.tracing(timer, table):
                    matrix = build(spec)
                    t0 = clock()
                    poly = seifert.alexander_polynomial(matrix)
                    seconds = clock() - t0
                traces.append(timer.to_json())
            else:
                t0 = clock()
                poly = seifert.alexander_polynomial(matrices[i])
                seconds = clock() - t0
            result = [poly.min_degree, list(poly.coeffs)]
            digest = hashlib.sha256(repr(result).encode()).hexdigest()
            if polys[i] is None:
                polys[i] = result
            calls.append([i, seconds, scaler.scaled(seconds), digest, traced])
        passes += 1
        last = clock() - pass_start
    with open(out_path, "w") as f:
        json.dump({"import_ms": import_ms, "polys": polys, "calls": calls,
                   "traces": traces,
                   "matrices": [[list(row) for row in m.entries] for m in matrices]}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
