"""`knotfog invariants` under the layer tracer, in a fresh process.

    PYTHONPATH=src python perfbench/traced_cli.py TRACE_OUT invariants EXPR [--json]

Prints exactly what `python -m knotfog.cli invariants EXPR [--json]`
prints, exits with the same code, and writes the import time and the
per-layer self times and counts as JSON to TRACE_OUT, also when the
command raises.
"""

import json
import sys
import time

import tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from knotfog import cli
    import_ms = (time.perf_counter() - start) * 1e3
    timer = tracer.SelfTimer()
    table = tracer.registry()
    try:
        with tracer.tracing(timer, table):
            return cli.main(argv)
    finally:
        with open(out_path, "w") as f:
            json.dump({"import_ms": import_ms, **timer.to_json()}, f)


if __name__ == "__main__":
    sys.exit(main())
