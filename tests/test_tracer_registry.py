"""The benchmark's layer tracer finds every knotfog function it times.

`perfbench/tracer.registry()` looks its functions up by module and
attribute path, so a refactor that removes or renames one (such as
`knotlang.parse`, `knotlang.render`, `cli.Report.to_json` or
`cli.render_report`) breaks every traced benchmark run.  This test only
imports perfbench's tracer and changes nothing there.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_registry_resolves_every_span():
    tracer = load_tracer()
    table = tracer.registry()
    keys = {key for _span, key, _probe in table.values()}
    wanted = {f"{module}.{path}" for targets in tracer.SPANS.values() for module, path in targets}
    assert keys == wanted
    assert {"knotlang.parse", "knotlang.render", "cli.Report.to_json",
            "cli.render_report"} <= keys
