"""Per-layer self time and call counts for knotfog, taken from outside it.

A span opens when a registered knotfog function is entered and closes
when it returns, normally or by an exception.  A span's self time is its
duration minus the time covered by the spans it opened, so nested and
recursive calls are not counted twice and a layer's figure excludes the
layers it calls.  Time in unregistered functions (helpers, dataclass
methods, the stdlib) counts toward the nearest registered caller.

Functions are matched by code object under `sys.settrace`, which sees
every binding of a function (the module attribute, `from m import f`
copies, recursion) without adding interpreter frames, so the recursion
limit bites at the same depth as in an untraced run.  Nothing in
knotfog is modified.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

# span -> functions as (module, attribute path).  The enumerator is the
# function behind min_basis_bound's lru_cache, so only cache misses count.
# schubert_bound is left to its caller, the enumerator.
SPANS = {
    "laurent.mul": [("laurent", "LaurentPoly.__mul__")],
    "laurent.pow": [("laurent", "LaurentPoly.__pow__")],
    "laurent.str": [("laurent", "LaurentPoly.__str__")],
    "laurent.evaluate": [("laurent", "LaurentPoly.evaluate")],
    "laurent.exact_div": [("laurent", "exact_div")],
    "seifert.det": [("seifert", "alexander_polynomial")],
    "seifert.change_basis": [("seifert", "change_basis")],
    "seifert.symplectic": [("seifert", "random_symplectic")],
    "knotlang.parse": [("knotlang", "parse")],
    "knotlang.validate": [("knotlang", "validate")],
    "knotlang.render": [("knotlang", "render")],
    "classical.facts": [("classical", name) for name in (
        "facts_of", "genus_of", "trivial_of", "alexander_of", "slice_of",
        "class_r_of", "satellite_of_first")],
    "firstorder.fog": [("firstorder", "first_order_genus")],
    "firstorder.enum": [("firstorder", "min_basis_bound.__wrapped__")],
    "cli.serialize": [("cli", "Report.to_json"), ("cli", "render_report"),
                      ("json", "dumps")],
}

# Largest value seen at entry, by function: the enumerator's search
# radius and the size of a Seifert matrix whose determinant is taken.
PROBES = {
    "firstorder.min_basis_bound.__wrapped__":
        lambda f: f["g_alpha"] + max(1, f["g_beta"]),
    "seifert.alexander_polynomial": lambda f: f["V"].size,
}


class SelfTimer:
    """Self time per span name and call count per function, from enter/exit events."""

    def __init__(self):
        self._stack: list[list] = []  # [span, start, time covered by children]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def enter(self, span: str, function: str, now: float) -> None:
        self._stack.append([span, now, 0.0])
        self.calls[function] = self.calls.get(function, 0) + 1

    def exit(self, now: float) -> None:
        span, start, covered = self._stack.pop()
        duration = now - start
        self.self_s[span] = self.self_s.get(span, 0.0) + duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def note(self, function: str, value: int) -> None:
        if value > self.maxima.get(function, value - 1):
            self.maxima[function] = value

    def to_json(self) -> dict:
        return {"self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
                "calls": self.calls, "maxima": self.maxima}


def registry() -> dict:
    """code object -> (span, function key, probe) for every function in SPANS."""
    table = {}
    for span, targets in SPANS.items():
        for module_name, path in targets:
            module = importlib.import_module(
                module_name if module_name == "json" else f"knotfog.{module_name}")
            obj = module
            for part in path.split("."):
                obj = getattr(obj, part)
            key = f"{module_name}.{path}"
            table[obj.__code__] = (span, key, PROBES.get(key))
    return table


@contextlib.contextmanager
def tracing(timer: SelfTimer, table: dict):
    clock = time.perf_counter

    def on_return(frame, event, arg):
        if event == "return":
            timer.exit(clock())
        return on_return

    def on_call(frame, event, arg):
        entry = table.get(frame.f_code)
        if entry is None:
            return None
        span, key, probe = entry
        frame.f_trace_lines = False
        if probe is not None:
            timer.note(key, probe(frame.f_locals))
        timer.enter(span, key, clock())
        return on_return

    sys.settrace(on_call)
    try:
        yield timer
    finally:
        sys.settrace(None)
