"""knotfog: exact knot invariants and certified first-order genus intervals.

A small compositional knot-construction language (unknot, trefoil,
figure-eight, a ribbon pretzel family, untwisted Whitehead doubles, a
doubly-companioned satellite construction, opaque atoms, connected
sums) together with exact-arithmetic engines deriving classical
invariants and interval bounds for the first-order genus, every bound
carrying the name of the rule that produced it.

The names below are imported from their home modules on first use
(PEP 562), so `import knotfog` loads no submodule and a CLI process
loads only the modules its command needs.
"""

# Each public name and the module it lives in.
_EXPORTS = {
    **dict.fromkeys((
        "KnotFacts", "Provenance", "alexander_of", "class_r_of", "facts_of",
        "genus_of", "satellite_of_first", "slice_of", "trivial_of"), "classical"),
    **dict.fromkeys((
        "BasisWitness", "BoundRecord", "FirstOrderResult", "IntInterval",
        "WeakGropeCertificate", "first_order_genus", "min_basis_bound"), "firstorder"),
    **dict.fromkeys((
        "Atom", "Fig8", "Kfam", "KnotExpr", "Ksat", "ParseError", "Sum", "Trefoil",
        "TriState", "Unknot", "Wh0", "parse", "render", "validate"),
        "knotlang"),
    **dict.fromkeys(("LaurentPoly", "ONE", "ZERO", "unit_equivalent"), "laurent"),
    **dict.fromkeys((
        "BasisChange", "SeifertMatrix", "alexander_polynomial", "change_basis",
        "intersection_form", "random_symplectic", "standard_form", "theta"), "seifert"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:  # also how `from knotfog import seifert` finds a submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
