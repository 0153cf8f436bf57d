"""knotfog: exact knot invariants and certified first-order genus intervals.

A small compositional knot-construction language (unknot, trefoil,
figure-eight, a ribbon pretzel family, untwisted Whitehead doubles, a
doubly-companioned satellite construction, opaque atoms, connected
sums) together with exact-arithmetic engines deriving classical
invariants and interval bounds for the first-order genus, every bound
carrying the name of the rule that produced it.
"""

from .classical import (IntInterval, KnotFacts, Provenance, alexander_of,
                        class_r_of, facts_of, genus_of, satellite_of_first,
                        schubert_bound, slice_of, trivial_of)
from .firstorder import (BasisWitness, BoundRecord, CertificateCheck,
                         FirstOrderResult, WeakGropeCertificate,
                         check_certificate, first_order_genus, min_basis_bound)
from .knotlang import (Atom, Fig8, Kfam, KnotExpr, Ksat, ParseError, Sum,
                       Trefoil, TriState, Unknot, Wh0, parse, random_expr,
                       render, validate)
from .laurent import LaurentPoly, ONE, T, ZERO, unit_equivalent
from .seifert import (BasisChange, SeifertMatrix, alexander_polynomial,
                      change_basis, intersection_form, random_symplectic,
                      standard_form, theta)

__all__ = [
    "Atom", "BasisChange", "BasisWitness", "BoundRecord", "CertificateCheck",
    "Fig8", "FirstOrderResult", "IntInterval", "Kfam", "KnotExpr", "KnotFacts",
    "Ksat", "LaurentPoly", "ONE", "ParseError", "Provenance", "SeifertMatrix",
    "Sum", "T", "Trefoil", "TriState", "Unknot", "WeakGropeCertificate", "Wh0",
    "ZERO",
    "alexander_of", "alexander_polynomial", "change_basis", "check_certificate",
    "class_r_of", "facts_of", "first_order_genus", "genus_of",
    "intersection_form", "min_basis_bound", "parse", "random_expr",
    "random_symplectic", "render", "satellite_of_first", "schubert_bound",
    "slice_of", "standard_form", "theta", "trivial_of", "unit_equivalent",
    "validate",
]

__version__ = "0.1.0"
