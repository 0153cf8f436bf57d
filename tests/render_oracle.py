"""The serializer `knotlang.render` used before its text memo, kept as
the differential oracle for the render tests.

It spells every occurrence of a subtree from its pieces again, so a
doubling tree of depth d costs 2^d node visits; `knotlang.render`
spells each distinct subtree once.
"""

from __future__ import annotations

from knotfog.knotlang import KnotExpr, _repr_pieces


def render(e: KnotExpr, pieces=None) -> str:
    """Canonical text with defaults printed explicitly; parse(render(e)) is e.
    pieces(node), the node's own `pieces()` by default, spells a node as
    strings and nodes."""
    out: list[str] = []
    stack: list = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(item.pieces() if pieces is None else pieces(item)))
    return "".join(out)


def repr_of(e: KnotExpr) -> str:
    """`repr(e)`, spelled by the oracle."""
    return render(e, _repr_pieces)
