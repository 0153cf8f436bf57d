"""The recursive-descent parser `knotlang.parse` used before the token
loop, kept verbatim as the differential oracle for the parser tests.

It recurses through parse_expr, parse_term and _parse_wh0/_parse_ksat,
about three interpreter frames per open construct, so deep nests need
the recursion limit's headroom; `knotlang.parse` does not.
"""

from __future__ import annotations

from knotfog.knotlang import (DEPTH_MAX, INT_DIGITS_MAX, KFAM_MAX, Atom, Fig8, Kfam,
                              KnotExpr, Ksat, ParseError, Sum, Trefoil, TriState, Unknot,
                              Wh0)


def _name_char(c: str) -> bool:
    """Whether c may follow a NAME's first letter (the first is `str.isalpha`)."""
    return c.isalpha() or c.isdigit() or c == "_"


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.nodes: dict[tuple, KnotExpr] = {}

    def node(self, cls: type, *fields) -> KnotExpr:
        """The one node of class cls with these fields in this parse, so
        that equal subtrees are one object.  A child field is keyed by
        id, as it is already the one node of its value; keying by value
        would hash the whole subtree at every node."""
        key = (cls, *[id(f) if isinstance(f, KnotExpr) else f for f in fields])
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
        return node

    def error(self, message: str, pos: int | None = None) -> "ParseError":
        return ParseError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def at(self, ch: str) -> bool:
        self.skip_ws()
        return self.peek() == ch

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        if not self.peek().isalpha():
            raise self.error("expected a name")
        while _name_char(self.peek()):
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self, max_digits: int = INT_DIGITS_MAX,
                limit: str = f"integers have at most {INT_DIGITS_MAX} digits") -> int:
        """The next INT.  One of more than max_digits digits, sign and
        leading zeros (of any decimal script) not counted, is a ParseError
        at its start saying `limit`; it is measured before int(), which
        refuses literals of over 4300 digits."""
        at = self.pos
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdecimal():  # exactly the digits int() reads
            raise self.error("expected an integer", start)
        while self.peek().isdecimal():
            self.pos += 1
        literal = self.text[start:self.pos]
        digits = literal.lstrip("-")
        lead = 0
        while lead < len(digits) - 1 and int(digits[lead]) == 0:  # a zero of any script
            lead += 1
        magnitude = digits[lead:]
        if len(magnitude) > max_digits:
            raise self.error(f"{limit}, got a {len(magnitude)}-digit integer", at)
        return -int(magnitude) if literal.startswith("-") else int(magnitude)

    def tri(self) -> TriState:
        start = self.pos
        word = self.name()
        try:
            return TriState(word)
        except ValueError:
            raise self.error(f"expected yes/no/unknown, got {word!r}", start) from None

    def keyword_value(self, keyword: str):
        # "<keyword> =" already positioned after the comma
        start = self.pos
        word = self.name()
        if word != keyword:
            raise self.error(f"expected {keyword!r}, got {word!r}", start)
        self.expect("=")

    def parse_expr(self) -> KnotExpr:
        node = self.parse_term()
        while self.at("#"):
            self.pos += 1
            node = self.node(Sum, node, self.parse_term())
        return node

    def descend(self, start: int) -> None:
        """Enter the opener at `start`; the caller leaves it with depth -= 1."""
        self.depth += 1
        if self.depth > DEPTH_MAX:
            raise self.error(f"nesting is limited to {DEPTH_MAX} levels", start)

    def parse_term(self) -> KnotExpr:
        self.skip_ws()
        start = self.pos
        if self.peek() == "(":
            self.descend(start)
            self.pos += 1
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        head = self.name()
        if head == "unknot":
            return self.node(Unknot)
        if head == "trefoil":
            return self.node(Trefoil)
        if head == "fig8":
            return self.node(Fig8)
        if head == "kfam":
            return self._parse_kfam(start)
        if head in ("wh0", "ksat"):
            self.descend(start)
            node = self._parse_wh0() if head == "wh0" else self._parse_ksat()
            self.depth -= 1
            return node
        if head == "atom":
            return self._parse_atom(start)
        raise self.error(f"unknown knot constructor {head!r}", start)

    def _parse_kfam(self, start: int) -> Kfam:
        self.expect("(")
        at_n = self.pos
        n = self.integer(len(str(KFAM_MAX)), f"kfam requires 1 <= n <= {KFAM_MAX}")
        self.expect(")")
        try:
            return self.node(Kfam, n)
        except ValueError as exc:  # the node's own range check, positioned
            raise self.error(str(exc), at_n) from None

    def _parse_wh0(self) -> Wh0:
        self.expect("(")
        companion = self.parse_expr()
        clasp = "+"
        if self.at(","):
            self.pos += 1
            self.keyword_value("clasp")
            self.skip_ws()
            if self.peek() not in ("+", "-"):
                raise self.error("expected '+' or '-' for clasp")
            clasp = self.peek()
            self.pos += 1
        self.expect(")")
        return self.node(Wh0, companion, clasp)

    def _parse_ksat(self) -> Ksat:
        self.expect("(")
        j = self.parse_expr()
        self.expect(",")
        l = self.parse_expr()
        self.expect(",")
        m = self.integer()
        self.expect(",")
        n = self.integer()
        self.expect(")")
        return self.node(Ksat, j, l, m, n)

    def _parse_atom(self, start: int) -> Atom:
        self.expect("(")
        name = self.name()
        self.expect(",")
        self.keyword_value("genus")
        at_genus = self.pos
        genus = self.integer()
        if genus < 1:
            raise self.error(f"atom genus must be >= 1, got {genus}", at_genus)
        flags: dict[str, TriState] = {}
        while self.at(","):
            self.pos += 1
            at_flag = self.pos
            flag = self.name()
            if flag not in ("torus", "cable", "slice"):
                raise self.error(f"unknown atom flag {flag!r}", at_flag)
            if flag in flags:
                raise self.error(f"duplicate atom flag {flag!r}", at_flag)
            self.expect("=")
            flags[flag] = self.tri()
        self.expect(")")
        unknown = TriState.UNKNOWN
        return self.node(Atom, name, genus, flags.get("torus", unknown),
                         flags.get("cable", unknown), flags.get("slice", unknown))


def parse(text: str) -> KnotExpr:
    """Parse the grammar of `knotlang`; raises ParseError with a position on
    failure.  Equal subtrees of the result are one object."""
    p = _Parser(text)
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("unexpected trailing input")
    return node
