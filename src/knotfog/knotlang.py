"""The knot-construction language: expression trees, text grammar, serializer.

Grammar (whitespace insignificant, `#` binds loosest and associates left):

    expr  := term ( "#" term )*
    term  := "unknot" | "trefoil" | "fig8"
           | "kfam" "(" INT ")"
           | "wh0" "(" expr [ "," "clasp" "=" ("+"|"-") ] ")"
           | "ksat" "(" expr "," expr "," INT "," INT ")"
           | "atom" "(" NAME "," "genus" "=" INT
                    [ "," "torus" "=" TRI ] [ "," "cable" "=" TRI ]
                    [ "," "slice" "=" TRI ] ")"
           | "(" expr ")"
    TRI   := "yes" | "no" | "unknown"
    INT   := optional "-" followed by digits;  NAME := letter (letter|digit|_)*

`kfam(n)` requires 1 <= n <= KFAM_MAX, and every other INT has at most
INT_DIGITS_MAX digits (sign and leading zeros not counted); a literal
outside these limits, however many digits it has, is a positioned
ParseError.  So is an opener "(", "wh0(" or "ksat(" nested inside
DEPTH_MAX others.

The named flags of `atom` may appear in any order, each at most once;
`render` always prints them in the order torus, cable, slice and prints
defaults explicitly, so that parse(render(e)) == e.
"""

from __future__ import annotations

import dataclasses
import enum
import random


# Largest accepted kfam index.  The Alexander polynomial of kfam(n) is
# (-2t^2 + 5t - 2)^n, whose coefficients are bounded in absolute value by
# the sum of their absolute values, 9^n; 9^4096 has 3909 decimal digits,
# so every coefficient renders below CPython's 4300-digit int-to-str limit.
KFAM_MAX = 4096

# Most digits in an atom genus or a ksat framing.  A ksat's Alexander
# polynomial is mn - (2mn - 1)t + mn t^2; with |m|, |n| < 10^1000 its
# coefficients have at most 2001 digits.  An atom's genus g < 10^1000
# enters the first-order genus as g + max(1, h) or 2g, at most 1001
# digits.  Both render below CPython's 4300-digit int-to-str limit.
INT_DIGITS_MAX = 1000

# Most openers "(", "wh0(" and "ksat(" open at once.  The parser recurses
# through parse_expr, parse_term and _parse_wh0/_parse_ksat, 3 frames per
# level, so 200 levels take about 600 frames; with the CLI's and pytest's
# own stacks (under 100 frames) that stays below CPython's default
# recursion limit of 1000.  Every engine walks the tree with `fold`.
DEPTH_MAX = 200


class TriState(str, enum.Enum):
    """Partial knowledge about a yes/no attribute.

    Rules may refine UNKNOWN to YES or NO but never flip YES and NO.
    """

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


class KnotExpr:
    """Base class for construction-tree nodes; all nodes are frozen values."""

    __slots__ = ()


@dataclasses.dataclass(frozen=True)
class Unknot(KnotExpr):
    pass


@dataclasses.dataclass(frozen=True)
class Trefoil(KnotExpr):
    pass


@dataclasses.dataclass(frozen=True)
class Fig8(KnotExpr):
    pass


@dataclasses.dataclass(frozen=True)
class Kfam(KnotExpr):
    """The n-th member of the ribbon pretzel family; 1 <= n <= KFAM_MAX."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"kfam requires n >= 1, got {self.n}")
        if self.n > KFAM_MAX:
            raise ValueError(f"kfam requires n <= {KFAM_MAX}, got {self.n}")


@dataclasses.dataclass(frozen=True)
class Wh0(KnotExpr):
    """Untwisted Whitehead double with the given clasp sign.

    Twisted doubles are expressed as Ksat(companion, unknot, m, -+1), so
    this node carries only the clasp.
    """

    companion: KnotExpr
    clasp: str = "+"

    def __post_init__(self):
        if self.clasp not in ("+", "-"):
            raise ValueError(f"clasp must be '+' or '-', got {self.clasp!r}")


@dataclasses.dataclass(frozen=True)
class Ksat(KnotExpr):
    """Doubly-companioned genus-one construction: two bands tied into j and l
    with m and n full twists, joined by a single clasp."""

    j: KnotExpr
    l: KnotExpr
    m: int
    n: int


@dataclasses.dataclass(frozen=True)
class Atom(KnotExpr):
    """An opaque nontrivial knot with declared attributes; genus >= 1 so
    nontriviality is structural."""

    name: str
    genus: int
    torus: TriState = TriState.UNKNOWN
    cable: TriState = TriState.UNKNOWN
    slice: TriState = TriState.UNKNOWN

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError(f"atom genus must be >= 1, got {self.genus}")
        if not _is_name(self.name):
            raise ValueError(f"invalid atom name {self.name!r}")


@dataclasses.dataclass(frozen=True)
class Sum(KnotExpr):
    """Connected sum."""

    left: KnotExpr
    right: KnotExpr


def _is_name(s: str) -> bool:
    return bool(s) and s[0].isalpha() and all(c.isalnum() or c == "_" for c in s)


# -- parser ----------------------------------------------------------------


class ParseError(ValueError):
    """Syntax or constraint error, carrying the offset into the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

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
        while self.peek().isalpha() or self.peek().isdigit() or self.peek() == "_":
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self, max_digits: int = INT_DIGITS_MAX,
                limit: str = f"integers have at most {INT_DIGITS_MAX} digits") -> int:
        """The next INT.  One of more than max_digits digits, sign and
        leading zeros not counted, is a ParseError at its start saying
        `limit`; it is measured before int(), which refuses literals of
        over 4300 digits."""
        at = self.pos
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not self.peek().isdigit():
            raise self.error("expected an integer", start)
        while self.peek().isdigit():
            self.pos += 1
        literal = self.text[start:self.pos]
        magnitude = literal.lstrip("-").lstrip("0") or "0"
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
            node = Sum(node, self.parse_term())
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
            return Unknot()
        if head == "trefoil":
            return Trefoil()
        if head == "fig8":
            return Fig8()
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
            return Kfam(n)
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
        return Wh0(companion, clasp)

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
        return Ksat(j, l, m, n)

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
        return Atom(name, genus,
                    torus=flags.get("torus", TriState.UNKNOWN),
                    cable=flags.get("cable", TriState.UNKNOWN),
                    slice=flags.get("slice", TriState.UNKNOWN))


def parse(text: str) -> KnotExpr:
    """Parse the grammar above; raises ParseError with a position on failure."""
    p = _Parser(text)
    node = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("unexpected trailing input")
    return node


# -- traversal and serializer ------------------------------------------------


def children(e: KnotExpr) -> tuple[KnotExpr, ...]:
    """The direct subtrees of a node, in text order; () for a leaf."""
    if isinstance(e, Sum):
        return e.left, e.right
    if isinstance(e, Wh0):
        return (e.companion,)
    if isinstance(e, Ksat):
        return e.j, e.l
    return ()


def fold(e: KnotExpr, step):
    """step(node, child values in text order) once per node, children
    first; returns the root's value.  An explicit stack replaces
    recursion, so no depth reaches the interpreter's recursion limit."""
    values: list = []
    stack: list = [(e, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            kids = children(node)
            if kids:
                stack.append((node, kids))
                stack.extend((kid, None) for kid in reversed(kids))
                continue
        split = len(values) - len(kids)
        values[split:] = [step(node, values[split:])]
    return values[0]


def render(e: KnotExpr) -> str:
    """Canonical text with defaults printed explicitly; parse(render(e)) == e."""
    out: list[str] = []
    stack = list(reversed(_pieces(e)))
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(_pieces(item)))
    return "".join(out)


def _pieces(e: KnotExpr) -> tuple[KnotExpr | str, ...]:
    """A node's text as literal strings and the child nodes between them."""
    if isinstance(e, Sum):
        if isinstance(e.right, Sum):
            return e.left, " # (", e.right, ")"
        return e.left, " # ", e.right
    if isinstance(e, Unknot):
        return ("unknot",)
    if isinstance(e, Trefoil):
        return ("trefoil",)
    if isinstance(e, Fig8):
        return ("fig8",)
    if isinstance(e, Kfam):
        return (f"kfam({e.n})",)
    if isinstance(e, Wh0):
        return "wh0(", e.companion, f", clasp={e.clasp})"
    if isinstance(e, Ksat):
        return "ksat(", e.j, ", ", e.l, f", {e.m}, {e.n})"
    if isinstance(e, Atom):
        return (f"atom({e.name}, genus={e.genus}, torus={e.torus}, "
                f"cable={e.cable}, slice={e.slice})",)
    raise TypeError(f"not a KnotExpr: {e!r}")


# -- curated attribute flags ---------------------------------------------------


def builtin_flags(e: KnotExpr) -> tuple[TriState, TriState, TriState]:
    """(torus, cable, slice) flags for a single node, not recursing.

    Curated table: the trefoil is a torus knot and, under the broad
    convention that torus knots are cables of the unknot, a cable; the
    figure-eight is neither and is not slice; the pretzel family is
    ribbon (hence slice), not a cable, and - being ribbon - not a
    nontrivial torus knot.  Composite nodes carry no flags of their own.
    """
    yes, no, unk = TriState.YES, TriState.NO, TriState.UNKNOWN
    if isinstance(e, Trefoil):
        return yes, yes, no
    if isinstance(e, Fig8):
        return no, no, no
    if isinstance(e, Kfam):
        return no, no, yes
    if isinstance(e, Atom):
        return e.torus, e.cable, e.slice
    return unk, unk, unk


def validate(e: KnotExpr) -> list[str]:
    """Warnings for every closed-form guard that is not established.

    The guards are `classical.node_facts`'s, which the first-order bounds
    read too.  Warnings come in pre-order, and never abort evaluation;
    they mark bounds the engine will leave open.
    """
    from . import classical  # facts engine sits above the language layer

    warnings: list[str] = []
    stack = [fold(e, classical.node_facts)]
    while stack:
        facts = stack.pop()
        warnings.extend(message + render(sub) for message, sub in facts.failed)
        stack.extend(reversed(facts.warned))
    return warnings


# -- pseudo-random expressions -------------------------------------------------


_ATOM_NAMES = ("A", "B", "J", "L", "X", "Y")


def random_expr(rng: random.Random, max_depth: int = 4) -> KnotExpr:
    """Seeded generator of construction trees, used by the property suites."""
    tri = lambda: rng.choice((TriState.YES, TriState.NO, TriState.UNKNOWN))
    leaf_kinds = ("unknot", "trefoil", "fig8", "kfam", "atom")
    all_kinds = leaf_kinds + ("wh0", "ksat", "sum", "sum")
    kind = rng.choice(leaf_kinds if max_depth <= 1 else all_kinds)
    if kind == "unknot":
        return Unknot()
    if kind == "trefoil":
        return Trefoil()
    if kind == "fig8":
        return Fig8()
    if kind == "kfam":
        return Kfam(rng.randint(1, 3))
    if kind == "atom":
        return Atom(rng.choice(_ATOM_NAMES), rng.randint(1, 3),
                    torus=tri(), cable=tri(), slice=tri())
    if kind == "wh0":
        return Wh0(random_expr(rng, max_depth - 1), rng.choice(("+", "-")))
    if kind == "ksat":
        return Ksat(random_expr(rng, max_depth - 1), random_expr(rng, max_depth - 1),
                    rng.randint(-2, 2), rng.randint(-2, 2))
    return Sum(random_expr(rng, max_depth - 1), random_expr(rng, max_depth - 1))
