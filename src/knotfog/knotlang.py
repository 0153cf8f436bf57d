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
DEPTH_MAX others: a policy limit, as `parse` does not recurse.

The named flags of `atom` may appear in any order, each at most once;
`render` always prints them in the order torus, cable, slice and prints
defaults explicitly, so that parse(render(e)) is e.  Equal syntax nodes
are one object, for every tree, and no value operation recurses.

Each node class is one row of the language: `children()`, its subtrees
in text order, which are its first fields (() for a leaf); `flags`, its
curated (torus, cable, slice), all UNKNOWN unless the class states them;
and `pieces()`, its text as strings and child nodes.  `fold` and
`render` read the row and key their memos by node; `fold` returns its
memo, so `fold(e, step)[e]` is the root's value.  Node classes are
final, so the engines above dispatch on `e.__class__` with `is`.
"""

from __future__ import annotations

import enum
import re
import weakref

from .frozen import Frozen, integer


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

# Most openers "(", "wh0(" and "ksat(" open at once: a policy limit on
# the input, not a count of interpreter frames.  `parse` keeps the open
# constructs on a stack of its own, and the engines walk the tree with
# `fold`, so neither recurses.
DEPTH_MAX = 200

_NODES: dict[tuple, weakref.ref] = {}  # every live syntax node; see `_node`


class TriState(str, enum.Enum):
    """Partial knowledge about a yes/no attribute.

    Rules may refine UNKNOWN to YES or NO but never flip YES and NO.
    """

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


class KnotExpr(Frozen):
    """Base class of the syntax nodes, interned: equal nodes are one object, however built."""

    __slots__ = ("__weakref__",)
    __eq__, __hash__ = object.__eq__, object.__hash__  # equal nodes are one object
    __copy__ = __deepcopy__ = lambda self, *memo: self
    __repr__ = lambda self: render(self, _repr_pieces)
    flags = (TriState.UNKNOWN,) * 3  # curated (torus, cable, slice): unknown unless a class states them

    def __init_subclass__(cls):
        if cls.__base__ is not KnotExpr:  # the engines test `e.__class__ is Sum`, not isinstance
            raise TypeError(f"node class {cls.__base__.__name__} is final")

    def __new__(cls):  # a leaf; the other nodes have constructors of their own
        return _node((cls,))

    def children(self) -> tuple[KnotExpr, ...]:
        """The direct subtrees, in text order: the node's first fields."""
        return ()

    def __reduce__(self):
        """Pickle a flat table in fold order, a row (class, child rows, other
        fields) per distinct subtree; a node's children are its first fields."""
        rows: list[tuple] = []
        def row(node: KnotExpr, kids: list[int]) -> int:
            rows.append((node.__class__, kids, [getattr(node, f) for f in node.__slots__[len(kids):]]))
            return len(rows) - 1
        fold(self, row)
        return _unpickle, (rows,)


def _node(key: tuple) -> KnotExpr:
    """The one live node with key (class, *fields), held in `_NODES` by its
    key, children by identity, until it dies: the one interning site."""
    ref = _NODES.get(key)
    node = ref and ref()
    if node is None:
        node = object.__new__(key[0])
        for name, value in zip(key[0].__slots__, key[1:]):
            object.__setattr__(node, name, value)
        _NODES[key] = weakref.ref(node, lambda ref, key=key: _NODES.get(key) is ref and _NODES.pop(key))
    return node


def _knot(value, what: str) -> KnotExpr:
    if not isinstance(value, KnotExpr):
        raise ValueError(f"{what} must be a KnotExpr, got {value!r}")
    return value


class Unknot(KnotExpr):
    __slots__ = ()

    def pieces(self) -> tuple[str, ...]:
        return ("unknot",)


class Trefoil(KnotExpr):
    __slots__ = ()
    # a torus knot and, under the broad convention that torus knots are
    # cables of the unknot, a cable; not slice
    flags = TriState.YES, TriState.YES, TriState.NO

    def pieces(self) -> tuple[str, ...]:
        return ("trefoil",)


class Fig8(KnotExpr):
    __slots__ = ()
    flags = TriState.NO, TriState.NO, TriState.NO  # neither torus nor cable, and not slice

    def pieces(self) -> tuple[str, ...]:
        return ("fig8",)


class Kfam(KnotExpr):
    """The n-th member of the ribbon pretzel family; 1 <= n <= KFAM_MAX."""

    __slots__ = ("n",)
    # ribbon, hence slice; not a cable, and, being ribbon, not a nontrivial torus knot
    flags = TriState.NO, TriState.NO, TriState.YES

    def __new__(cls, n: int):
        if integer(n, "kfam n") < 1:
            raise ValueError(f"kfam requires n >= 1, got {n}")
        if n > KFAM_MAX:
            raise ValueError(f"kfam requires n <= {KFAM_MAX}, got {n}")
        return _node((cls, n))

    def pieces(self) -> tuple[str, ...]:
        return (f"kfam({self.n})",)


class Wh0(KnotExpr):
    """Untwisted Whitehead double with the given clasp sign.

    Twisted doubles are expressed as Ksat(companion, unknot, m, -+1), so
    this node carries only the clasp.
    """

    __slots__ = ("companion", "clasp")

    def __new__(cls, companion: KnotExpr, clasp: str = "+"):
        if clasp not in ("+", "-"):
            raise ValueError(f"clasp must be '+' or '-', got {clasp!r}")
        return _node((cls, _knot(companion, "wh0 companion"), clasp))

    def children(self) -> tuple[KnotExpr, ...]:
        return (self.companion,)

    def pieces(self) -> tuple[KnotExpr | str, ...]:
        return "wh0(", self.companion, f", clasp={self.clasp})"


class Ksat(KnotExpr):
    """Doubly-companioned genus-one construction: two bands tied into j and l
    with m and n full twists, joined by a single clasp."""

    __slots__ = ("j", "l", "m", "n")

    def __new__(cls, j: KnotExpr, l: KnotExpr, m: int, n: int):
        return _node((cls, _knot(j, "ksat j"), _knot(l, "ksat l"), integer(m, "ksat m"),
                      integer(n, "ksat n")))

    def children(self) -> tuple[KnotExpr, ...]:
        return self.j, self.l

    def pieces(self) -> tuple[KnotExpr | str, ...]:
        return "ksat(", self.j, ", ", self.l, f", {self.m}, {self.n})"


class Atom(KnotExpr):
    """An opaque nontrivial knot with declared attributes; genus >= 1 so
    nontriviality is structural."""

    __slots__ = ("name", "genus", "torus", "cable", "slice")
    flags = property(lambda self: (self.torus, self.cable, self.slice))  # as declared

    def __new__(cls, name: str, genus: int, torus: TriState = TriState.UNKNOWN,
                cable: TriState = TriState.UNKNOWN, slice: TriState = TriState.UNKNOWN):
        if integer(genus, "atom genus") < 1:
            raise ValueError(f"atom genus must be >= 1, got {genus}")
        if not (name[:1].isalpha() and _tokens(name) == [name, ""]):  # a NAME, before the flags
            raise ValueError(f"invalid atom name {name!r}")
        return _node((cls, name, genus, TriState(torus), TriState(cable), TriState(slice)))

    def pieces(self) -> tuple[str, ...]:
        return (f"atom({self.name}, genus={self.genus}, torus={self.torus}, "
                f"cable={self.cable}, slice={self.slice})",)


class Sum(KnotExpr):
    """Connected sum."""

    __slots__ = ("left", "right")

    def __new__(cls, left: KnotExpr, right: KnotExpr):
        return _node((cls, _knot(left, "sum left"), _knot(right, "sum right")))

    def children(self) -> tuple[KnotExpr, ...]:
        return self.left, self.right

    def pieces(self) -> tuple[KnotExpr | str, ...]:
        if self.right.__class__ is Sum:  # `#` associates left
            return self.left, " # (", self.right, ")"
        return self.left, " # ", self.right


# -- parser ----------------------------------------------------------------


# One token per match: a run of word characters that starts with no
# decimal digit, an INT with its sign, or any other single character;
# whitespace only separates tokens.  `\d` is `str.isdecimal` (the digits
# int() reads) and `\s` is `str.isspace`.  This gives the tokens of
# `-?\d+|\w+|\S`, with fewer failed attempts at a word: at a decimal digit
# both take `-?\d+`; at any other word character both take the longest
# run of word characters; anywhere else both take a "-" and its digits,
# or one non-space character.
_TOKEN = re.compile(r"[^\W\d]\w*|-?\d+|\S")
_SPACE = re.compile(r"\s*")

_LEAVES = {"unknot": Unknot, "trefoil": Trefoil, "fig8": Fig8}


def _tokens(text: str) -> list[str]:
    r"""The tokens of text, then "" for its end.  `\w` also matches numerals
    such as ½ and Ⅷ, which are neither letters nor digits and so end a
    NAME: a word that starts with a letter is cut before the first.  No
    token contains or crosses a ",", so each distinct comma-separated piece
    is tokenized once: a satellite tree's text repeats its pieces."""
    tokens: list[str] = []
    seen: dict[str, list[str]] = {}
    for piece in text.split(","):
        part = seen.get(piece)
        if part is None:
            part = seen[piece] = _TOKEN.findall(piece)
            if not piece.isascii():
                part[:] = [cut for token in part for cut in _cut(token)]
            part.append(",")
        tokens += part
    tokens[-1] = ""
    return tokens


def _cut(token: str) -> tuple[str, ...]:
    if token[:1].isalpha():
        for k, c in enumerate(token):
            if not (c.isalpha() or c.isdigit() or c == "_"):
                return token[:k], token[k:]
    return (token,)


class ParseError(ValueError):
    """Syntax or constraint error, carrying the offset into the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    """The tokens of one text, read by index."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokens(text)

    def error(self, message: str, i: int, before_space: bool = False) -> ParseError:
        """A ParseError at token i, or where the token before it ends.  Only
        errors need positions, so they scan the text again."""
        text, pos = self.text, 0
        for token in self.tokens[:i]:
            pos = _SPACE.match(text, pos).end() + len(token)
        return ParseError(message, pos if before_space else _SPACE.match(text, pos).end())

    def expect(self, token: str, i: int) -> int:
        """The index after token i, which must be `token`."""
        if self.tokens[i] != token:
            raise self.error(f"expected {token!r}", i)
        return i + 1

    def word(self, i: int, words: tuple[str, ...] = (), message: str = "") -> str:
        """The NAME at token i, and one of `words` if they are given; else a
        ParseError saying `message` with the name, before the whitespace."""
        word = self.tokens[i]
        if not word[:1].isalpha():
            raise self.error("expected a name", i)
        if words and word not in words:
            raise self.error(message.format(word), i, before_space=True)
        return word

    def integer(self, i: int, max_digits: int = INT_DIGITS_MAX,
                limit: str = f"integers have at most {INT_DIGITS_MAX} digits") -> int:
        """The INT at token i.  One of more than max_digits digits, sign and
        leading zeros (of any decimal script) not counted, is a ParseError
        before the whitespace saying `limit`; it is measured before int(),
        which refuses literals of over 4300 digits."""
        literal = self.tokens[i]
        digits = literal.lstrip("-")
        if not digits.isdecimal():
            raise self.error("expected an integer", i)
        lead = 0
        while len(digits) - lead > max_digits and int(digits[lead]) == 0:  # a zero of any script
            lead += 1
        if len(digits) - lead > max_digits:
            raise self.error(f"{limit}, got a {len(digits) - lead}-digit integer", i,
                             before_space=True)
        return -int(digits[lead:]) if literal[0] == "-" else int(digits[lead:])

    def flat(self, i: int) -> tuple[KnotExpr, int]:
        """The leaf, kfam or atom term at token i, and the index after it."""
        head = self.tokens[i]
        leaf = _LEAVES.get(head)
        if leaf is not None:
            return leaf(), i + 1
        if head == "kfam":
            return self.kfam(i + 1)
        if head == "atom":
            return self.atom(i + 1)
        raise self.error(f"unknown knot constructor {self.word(i)!r}", i)

    def kfam(self, i: int) -> tuple[Kfam, int]:
        n = self.integer(self.expect("(", i), len(str(KFAM_MAX)), f"kfam requires 1 <= n <= {KFAM_MAX}")
        end = self.expect(")", i + 2)
        try:
            return Kfam(n), end
        except ValueError as exc:  # the node's own range check, positioned
            raise self.error(str(exc), i + 1, before_space=True) from None

    def atom(self, i: int) -> tuple[Atom, int]:
        name = self.word(self.expect("(", i))
        self.word(self.expect(",", i + 2), ("genus",), "expected 'genus', got {!r}")
        genus = self.integer(self.expect("=", i + 4))
        if genus < 1:
            raise self.error(f"atom genus must be >= 1, got {genus}", i + 5, before_space=True)
        i += 6
        flags: dict[str, TriState] = {}
        while self.tokens[i] == ",":
            flag = self.word(i + 1, ("torus", "cable", "slice"), "unknown atom flag {!r}")
            if flag in flags:
                raise self.error(f"duplicate atom flag {flag!r}", i + 1, before_space=True)
            flags[flag] = TriState(self.word(self.expect("=", i + 2), ("yes", "no", "unknown"),
                                             "expected yes/no/unknown, got {!r}"))
            i += 4
        return Atom(name, genus, **flags), self.expect(")", i)

    def wh0(self, companion: KnotExpr, i: int) -> tuple[Wh0, int]:
        """Close "wh0(" companion at token i: [", clasp =" sign] ")"."""
        clasp = "+"
        if self.tokens[i] == ",":
            self.word(i + 1, ("clasp",), "expected 'clasp', got {!r}")
            clasp = self.tokens[self.expect("=", i + 2)]
            if clasp not in ("+", "-"):
                if clasp[:1] == "-":  # a signed INT: "-" is the clasp, and ")" is not its digits
                    self.tokens[i + 3:i + 4] = "-", clasp[1:]
                    raise self.error("expected ')'", i + 4)
                raise self.error("expected '+' or '-' for clasp", i + 3)
            i += 4
        return Wh0(companion, clasp), self.expect(")", i)

    def ksat(self, j: KnotExpr, l: KnotExpr, i: int) -> tuple[Ksat, int]:
        """Close "ksat(" j "," l at token i: "," INT "," INT ")"."""
        m = self.integer(self.expect(",", i))
        n = self.integer(self.expect(",", i + 2))
        return Ksat(j, l, m, n), self.expect(")", i + 4)


def parse(text: str) -> KnotExpr:
    """Parse the grammar above; raises ParseError with a position on failure.
    The result is the interned node: equal subtrees, of this or any other
    live tree, are one object.

    One loop reads the terms, with no recursion.  Each open "(", "wh0("
    or "ksat(" is a frame on an explicit stack: [head, ksat's first
    operand once read, the `#` chain so far, the index of the frame's
    first token].  A term that ends joins its frame's chain; unless "#"
    follows, the chain is the frame's operand, and a closed frame is a
    term that ends in the frame below.

    A ksat's second operand spelled token for token as its first, up to
    the "," that ends it, is the first operand's node, so its tokens are
    skipped instead of read again.  This is exact: what the loop makes of
    an operand is a function of its tokens and of the token that ends it,
    which is the last one it reads; both operands are read at the same
    stack depth; and the first was read without error.  So no node, error
    or position changes.  The terminator is tested before the tokens are
    compared, so a miss usually costs O(1) and never more than the first
    operand's length; a token lies inside at most DEPTH_MAX first
    operands, which bounds all comparisons by DEPTH_MAX times the tokens."""
    p = _Parser(text)
    tokens = p.tokens
    stack: list[list] = [["", None, None, 0]]
    i = 0
    while True:
        head = tokens[i]
        if head in ("(", "wh0", "ksat"):
            if len(stack) > DEPTH_MAX:
                raise p.error(f"nesting is limited to {DEPTH_MAX} levels", i)
            i = i + 1 if head == "(" else p.expect("(", i + 1)
            stack.append([head, None, None, i])
            continue
        term, i = p.flat(i)
        while True:
            frame = stack[-1]
            if frame[2] is not None:
                term = Sum(frame[2], term)
            if tokens[i] == "#":
                frame[2] = term
                i += 1
                break
            head = frame[0]
            if head == "ksat" and frame[1] is None:
                frame[1], frame[2] = term, None
                i = p.expect(",", i)
                start = frame[3]  # the first operand is tokens[start:i - 1]
                end = 2 * i - 1 - start  # and a copy of it would end here
                if end >= len(tokens) or tokens[end] != "," or tokens[i:end] != tokens[start:i - 1]:
                    break
                i = end  # the second operand is spelled as the first: it is that node
            if head == "(":
                i = p.expect(")", i)
            elif head == "wh0":
                term, i = p.wh0(term, i)
            elif head == "ksat":
                term, i = p.ksat(frame[1], term, i)
            elif tokens[i]:
                raise p.error("unexpected trailing input", i)
            else:
                return term
            stack.pop()


# -- traversal and serializer ------------------------------------------------


def fold(e: KnotExpr, step) -> dict:
    """step(node, child values in text order) once per distinct subtree,
    children first; returns the memo, each distinct subtree's value keyed
    by the node, in that order: `fold(e, step)[e]`, the root's, comes last
    and every child's before its parent's.  Equal subtrees are one object,
    so a subtree met again reuses its value.  An explicit stack replaces
    recursion, so no depth reaches the interpreter's recursion limit."""
    done: dict = {}
    stack: list = [(e, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if node in done:
                continue
            kids = node.children()
            if kids:
                stack.append((node, kids))
                stack.extend((kid, None) for kid in reversed(kids))
                continue
        done[node] = step(node, [done[kid] for kid in kids])
    return done


def _unpickle(rows: list[tuple]) -> KnotExpr:
    """The last node of a `KnotExpr.__reduce__` table, built by the constructors."""
    nodes: list[KnotExpr] = []
    for cls, kids, fields in rows:
        nodes.append(cls(*[nodes[k] for k in kids], *fields))
    return nodes[-1]


def render(e: KnotExpr, pieces=None, texts: dict | None = None) -> str:
    """Canonical text with defaults printed explicitly; parse(render(e)) is e.
    pieces(node), the node's own `pieces()` by default, spells a node as
    strings and nodes.

    Each distinct subtree is spelled from its pieces once: the first time
    it is met, its text goes to the output as pieces, and where they start
    and end is noted in `texts`; the second time, that span is joined into
    one string, which `texts` keeps and every later meeting reuses.  A
    span is joined at most once and is no longer than the text it stands
    for, so a call costs O(distinct subtrees + output).  The root's text
    is kept in `texts` as well.  A caller may pass one `texts` to several
    calls with the same `pieces`, as `cli.report` does for its expression
    line and warnings; keyed by node, it keeps the nodes it spells alive.
    Texts are not built bottom-up with `fold`: every prefix of a `#` chain
    is a distinct subtree, so keeping each one's text would be quadratic."""
    if e.__class__ is str or e.__class__ is list:  # the loop would take it for a piece
        raise AttributeError(f"{e.__class__.__name__!r} object has no attribute 'pieces'")
    texts = {} if texts is None else texts
    out: list[str] = []
    stack: list = [e]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
        elif item.__class__ is list:  # the end of a node's first text
            item.append(len(out))
        else:
            text = texts.get(item)
            if text is None:  # met first: spell it, noting where its text starts
                texts[item] = span = [out, len(out)]
                stack.append(span)
                stack.extend(reversed(item.pieces() if pieces is None else pieces(item)))
                continue
            if text.__class__ is list:  # met again: join its first text, once
                source, start, end = text
                text = texts[item] = "".join(source[start:end])
            out.append(text)
    text = texts[e] = "".join(out)
    return text


def _repr_pieces(e: KnotExpr) -> list:
    """A node's repr, `Name(field=value, ...)`, as `pieces()` spells its text."""
    pieces: list = [f"{e.__class__.__qualname__}("]
    for k, name in enumerate(e.__slots__):
        value = getattr(e, name)
        pieces += f"{', ' * (k > 0)}{name}=", value if isinstance(value, KnotExpr) else repr(value)
    return pieces + [")"]


def validate(e: KnotExpr) -> list[str]:
    """Warnings for every closed-form guard that is not established.

    The guards are `firstorder.step`'s, which reads them for the
    first-order bounds too.  Warnings come in pre-order, and never abort
    evaluation; they mark bounds the engine will leave open.
    """
    from . import firstorder  # the fold step sits above the language layer

    return firstorder.warnings(fold(e, firstorder.step))
