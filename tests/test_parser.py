"""Differential tests of `knotlang.parse` against the recursive-descent
parser it replaced (`parser_oracle`), and its independence from the
interpreter's recursion limit.

Both parsers must give every text the same outcome: the same tree, by
`render` and by its sharing, or a ParseError with the same message and
position.
"""

import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parser_oracle
from knotfog import knotlang
from knotfog.knotlang import DEPTH_MAX, INT_DIGITS_MAX, ParseError, parse, render
from knotfog.selftest import random_expr

# The grammar's characters, plus the ones where a regular expression and
# the str predicates the old parser used could disagree: ½ and Ⅷ match
# `\w` but are neither letters nor digits, ² is a digit but not decimal,
# ١ is a decimal digit of another script, ǅ is a titlecase letter, and
# U+3000 is space.
ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 ()#,=+-_" + "½²Ⅷ١ǅ　\t"

WORDS = ("unknot", "trefoil", "fig8", "kfam", "wh0", "ksat", "atom", "clasp", "genus",
         "torus", "cable", "slice", "yes", "no", "unknown", "(", ")", ",", "=", "#", "+",
         "-", "0", "1", "-1", "00", "١٢", "A", "x_1", "A²", "A½", "Ⅷ", "ǅ", " ", "　")


def outcome(parse_text, text: str):
    try:
        e = parse_text(text)
    except ParseError as exc:
        return str(exc), exc.position
    return render(e), len(distinct_nodes(e))


def distinct_nodes(e) -> set[int]:
    """The ids of e's node objects: as many as its distinct subtrees when
    equal subtrees are one object."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, f) for f in node.__slots__
                         if not isinstance(getattr(node, f), (str, int)))
    return seen


def assert_same(text: str) -> None:
    assert outcome(parse, text) == outcome(parser_oracle.parse, text), text


def mutated(rng: random.Random, text: str) -> str:
    """text with one token inserted, deleted or replaced, re-joined with a
    random separator."""
    tokens = (text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
              .replace("=", " = ").split())
    k = rng.randrange(len(tokens) + 1)
    word = rng.choice(WORDS + tuple(tokens))
    op = rng.choice(("insert", "delete", "replace"))
    if op == "insert":
        tokens.insert(k, word)
    elif k < len(tokens):
        if op == "delete":
            del tokens[k]
        else:
            tokens[k] = word
    return rng.choice(("", " ", "  ", "　")).join(tokens)


class TestAgainstTheRecursiveParser:
    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=40))
    def test_strings_over_the_alphabet(self, text):
        assert_same(text)

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), max_size=30), st.sampled_from(("", " ", "\t")))
    def test_token_sequences(self, words, separator):
        assert_same(separator.join(words))

    def test_seeded_mutations_of_rendered_trees(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            text = render(random_expr(rng, rng.randint(1, 5)))
            assert_same(text)
            assert_same(mutated(rng, text))

    @pytest.mark.parametrize("opener, closer", [
        ("(", ")"), ("wh0(", ")"), ("ksat(", ", fig8, 0, 0)")])
    @pytest.mark.parametrize("depth", [DEPTH_MAX, DEPTH_MAX + 1])
    def test_nests_at_the_limit(self, opener, closer, depth):
        assert_same(opener * depth + "fig8" + closer * depth)
        assert_same("trefoil # " + opener * depth + "fig8" + closer * (depth - 1))

    @pytest.mark.parametrize("text", [
        "kfam(" + "0" * 5000 + "12)",
        "kfam(" + "٠" * 5000 + "4096)",
        "kfam(0004097)",
        "kfam(-0)",
        "ksat(fig8, fig8, " + "0" * 2000 + "9" * INT_DIGITS_MAX + ", 0)",
        "ksat(fig8, fig8, -" + "0" * 2000 + "9" * (INT_DIGITS_MAX + 1) + ", 0)",
        "atom(A, genus=" + "1" * (INT_DIGITS_MAX + 1) + ")",
        "atom(A, genus=-" + "1" * (INT_DIGITS_MAX + 1) + ")",
    ])
    def test_literal_limits(self, text):
        assert_same(text)


class TestPitfalls:
    """Texts where a token-at-a-time reader could part from one that reads
    a character at a time, with the outcome both give."""

    @pytest.mark.parametrize("text, name", [
        ("atom(A², genus=1)", "A²"),  # ² is a digit, so it may follow a letter
        ("atom(ǅx_1, genus=1)", "ǅx_1"),
    ])
    def test_names(self, text, name):
        assert parse(text).name == name
        assert_same(text)

    def test_decimal_digits_of_any_script(self):
        assert parse("kfam(١٢)") == parse("kfam(12)")
        assert_same("kfam(١٢)")

    @pytest.mark.parametrize("text, message, position", [
        # \w matches ½ and Ⅷ, which NAME rejects, and ², which may not start one
        ("atom(A½, genus=1)", "expected ','", 6),
        ("atom(Ⅷ, genus=1)", "expected a name", 5),
        ("atom(²A, genus=1)", "expected a name", 5),
        ("ksat(fig8, fig8, 1½, 0)", "expected ','", 18),
        ("kfam(Ⅷ)", "expected an integer", 5),
        # a sign must touch its digits; a clasp sign is not an integer's
        ("ksat(fig8, fig8, - 1, 0)", "expected an integer", 17),
        ("wh0(fig8, clasp=-1)", "expected ')'", 17),
        # limit, kfam-range, genus, flag, tri and keyword errors sit before the whitespace
        ("kfam(  0)", "kfam requires n >= 1, got 0", 5),
        ("kfam(  40960)", "kfam requires 1 <= n <= 4096, got a 5-digit integer", 5),
        ("ksat(fig8, fig8,  " + "9" * (INT_DIGITS_MAX + 1) + ", 0)",
         f"integers have at most {INT_DIGITS_MAX} digits, got a {INT_DIGITS_MAX + 1}-digit integer",
         16),
        ("atom(A, genus=  0)", "atom genus must be >= 1, got 0", 14),
        ("atom(A, genus=1,  bogus=yes)", "unknown atom flag 'bogus'", 16),
        ("atom(A, genus=1, torus=no,  torus=no)", "duplicate atom flag 'torus'", 26),
        ("atom(A, genus=1, torus=  maybe)", "expected yes/no/unknown, got 'maybe'", 23),
        ("atom(A,  gens=1)", "expected 'genus', got 'gens'", 7),
        ("wh0(fig8,  clsp=+)", "expected 'clasp', got 'clsp'", 9),
        # every other error sits after it
        ("trefoil #   )", "expected a name", 12),
        ("trefoil   fig8", "unexpected trailing input", 10),
        ("  granny", "unknown knot constructor 'granny'", 2),
        ("kfam(2  ", "expected ')'", 8),
        ("wh0(fig8,  clasp =  0)", "expected '+' or '-' for clasp", 20),
        ("  " + "(" * (DEPTH_MAX + 1) + "fig8", f"nesting is limited to {DEPTH_MAX} levels",
         2 + DEPTH_MAX),
        # whitespace alone is a missing name at its end
        ("", "expected a name", 0),
        ("   ", "expected a name", 3),
        ("　\t", "expected a name", 2),
    ])
    def test_errors(self, text, message, position):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (str(exc.value), exc.value.position) == (f"{message} (at position {position})", position)
        assert_same(text)


def doubling_text(operand: str, depth: int, separators=(" ",)) -> str:
    """ksat(X, X, 0, 0) nested `depth` times around `operand`, the two
    copies of each level spelled with separators[level % len]."""
    for level in range(depth):
        sep = separators[level % len(separators)]
        operand = f"ksat({operand},{sep}{operand},{sep}0, 0)"
    return operand


def respaced(text: str, rng: random.Random) -> str:
    """text with the space between its tokens redrawn; the same tokens."""
    return rng.choice(("", " ", "\t", "　")).join(knotlang._tokens(text))


class TestRepeatedKsatOperands:
    """A ksat's second operand spelled as its first is skipped, not read
    again; the outcome must be what the recursive parser gives."""

    def test_doubling_trees_over_seeded_subtrees(self):
        rng = random.Random(20261019)
        for _ in range(300):
            text = doubling_text(render(random_expr(rng, rng.randint(1, 4))), rng.randint(1, 5))
            assert_same(text)
            assert_same(mutated(rng, text))

    def test_copies_with_different_whitespace(self):
        rng = random.Random(5)
        for _ in range(200):
            x = render(random_expr(rng, rng.randint(1, 4)))
            assert_same(f"ksat({x}, {respaced(x, rng)}, 1, -1)")
            assert_same(f"ksat({respaced(x, rng)},{x},0,0) # {x}")

    @pytest.mark.parametrize("second", [
        "wh0(fig8, clasp=-) # kfam(2)",      # one token changed
        "wh0(fig8, clasp=+) # kfam(3)",
        "wh0(fig8, clasp=+) # kfam(2) # fig8",  # the copy followed by `#`
        "(wh0(fig8, clasp=+) # kfam(2))",
        "wh0(fig8, clasp=+) # kfam(2))",     # the copy followed by `)`
        "wh0(fig8, clasp=+) # kfam(2",       # truncated copies
        "wh0(fig8, clasp=+) #",
        "wh0(fig8, clasp=+)",
    ])
    @pytest.mark.parametrize("tail", [", 0, 0)", ", 0, 0) # trefoil", ")", ""])
    def test_near_misses(self, second, tail):
        assert_same("ksat(wh0(fig8, clasp=+) # kfam(2), " + second + tail)

    @pytest.mark.parametrize("tail", [
        ", 1, )", ", 1 0)", ", 1, 0", ", 1, 0) fig8", ", x, 0)", ")", "", ", 1, 0) # )",
        ", 1, 0) #", ", 1, 0))", ", " + "9" * (INT_DIGITS_MAX + 1) + ", 0)",
        ", 0, 0) # ksat(kfam(3), kfam(3), 0, 0) # ksat(kfam(3), kfam(3), 0, x)"])
    def test_errors_after_the_skipped_span(self, tail):
        x = doubling_text("atom(A, genus=2, slice=no)", 3)
        assert_same(f"ksat({x}, {x}" + tail)
        assert_same(f"wh0(ksat({x}, {x}" + tail + ")")

    def test_repeated_operands_at_the_nesting_limit(self):
        x = "ksat(" * (DEPTH_MAX - 1) + "fig8" + ", fig8, 0, 0)" * (DEPTH_MAX - 1)
        assert_same(f"ksat({x}, {x}, 0, 0)")
        assert_same(f"(ksat({x}, {x}, 0, 0))")

    @pytest.mark.parametrize("depth", [1, 2, 5, 12])
    def test_each_level_closes_once(self, depth):
        text = doubling_text("kfam(2)", depth, separators=(" ", "  "))
        entered = 0

        def profile(frame, event, arg):
            nonlocal entered
            if event == "call" and frame.f_code is knotlang._Parser.ksat.__code__:
                entered += 1

        sys.setprofile(profile)
        try:
            e = parse(text)
        finally:
            sys.setprofile(None)
        assert entered == depth
        assert render(e) == doubling_text("kfam(2)", depth)


class TestTokenizer:
    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=ALPHABET, max_size=60))
    def test_same_tokens_as_the_earlier_pattern(self, text):
        # `_TOKEN` starts with words so that it fails less often at one;
        # the earlier pattern put INTs first
        assert knotlang._TOKEN.findall(text) == re.findall(r"-?\d+|\w+|\S", text)

    @settings(max_examples=1000, deadline=None)
    @given(st.data())
    def test_same_tokens_as_one_pass_over_the_text(self, data):
        pieces = data.draw(st.lists(st.text(alphabet=ALPHABET, max_size=15), min_size=1, max_size=4))
        text = ",".join(data.draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=12)))
        tokens = knotlang._TOKEN.findall(text)
        if not text.isascii():
            tokens = [part for token in tokens for part in knotlang._cut(token)]
        assert knotlang._tokens(text) == tokens + [""]

    def test_each_distinct_piece_is_tokenized_once(self, monkeypatch):
        text = doubling_text("kfam(3)", 12)
        pieces: list[str] = []
        pattern = knotlang._TOKEN

        class Counting:
            def findall(self, piece):
                pieces.append(piece)
                return pattern.findall(piece)

        tokens = knotlang._tokens(text)
        monkeypatch.setattr(knotlang, "_TOKEN", Counting())
        assert knotlang._tokens(text) == tokens
        assert sorted(pieces) == sorted(set(text.split(",")))


def near_the_recursion_limit(func, free: int = 40):
    """func() from a call stack with about `free` frames left below the
    interpreter's recursion limit, found by recursing until it is hit."""
    def reach(k: int) -> int:
        try:
            return reach(k + 1)
        except RecursionError:
            return k

    def descend(k: int):
        return func() if k <= 0 else descend(k - 1)

    return descend(reach(0) - free)


class TestRecursionHeadroom:
    """The parser keeps open constructs on its own stack, so no nesting
    depth and no chain length needs interpreter frames."""

    @pytest.mark.parametrize("opener, closer", [
        ("(", ")"), ("wh0(", ")"), ("ksat(", ", trefoil, 0, 0)")], ids=["(", "wh0", "ksat"])
    def test_depth_max_nest(self, opener, closer):
        text = opener * DEPTH_MAX + "fig8" + closer * DEPTH_MAX
        assert render(near_the_recursion_limit(lambda: parse(text))) == render(parse(text))
        with pytest.raises(RecursionError):  # the recursive parser needs ~3 frames a level
            near_the_recursion_limit(lambda: parser_oracle.parse(text))

    def test_long_chain(self):
        text = " # ".join(["trefoil", "wh0(kfam(2), clasp=+)", "ksat(fig8, fig8, 1, 0)"] * 3334)
        e = near_the_recursion_limit(lambda: parse(text))
        assert render(e) == text
