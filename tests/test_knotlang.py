import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import render_oracle
from test_cli import run_python

from knotfog import classical, cli, firstorder
from knotfog.knotlang import (KFAM_MAX, Atom, Fig8, Kfam, KnotExpr, Ksat, ParseError, Sum,
                              Trefoil, TriState, Unknot, Wh0, fold, parse, render, validate)
from knotfog.laurent import ONE
from knotfog.selftest import random_expr


class TestParse:
    def test_wh0_default_clasp(self):
        assert parse("wh0(kfam(2))") == Wh0(Kfam(2), clasp="+")

    def test_sum(self):
        assert parse("trefoil # fig8") == Sum(Trefoil(), Fig8())

    def test_ksat_with_atom_flags_any_order(self):
        got = parse("ksat(atom(J, genus=2, cable=no, torus=no), fig8, 0, 0)")
        assert got == Ksat(Atom("J", 2, torus=TriState.NO, cable=TriState.NO,
                                slice=TriState.UNKNOWN),
                           Fig8(), 0, 0)

    def test_sum_left_associative(self):
        assert parse("unknot # trefoil # fig8") == \
            Sum(Sum(Unknot(), Trefoil()), Fig8())

    def test_parens_override(self):
        assert parse("unknot # (trefoil # fig8)") == \
            Sum(Unknot(), Sum(Trefoil(), Fig8()))

    def test_whitespace_insignificant(self):
        assert parse("  wh0 ( kfam( 2 ) , clasp = - )  ") == Wh0(Kfam(2), "-")

    def test_negative_integers(self):
        assert parse("ksat(fig8, fig8, -3, -1)") == Ksat(Fig8(), Fig8(), -3, -1)

    def test_nested_sum_in_argument(self):
        assert parse("wh0(trefoil # fig8)") == Wh0(Sum(Trefoil(), Fig8()))


class TestParseErrors:
    def test_kfam_zero_reports_constraint_and_position(self):
        with pytest.raises(ParseError, match="n >= 1") as exc:
            parse("kfam(0)")
        assert exc.value.position == 5

    def test_atom_genus_zero(self):
        with pytest.raises(ParseError, match="genus must be >= 1"):
            parse("atom(J, genus=0)")

    def test_unknown_constructor(self):
        with pytest.raises(ParseError, match="unknown knot constructor 'granny'"):
            parse("granny")

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("trefoil )")

    def test_missing_close_paren(self):
        with pytest.raises(ParseError, match=r"expected '\)'"):
            parse("kfam(2")

    def test_duplicate_atom_flag(self):
        with pytest.raises(ParseError, match="duplicate atom flag"):
            parse("atom(J, genus=1, cable=no, cable=yes)")

    def test_unknown_atom_flag(self):
        with pytest.raises(ParseError, match="unknown atom flag"):
            parse("atom(J, genus=1, sliceness=yes)")

    def test_bad_tri_state(self):
        with pytest.raises(ParseError, match="expected yes/no/unknown"):
            parse("atom(J, genus=1, torus=maybe)")

    def test_bad_clasp(self):
        with pytest.raises(ParseError, match="clasp"):
            parse("wh0(unknot, clasp=0)")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_position_attribute(self):
        with pytest.raises(ParseError) as exc:
            parse("trefoil # # fig8")
        assert isinstance(exc.value.position, int)
        assert "position" in str(exc.value)


def chain(n: int):
    """Left-nested n-term chain of leaves: 2n - 1 nodes.  The first term is
    an atom, so the Alexander polynomial is unknown without a product."""
    terms = (Atom("A", 2, torus=TriState.NO, cable=TriState.NO), Trefoil(), Fig8())
    e = terms[0]
    for i in range(1, n):
        e = Sum(e, terms[i % 3])
    return e


def subtrees(e) -> list:
    """Every distinct node object of e, by a walk of its own: what a fold
    of e steps on."""
    seen, stack = {}, [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children())
    return list(seen.values())


def count_calls(code, call) -> int:
    """How many times the function with this code object, or with any code
    object in this set, runs during call()."""
    codes = code if code.__class__ is set else {code}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


NODE_CLASSES = (Unknot, Trefoil, Fig8, Kfam, Wh0, Ksat, Atom, Sum)
PIECES = {cls.pieces.__code__ for cls in NODE_CLASSES}  # each row's `pieces`

YES, NO, UNK = TriState.YES, TriState.NO, TriState.UNKNOWN

# Node class -> its curated (torus, cable, slice); an atom's are its own fields.
CURATED = {Unknot: (UNK, UNK, UNK), Trefoil: (YES, YES, NO), Fig8: (NO, NO, NO),
           Kfam: (NO, NO, YES), Wh0: (UNK, UNK, UNK), Ksat: (UNK, UNK, UNK),
           Sum: (UNK, UNK, UNK)}


class TestRows:
    """Each node class's row: `children()`, `pieces()` and `flags`."""

    def test_node_classes_are_the_rows(self):
        assert set(KnotExpr.__subclasses__()) == set(NODE_CLASSES)

    def test_rows_on_seeded_nodes(self):
        # children are the first fields, which `__reduce__` and `_unpickle`
        # rely on; the nodes in a node's text are its children, in order;
        # flags are the curated table's, an atom's its own fields
        assert Ksat(Fig8(), Unknot(), 1, 0).children() == (Fig8(), Unknot())
        assert Atom("J", 1, torus=NO, cable=YES, slice=NO).flags == (NO, YES, NO)
        rng = random.Random(4096)
        seen = set()
        for _ in range(400):
            for node in subtrees(random_expr(rng, 4)):
                kids = node.children()
                fields = [getattr(node, name) for name in node.__slots__]
                assert kids == tuple(fields[:len(kids)]), node
                assert not any(isinstance(f, KnotExpr) for f in fields[len(kids):]), node
                inner = [p for p in node.pieces() if p.__class__ is not str]
                assert len(inner) == len(kids) and all(p is k for p, k in zip(inner, kids)), node
                want = (node.torus, node.cable, node.slice) if node.__class__ is Atom else \
                    CURATED[node.__class__]
                assert node.flags == want, node
                seen.add(node.__class__)
        assert seen == set(NODE_CLASSES)

    def test_node_classes_are_final(self):
        # the engines dispatch on `e.__class__ is Sum`, which a subclass would miss
        for cls in NODE_CLASSES:
            with pytest.raises(TypeError, match=f"node class {cls.__name__} is final"):
                type("Sub", (cls,), {"__slots__": ()})

    def test_non_node_is_attribute_error(self):
        for call in (lambda: render(3), lambda: render("trefoil"), lambda: render([]),
                     lambda: fold(3, lambda node, kids: None)):
            with pytest.raises(AttributeError):
                call()

    def test_language_layer_loads_no_engine(self):
        # knotlang imports neither engine: parse and render read the rows;
        # -S, since `site` may import anything
        code = ("import sys, knotfog.knotlang as k; "
                "k.render(k.parse('ksat(wh0(fig8), trefoil # kfam(2), 0, 1) # atom(A, genus=2)')); "
                "print(*[m for m in ('knotfog.classical', 'knotfog.firstorder') if m in sys.modules])")
        proc = run_python("-S", "-c", code)
        assert proc.returncode == 0, proc.stderr[-500:]
        assert proc.stdout == "\n"


class TestFold:
    def test_post_order_with_child_values_in_text_order(self):
        e = parse("ksat(wh0(fig8), trefoil # unknot, 0, 1) # kfam(2)")
        visited = []

        def step(node, kids):
            visited.append(type(node).__name__)
            return f"{type(node).__name__}({', '.join(kids)})"

        assert fold(e, step)[e] == "Sum(Ksat(Wh0(Fig8()), Sum(Trefoil(), Unknot())), Kfam())"
        assert visited == ["Fig8", "Wh0", "Trefoil", "Unknot", "Sum", "Ksat", "Kfam", "Sum"]

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        depth = 3 * sys.getrecursionlimit()
        nested, right = Fig8(), Fig8()
        for _ in range(depth):
            nested, right = Wh0(nested), Sum(Atom("A", 1), right)
        assert fold(nested, lambda node, kids: 1 + sum(kids))[nested] == depth + 1
        assert render(nested).count("wh0(") == depth
        assert classical.facts_of(nested).genus == classical.IntInterval.point(1)
        assert firstorder.first_order_genus(nested).lo == 2
        assert render(right).count("# (") == depth - 1  # right-nested sums are parenthesised
        assert validate(right) == []
        assert classical.facts_of(right).genus == classical.IntInterval.point(depth + 1)

    def test_engines_run_one_step_per_node(self):
        # an n-term chain has 2n - 1 node occurrences but n - 1 sums over
        # three leaf objects; each reader folds the one step once per distinct object
        n = 2000
        e = chain(n)
        distinct = len(subtrees(e))
        assert distinct == (n - 1) + 3
        assert count_calls(firstorder.step.__code__, lambda: classical.facts_of(e)) == distinct
        assert count_calls(firstorder.step.__code__, lambda: firstorder.first_order_genus(e)) == distinct
        assert count_calls(firstorder.step.__code__, lambda: validate(e)) == distinct


class TestOneFoldPerReport:
    @pytest.mark.parametrize("e", [
        chain(2000),
        parse("trefoil # wh0(fig8) # ksat(kfam(1), kfam(2), 0, 0) # wh0(kfam(3), clasp=-)"
              " # ksat(wh0(fig8), ksat(fig8, atom(A, genus=2, torus=no, cable=no), 0, 0), 1, 0)"),
    ], ids=["chain", "certified-and-nested"])
    def test_report_folds_once_with_one_facts_step_per_node(self, e):
        # one step per distinct subtree of the parse, where equal subtrees are one object
        text = render(e)
        nodes = len(subtrees(parse(text)))
        report = lambda: cli.report(parse(text))
        assert count_calls(fold.__code__, report) == 1
        assert count_calls(firstorder.step.__code__, report) == nodes

    def test_report_builds_records_only_at_the_root(self):
        # the fold carries (value, rule id) pairs; one result, one record per bound
        text = render(chain(2000))
        report = lambda: cli.report(parse(text))
        assert count_calls(firstorder.FirstOrderResult.__new__.__code__, report) == 1
        assert count_calls(firstorder.BoundRecord.__new__.__code__, report) <= 2

    def test_report_matches_the_separate_readers(self):
        rng = random.Random(6006)
        for i in range(1000):
            e = random_expr(rng, max_depth=1 + i % 7)
            report = cli.report(parse(render(e)))
            assert report.facts == classical.facts_of(e)
            assert report.fog == firstorder.first_order_genus(e)
            assert report.warnings == tuple(validate(e))


def fold_per_occurrence(e, step):
    """The fold before shared subtrees: step once per node occurrence,
    children first.  The oracle of TestSharedFold."""
    values: list = []
    stack: list = [(e, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            kids = node.children()
            if kids:
                stack.append((node, kids))
                stack.extend((kid, None) for kid in reversed(kids))
                continue
        split = len(values) - len(kids)
        values[split:] = [step(node, values[split:])]
    return values[0]


ATOM = "atom(A, genus=2, torus=no, cable=no, slice=unknown)"


class TestSharing:
    def test_equal_subtrees_parse_to_one_object(self):
        e = parse("ksat(fig8, fig8, 0, 0)")
        assert e.j is e.l
        e = parse("wh0(trefoil # kfam(2)) # wh0(trefoil # kfam(2))")
        assert e.left is e.right
        e = parse(f"ksat({ATOM} # fig8, (fig8), 1, -1) # {ATOM}")
        assert e.left.j.left is e.right and e.left.j.right is e.left.l

    @pytest.mark.parametrize("a, b", [
        ("wh0(fig8, clasp=+)", "wh0(fig8, clasp=-)"),
        ("ksat(fig8, fig8, 0, 1)", "ksat(fig8, fig8, 1, 0)"),
        ("ksat(fig8, fig8, 0, 1)", "ksat(fig8, fig8, 0, -1)"),
        ("kfam(2)", "kfam(3)"),
        ("trefoil", "fig8"),
        ("trefoil # fig8", "fig8 # trefoil"),
        (ATOM, ATOM.replace("A,", "B,")),
        (ATOM, ATOM.replace("genus=2", "genus=3")),
        (ATOM, ATOM.replace("torus=no", "torus=yes")),
        (ATOM, ATOM.replace("cable=no", "cable=unknown")),
        (ATOM, ATOM.replace("slice=unknown", "slice=no")),
    ])
    def test_unequal_values_are_never_merged(self, a, b):
        e = parse(f"ksat({a}, {b}, 0, 0)")
        assert e.j is not e.l
        assert e.j == parse(a) != parse(b) == e.l
        assert parse(render(e)) == e

    @pytest.mark.parametrize("a, b", [
        (lambda: Wh0(Fig8(), "+"), lambda: Wh0(Fig8(), "-")),
        (lambda: Ksat(Fig8(), Fig8(), 0, 1), lambda: Ksat(Fig8(), Fig8(), 1, 0)),
        (lambda: Ksat(Fig8(), Fig8(), 0, 1), lambda: Ksat(Fig8(), Fig8(), 0, -1)),
        (lambda: Kfam(2), lambda: Kfam(3)),
        (Trefoil, Fig8),
        (lambda: Sum(Trefoil(), Fig8()), lambda: Sum(Fig8(), Trefoil())),
        (lambda: Atom("A", 2), lambda: Atom("B", 2)),
        (lambda: Atom("A", 2), lambda: Atom("A", 3)),
        (lambda: Atom("A", 2, torus=TriState.NO), lambda: Atom("A", 2, torus=TriState.YES)),
        (lambda: Atom("A", 2, cable=TriState.NO), lambda: Atom("A", 2)),
        (lambda: Atom("A", 2, slice=TriState.NO), lambda: Atom("A", 2, slice=TriState.YES)),
    ])
    def test_unequal_values_built_by_the_api_are_never_merged(self, a, b):
        e = Ksat(a(), b(), 0, 0)
        assert e.j is not e.l and e.j != e.l
        assert e.j is a() and e.l is b()
        assert parse(render(e)) is e

    def test_api_built_subtrees_are_the_parsed_ones(self):
        e = Ksat(Wh0(Fig8()), Wh0(Fig8()), 0, 0)
        assert e.j is e.l
        assert parse("ksat(wh0(fig8), wh0(fig8), 0, 0)") is e
        steps = []
        fold(e, lambda node, kids: steps.append(node))
        assert steps == [Fig8(), Wh0(Fig8()), e]

    def test_parse_shares_maximally(self):
        # no two distinct objects of a parse are equal values
        rng = random.Random(1010)
        for _ in range(300):
            e = random_expr(rng, max_depth=5)
            e = Sum(Ksat(e, Wh0(e), 0, 0), e)
            parsed = parse(render(e))
            assert parsed == e
            nodes = subtrees(parsed)
            assert len(set(nodes)) == len(nodes)

    def test_doubling_report_steps_and_renders_once_per_distinct_subtree(self):
        d, e = 10, Fig8()
        for _ in range(d):
            e = Ksat(e, e, 0, 0)
        text = render(e)
        report = lambda: cli.report(parse(text))
        assert count_calls(firstorder.step.__code__, report) == d + 1
        # levels 2..d each name the level below twice: d - 1 distinct subtrees,
        # plus the report's own expression
        assert count_calls(render.__code__, report) <= (d - 1) + 1
        assert len(report().warnings) == 2 ** d - 2


class TestSharedFold:
    """Differential test of the shared fold against the per-occurrence one."""

    def shared_trees(self, seed: int, count: int):
        rng = random.Random(seed)
        for i in range(count):
            e = random_expr(rng, max_depth=1 + i % 5)
            for _ in range(rng.randint(1, 4)):
                layer = rng.randrange(4)
                e = (Ksat(e, e, 0, 0) if layer == 0 else Wh0(e, rng.choice("+-")) if layer == 1
                     else Sum(e, e) if layer == 2 else Sum(random_expr(rng, 3), e))
            yield e

    def test_fold_matches_the_per_occurrence_oracle(self):
        def occurrence(node, kids):
            # each occurrence's record and its warnings, own guards first,
            # then each child's in text order: a pre-order walk of the tree
            record = firstorder.step(node, [kid[0] for kid in kids])
            occurrences.append((node, record))
            own = [message + render(sub) for message, sub in record.failed]
            return record, own + [w for kid in kids for w in kid[1]]

        for e in self.shared_trees(2024, 600):
            occurrences = []
            want = fold_per_occurrence(e, occurrence)[1]
            for tree in (e, parse(render(e))):
                memo = fold(tree, firstorder.step)
                assert set(memo) == {node for node, _ in occurrences}
                for node, record in occurrences:
                    # whole records: facts, bounds, guards and named child nodes
                    assert memo[node] == record
                assert firstorder.warnings(memo) == want

    def test_post_order_visits_each_distinct_subtree_once(self):
        for e in self.shared_trees(99, 200):
            visited, seen = [], []
            memo = fold(e, lambda node, kids: visited.append(node) or len(visited))
            fold_per_occurrence(e, lambda node, kids: seen.append(node))
            first = {id(node): node for node in seen}  # insertion order: first occurrence
            assert [id(n) for n in visited] == list(first)
            # the memo is keyed by node in visit order, and the root's value comes last
            assert list(memo) == visited
            assert memo[e] == len(visited) == list(memo.values())[-1]

    def test_deep_sharing_folds_each_distinct_subtree_once(self):
        # 60 levels of x # x over wh0(fig8): 2^60 copies of the double and
        # 62 distinct subtrees; a walk of the tree would take 2^60 steps.
        # No report: its expression line alone would have 2^60 terms.
        x = Wh0(Fig8())
        for _ in range(60):
            x = Sum(x, x)
        start = time.perf_counter()
        assert classical.alexander_of(x) == ONE
        assert validate(x) == []
        assert time.perf_counter() - start < 0.1  # about 1 ms on a 2-core VM
        assert count_calls(firstorder.step.__code__, lambda: classical.alexander_of(x)) == 62
        assert count_calls(firstorder.step.__code__, lambda: validate(x)) == 62


class TestRender:
    def test_wh0_prints_default_clasp(self):
        assert render(Wh0(Kfam(2), "+")) == "wh0(kfam(2), clasp=+)"

    def test_sum(self):
        assert render(Sum(Trefoil(), Fig8())) == "trefoil # fig8"

    def test_unknot(self):
        assert render(Unknot()) == "unknot"

    def test_atom_prints_all_flags(self):
        assert render(Atom("J", 2)) == \
            "atom(J, genus=2, torus=unknown, cable=unknown, slice=unknown)"

    def test_right_nested_sum_parenthesized(self):
        e = Sum(Unknot(), Sum(Trefoil(), Fig8()))
        assert render(e) == "unknot # (trefoil # fig8)"
        assert parse(render(e)) == e


def doubling(e, depth: int):
    """ksat(e, e, 0, 0) nested `depth` times: 2^depth copies of e, depth + 1
    distinct subtrees above e's own."""
    for _ in range(depth):
        e = Ksat(e, e, 0, 0)
    return e


class TestRenderAgainstTheOracle:
    """`render` spells each distinct subtree once; the old serializer,
    which spells every occurrence, is the oracle for its text and repr."""

    def assert_same(self, e) -> None:
        assert render(e) == render_oracle.render(e)
        assert repr(e) == render_oracle.repr_of(e)

    def test_seeded_trees(self):
        rng = random.Random(20261019)
        for _ in range(3000):
            self.assert_same(random_expr(rng, rng.randint(1, 6)))

    def test_doubling_trees(self):
        rng = random.Random(7)
        for depth in range(8):
            self.assert_same(doubling(random_expr(rng, 3), depth))
            self.assert_same(Sum(doubling(Fig8(), depth), Wh0(doubling(Kfam(2), depth), "-")))

    @pytest.mark.parametrize("n", [1, 2, 6, 61, 500])
    def test_chains(self, n):
        self.assert_same(chain(n))
        self.assert_same(Ksat(chain(n), Wh0(chain(n)), 1, -1))  # one chain, met twice

    def test_right_nested_sums(self):
        e = Trefoil()
        for k in range(30):
            e = Sum(Kfam(1 + k % 3), e) if k % 2 else Sum(e, Sum(e, Fig8()))
        self.assert_same(e)

    def test_shared_memo(self):
        # a memo filled by one call answers later calls on its subtrees,
        # including subtrees the first call met only once
        e = Sum(Wh0(chain(40)), Ksat(Fig8(), Fig8(), 0, 0))
        texts: dict = {}
        assert render(e, texts=texts) == render_oracle.render(e)
        for sub in subtrees(e):
            assert render(sub, texts=texts) == render_oracle.render(sub)

    def test_a_reused_memo_spells_each_new_tree_its_own_text(self):
        # the memo is keyed by node and so keeps the nodes it spells alive:
        # a new tree never takes the key of one that died since
        texts: dict = {}
        for i in range(1, 201):
            render(Wh0(Kfam(i)), texts=texts)  # the tree dies after the call
            e = Wh0(Kfam(i + 1000))
            assert render(e, texts=texts) == render_oracle.render(e) == f"wh0(kfam({i + 1000}), clasp=+)"

    def test_report_spells_each_distinct_subtree_once(self):
        for d in (1, 4, 10):
            e = doubling(Fig8(), d)
            got = cli.report(e)
            assert count_calls(PIECES, lambda: cli.report(e)) == d + 1
            assert got.expression == render_oracle.render(e)
            assert len(got.warnings) == 2 ** d - 2


class TestRoundTrip:
    def test_seeded_round_trip(self):
        rng = random.Random(123)
        for _ in range(500):
            e = random_expr(rng, max_depth=4)
            assert parse(render(e)) == e

    def test_fuzz_never_crashes(self):
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ()#,=+-_"
        rng = random.Random(321)
        parsed = 0
        for _ in range(2000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            try:
                parse(text)
                parsed += 1
            except ParseError:
                pass
        assert parsed < 2000  # garbage should mostly be rejected


class TestNodeConstraints:
    def test_kfam_requires_positive(self):
        with pytest.raises(ValueError):
            Kfam(0)

    def test_kfam_upper_limit(self):
        assert parse(f"kfam({KFAM_MAX})") == Kfam(KFAM_MAX)
        with pytest.raises(ValueError):
            Kfam(KFAM_MAX + 1)

    def test_atom_requires_genus(self):
        with pytest.raises(ValueError):
            Atom("J", 0)

    def test_atom_requires_valid_name(self):
        with pytest.raises(ValueError):
            Atom("2bad", 1)

    @settings(max_examples=400, deadline=None)
    @given(st.text(max_size=6)
           | st.text(st.characters(categories=("L", "N", "Pc", "Zs")), min_size=1, max_size=6))
    @example("A½")  # numeric, so str.isalnum, but not a digit the parser reads
    @example("A²")
    @example("x_1")
    @example("_x")
    def test_atom_name_is_what_the_parser_reads(self, name):
        try:
            parsed = parse(f"atom({name}, genus=1)")
        except ParseError:
            parsed = None
        reads = isinstance(parsed, Atom) and parsed.name == name
        try:
            atom = Atom(name, 1)
        except ValueError:
            assert not reads
            return
        assert reads
        assert parse(render(atom)) == atom == parsed

    def test_clasp_sign_checked(self):
        with pytest.raises(ValueError):
            Wh0(Unknot(), clasp="*")

    def test_nodes_are_hashable_values(self):
        assert len({Kfam(1), Kfam(1), Kfam(2)}) == 2


class TestValidate:
    def test_guarded_double_is_clean(self):
        assert validate(Wh0(Kfam(2))) == []

    def test_unknown_cable_companion_warns(self):
        warnings = validate(Wh0(Atom("J", 1)))
        assert any("noncable companion" in w for w in warnings)

    def test_class_r_companions_are_clean(self):
        assert validate(Ksat(Fig8(), Fig8(), 0, 0)) == []

    def test_ksat_with_torus_companion_warns(self):
        warnings = validate(Ksat(Trefoil(), Fig8(), 0, 0))
        assert any("first companion in class R" in w for w in warnings)

    def test_trivial_companion_warns(self):
        warnings = validate(Wh0(Unknot()))
        assert any("nontrivial" in w for w in warnings)

    def test_warnings_recurse_into_subtrees(self):
        warnings = validate(Sum(Wh0(Atom("J", 1)), Trefoil()))
        assert warnings


class TestTriState:
    def test_values(self):
        assert str(TriState.YES) == "yes"
        assert TriState("unknown") is TriState.UNKNOWN

    def test_random_expr_is_deterministic(self):
        rng_a, rng_b = random.Random(7), random.Random(7)
        a = [random_expr(rng_a, 4) for _ in range(20)]
        b = [random_expr(rng_b, 4) for _ in range(20)]
        # identical seeds give identical streams
        assert a == b
