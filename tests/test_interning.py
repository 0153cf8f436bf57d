"""Interned syntax nodes: every value operation at any size, and no leaks.

Each constructor returns the one live node with its fields, so equality,
hashing and copying are O(1), and `repr` and pickle walk the tree on an
explicit stack.  The tests run each operation on long chains and deep
nests from a call stack close to the interpreter's recursion limit, and
compare `repr` with the recursive `Frozen.__repr__` it replaced.
"""

import copy
import gc
import pickle
import random

import pytest

from knotfog import knotlang
from knotfog.knotlang import (DEPTH_MAX, Atom, Fig8, Kfam, KnotExpr, Ksat, Sum, Trefoil,
                              TriState, Wh0, parse, render)
from knotfog.selftest import random_expr
from test_golden import CHAIN_TERMS
from test_parser import near_the_recursion_limit
from test_values import VALUES


def frozen_repr(value) -> str:
    """`Frozen.__repr__` before syntax nodes were interned, the oracle for
    `KnotExpr.__repr__`; its `!r` recursion lands here for child nodes."""
    if not isinstance(value, KnotExpr):
        return repr(value)
    fields = ", ".join(f"{name}={frozen_repr(getattr(value, name))}" for name in value.__slots__)
    return f"{value.__class__.__qualname__}({fields})"


def chain(n: int) -> KnotExpr:
    e = parse(CHAIN_TERMS[0])
    for i in range(1, n):
        e = Sum(e, parse(CHAIN_TERMS[i % len(CHAIN_TERMS)]))
    return e


def chain_repr(n: int) -> str:
    terms = [frozen_repr(parse(CHAIN_TERMS[i % len(CHAIN_TERMS)])) for i in range(n)]
    return "Sum(left=" * (n - 1) + terms[0] + "".join(f", right={t})" for t in terms[1:])


def nest(opener: str, closer: str) -> KnotExpr:
    return parse(opener * DEPTH_MAX + "fig8" + closer * DEPTH_MAX)


def wh0_nest(depth: int) -> KnotExpr:
    e = Fig8()
    for _ in range(depth):
        e = Wh0(e, "-")
    return e


# (build, its repr, whether parse reads its render): each build makes the
# value again from scratch.
LARGE = [
    pytest.param(lambda: chain(10_000), lambda: chain_repr(10_000), True, id="chain"),
    pytest.param(lambda: nest("(", ")"), lambda: "Fig8()", True, id="paren-nest"),
    pytest.param(lambda: nest("wh0(", ")"),
                 lambda: "Wh0(companion=" * DEPTH_MAX + "Fig8()" + ", clasp='+')" * DEPTH_MAX,
                 True, id="wh0-nest"),
    pytest.param(lambda: nest("ksat(", ", trefoil, 0, 0)"),
                 lambda: "Ksat(j=" * DEPTH_MAX + "Fig8()" + ", l=Trefoil(), m=0, n=0)" * DEPTH_MAX,
                 True, id="ksat-nest"),
    pytest.param(lambda: wh0_nest(1000),
                 lambda: "Wh0(companion=" * 1000 + "Fig8()" + ", clasp='-')" * 1000,
                 False, id="api-wh0-nest"),
]


@pytest.mark.parametrize("build, text, parses", LARGE)
class TestValueOperationsAtScale:
    """Every operation runs with about 40 interpreter frames to spare."""

    def test_equal_builds_are_one_object(self, build, text, parses):
        a, b = build(), build()
        assert a is b
        assert near_the_recursion_limit(lambda: a == b and not a != b)
        assert near_the_recursion_limit(lambda: hash(a)) == hash(b)

    def test_repr(self, build, text, parses):
        got, want = near_the_recursion_limit(lambda: repr(build())), text()
        if got != want:  # not `assert`: pytest's diff of two 0.5 MB strings takes minutes
            k = next(k for k, (x, y) in enumerate(zip(got + "$", want + "^")) if x != y)
            pytest.fail(f"repr differs at {k}: {got[k - 30:k + 30]!r} != {want[k - 30:k + 30]!r}")

    def test_copy_and_pickle_return_the_node(self, build, text, parses):
        e = build()
        assert near_the_recursion_limit(lambda: copy.copy(e)) is e
        assert near_the_recursion_limit(lambda: copy.deepcopy(e)) is e
        assert near_the_recursion_limit(lambda: pickle.loads(pickle.dumps(e))) is e

    def test_parse_of_render(self, build, text, parses):
        e = build()
        if parses:
            assert near_the_recursion_limit(lambda: parse(render(e))) is e
        else:
            with pytest.raises(knotlang.ParseError, match="nesting is limited"):
                parse(render(e))


class TestRepr:
    @pytest.mark.parametrize("build", [build for build, _ in VALUES if isinstance(build(), KnotExpr)])
    def test_value_rows_match_the_oracle(self, build):
        assert repr(build()) == frozen_repr(build())

    def test_random_trees_match_the_oracle(self):
        rng = random.Random(4242)
        for _ in range(1000):
            e = random_expr(rng, max_depth=5)
            assert repr(e) == frozen_repr(e)


class TestPickle:
    @pytest.mark.parametrize("e", [
        wh0_nest(300),  # past DEPTH_MAX
        Ksat(Fig8(), Atom("A", 1), 10 ** 1999, -(10 ** 1999)),  # past INT_DIGITS_MAX
        Atom("A", 10 ** 1999, torus=TriState.YES),
    ], ids=["deep", "framing", "genus"])
    def test_values_parse_rejects_round_trip(self, e):
        with pytest.raises(knotlang.ParseError):
            parse(render(e))
        assert pickle.loads(pickle.dumps(e)) is e

    def test_shared_subtrees_pickle_once(self):
        e = Fig8()
        for _ in range(40):
            e = Ksat(e, e, 0, 0)
        data = pickle.dumps(e)
        assert len(data) < 4000  # 2^40 occurrences, 41 distinct nodes
        assert pickle.loads(data) is e

    def test_reduce_is_a_flat_table_in_fold_order(self):
        rows = Sum(Wh0(Kfam(2)), Kfam(2)).__reduce__()[1][0]
        assert rows == [(Kfam, [], [2]), (Wh0, [0], ["+"]), (Sum, [1, 0], [])]


class TestTable:
    def test_flags_are_coerced_before_interning(self):
        assert Atom("A", 1, torus="yes") is Atom("A", 1, torus=TriState.YES)
        assert Atom("A", 1, slice="no").slice is TriState.NO

    def test_atom_name_is_checked_on_every_construction(self, monkeypatch):
        checked = []
        tokens = knotlang._tokens
        monkeypatch.setattr(knotlang, "_tokens", lambda text: checked.append(text) or tokens(text))
        held = Atom("Each_1", 2)
        for flag in (TriState.UNKNOWN, "unknown"):
            assert Atom("Each_1", 2, torus=flag) is held
        assert checked == ["Each_1"] * 3  # the live node's name is checked again
        for name in ("1A", "A-B"):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"invalid atom name {name!r}"):
                    Atom(name, 2)
            with pytest.raises(ValueError, match=f"invalid atom name {name!r}"):
                Atom(name, 2, torus="maybe")  # the name is reported before the flag

    def test_dropped_nodes_leave_the_table(self):
        gc.collect()
        live = len(knotlang._NODES)
        held = [Ksat(Fig8(), Trefoil(), k, 0) for k in range(50_000)]
        assert len(knotlang._NODES) <= 64 + 2 * (live + len(held))
        for k in range(50_000):
            Sum(Atom("A", k + 1), Fig8())  # each dropped at once
        assert len(knotlang._NODES) <= 64 + 2 * (live + len(held))
        del held
        gc.collect()
        assert len(knotlang._NODES) <= 64 + 2 * live
