import random

import pytest

from knotfog.knotlang import (KFAM_MAX, Atom, Fig8, Kfam, Ksat, ParseError, Sum,
                              Trefoil, TriState, Unknot, Wh0, builtin_flags, parse,
                              random_expr, render, validate)


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

    def test_clasp_sign_checked(self):
        with pytest.raises(ValueError):
            Wh0(Unknot(), clasp="*")

    def test_nodes_are_hashable_values(self):
        assert len({Kfam(1), Kfam(1), Kfam(2)}) == 2


class TestBuiltinFlags:
    def test_curated_table(self):
        yes, no = TriState.YES, TriState.NO
        assert builtin_flags(Trefoil()) == (yes, yes, no)
        assert builtin_flags(Fig8()) == (no, no, no)
        assert builtin_flags(Kfam(5)) == (no, no, yes)

    def test_atom_flags_pass_through(self):
        a = Atom("J", 1, torus=TriState.NO, cable=TriState.YES, slice=TriState.NO)
        assert builtin_flags(a) == (TriState.NO, TriState.YES, TriState.NO)

    def test_composites_carry_no_flags(self):
        unk = TriState.UNKNOWN
        assert builtin_flags(Sum(Trefoil(), Fig8())) == (unk, unk, unk)
        assert builtin_flags(Wh0(Trefoil())) == (unk, unk, unk)


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
