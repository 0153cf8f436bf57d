import random
import sys
import time

import pytest

import facts_oracle
import seifert_oracle
import test_golden
import test_knotlang
from knotfog import cli
from knotfog.classical import (IntInterval, PRETZEL_BASE, alexander_of,
                               class_r_of, facts_of, genus_of, genus_one_alexander,
                               satellite_of_first, slice_of, trivial_of)
from knotfog.knotlang import (Atom, Fig8, Kfam, Ksat, Sum, Trefoil, TriState,
                              Unknot, Wh0, parse, render)
from knotfog.laurent import LaurentPoly, ONE, unit_equivalent
from knotfog.seifert import (SeifertMatrix, alexander_polynomial, change_basis,
                             random_symplectic, theta)
from knotfog.selftest import random_expr

YES, NO, UNKNOWN = TriState.YES, TriState.NO, TriState.UNKNOWN


class TestIntInterval:
    def test_point(self):
        assert IntInterval.point(3) == IntInterval(3, 3)
        assert IntInterval.point(3).is_point()

    def test_add_with_infinity(self):
        assert IntInterval(1, 2) + IntInterval(3, None) == IntInterval(4, None)
        assert IntInterval(1, 2) + IntInterval(3, 4) == IntInterval(4, 6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntInterval(2, 1)
        with pytest.raises(ValueError):
            IntInterval(-1, 0)

    def test_str(self):
        assert str(IntInterval(0, None)) == "[0, inf]"
        assert str(IntInterval(2, 2)) == "[2, 2]"


class TestSatelliteDecision:
    def test_nonzero_framing(self):
        assert satellite_of_first(Ksat(Atom("J", 1), Atom("L", 1), 3, 5)) is YES

    def test_zero_framing_trivial_second(self):
        assert satellite_of_first(Ksat(Atom("J", 1), Unknot(), 3, 0)) is NO

    def test_zero_framing_nontrivial_second(self):
        assert satellite_of_first(Ksat(Atom("J", 1), Fig8(), 3, 0)) is YES

    def test_unknown_second(self):
        fuzzy = Ksat(Unknot(), Unknot(), 2, 3)  # genus [0,1], triviality unknown
        assert trivial_of(fuzzy) is UNKNOWN
        assert satellite_of_first(Ksat(Atom("J", 1), fuzzy, 1, 0)) is UNKNOWN

    def test_rejects_other_nodes(self):
        with pytest.raises(TypeError):
            satellite_of_first(Trefoil())

    def test_genus_rule_reads_the_same_decision(self):
        # the construction is the unknot exactly when it is no satellite of
        # one companion; it has genus one when it is a satellite of a
        # nontrivial one
        rng = random.Random(5151)
        seen = set()
        for _ in range(600):
            j, l = random_expr(rng, 3), random_expr(rng, 3)
            e = Ksat(j, l, rng.randint(-1, 1), rng.randint(-1, 1))
            of_j, of_l = satellite_of_first(e), satellite_of_first(Ksat(l, j, e.n, e.m))
            g = genus_of(e)
            assert (g == IntInterval.point(0)) == (NO in (of_j, of_l)), e
            if NO not in (of_j, of_l) and ((of_j is YES and trivial_of(j) is NO)
                                           or (of_l is YES and trivial_of(l) is NO)):
                assert g == IntInterval.point(1), e
            seen.add(str(g))
        assert seen == {"[0, 0]", "[1, 1]", "[0, 1]"}


class TestGenus:
    def test_leaves(self):
        assert genus_of(Unknot()) == IntInterval.point(0)
        assert genus_of(Trefoil()) == IntInterval.point(1)
        assert genus_of(Fig8()) == IntInterval.point(1)
        assert genus_of(Kfam(4)) == IntInterval.point(4)
        assert genus_of(Atom("J", 7)) == IntInterval.point(7)

    def test_whitehead_double(self):
        assert genus_of(Wh0(Kfam(1))) == IntInterval.point(1)
        assert genus_of(Wh0(Unknot())) == IntInterval.point(0)
        fuzzy = Ksat(Unknot(), Unknot(), 2, 3)
        assert genus_of(Wh0(fuzzy)) == IntInterval(0, 1)

    def test_sum_additivity_on_zeros(self):
        assert genus_of(Sum(Unknot(), Unknot())) == IntInterval.point(0)

    def test_ksat_collapses_to_unknot(self):
        assert genus_of(Ksat(Atom("J", 3), Unknot(), 5, 0)) == IntInterval.point(0)
        assert genus_of(Ksat(Unknot(), Atom("L", 2), 0, 5)) == IntInterval.point(0)

    def test_ksat_collapse_takes_precedence_over_satellite_reading(self):
        # n != 0 alone does not make the construction nontrivial when the
        # other side collapses it.
        e = Ksat(Unknot(), Fig8(), 0, 5)
        assert genus_of(e) == IntInterval.point(0)
        assert trivial_of(e) is YES

    def test_ksat_certified_satellite_has_genus_one(self):
        assert genus_of(Ksat(Fig8(), Fig8(), 2, 3)) == IntInterval.point(1)
        assert genus_of(Ksat(Kfam(1), Kfam(2), 0, 0)) == IntInterval.point(1)
        # mirror side: nontrivial second companion, m != 0
        assert genus_of(Ksat(Unknot(), Fig8(), 2, 0)) == IntInterval.point(1)

    def test_ksat_outside_hypotheses_stays_open(self):
        # both companions trivial and both framings nonzero: the interval
        # deliberately stays [0, 1] instead of guessing
        assert genus_of(Ksat(Unknot(), Unknot(), 2, 3)) == IntInterval(0, 1)

    def test_genus_additivity_on_random_pairs(self):
        rng = random.Random(8821)
        for _ in range(300):
            a = random_expr(rng, 3)
            b = random_expr(rng, 3)
            ga, gb, gs = genus_of(a), genus_of(b), genus_of(Sum(a, b))
            assert gs.lo == ga.lo + gb.lo
            if ga.hi is not None and gb.hi is not None:
                assert gs.hi == ga.hi + gb.hi


class TestTrivial:
    def test_iff_genus_zero(self):
        rng = random.Random(5151)
        for _ in range(400):
            e = random_expr(rng, 4)
            g = genus_of(e)
            t = trivial_of(e)
            assert (t is YES) == (g == IntInterval.point(0))
            if t is NO:
                assert g.lo >= 1


class TestAlexander:
    def test_kfam_squared(self):
        expected = LaurentPoly(0, (4, -20, 33, -20, 4))
        got = alexander_of(Kfam(2))
        assert unit_equivalent(got, expected)
        # cross-check against the determinant route
        assert unit_equivalent(got, alexander_polynomial(theta(2)))

    def test_whitehead_double_trivial(self):
        assert alexander_of(Wh0(Kfam(3))) == ONE
        assert alexander_of(Wh0(Atom("J", 5))) == ONE

    def test_untwisted_double_via_ksat(self):
        got = alexander_of(Ksat(Atom("J", 1), Unknot(), 0, -1))
        assert unit_equivalent(got, ONE)

    def test_curated_leaves(self):
        assert alexander_of(Trefoil()) == LaurentPoly(0, (1, -1, 1))
        assert alexander_of(Fig8()) == LaurentPoly(0, (1, -3, 1))
        assert alexander_of(Unknot()) == ONE

    @pytest.mark.parametrize("m", range(-4, 5))
    def test_genus_one_closed_form_is_the_seifert_determinant(self, m):
        for n in range(-4, 5):
            seifert = alexander_polynomial(SeifertMatrix(((m, 1), (0, n))))
            assert genus_one_alexander(m * n) == seifert
            got = alexander_of(Ksat(Fig8(), Trefoil(), m, n))
            assert got == seifert.canonical()

    @pytest.mark.parametrize("leaf, matrix", [
        (Trefoil(), ((-1, 1), (0, -1))), (Fig8(), ((1, 1), (0, -1))), (Kfam(1), theta(1).entries)])
    def test_curated_leaves_are_their_seifert_determinants(self, leaf, matrix):
        assert alexander_of(leaf) == alexander_polynomial(SeifertMatrix(matrix)).canonical()

    def test_twist_family(self):
        for m in range(-5, 6):
            got = alexander_of(Ksat(Atom("J", 2), Unknot(), m, -1))
            expected = LaurentPoly(0, (-m, 1 + 2 * m, -m))
            assert unit_equivalent(got, expected)

    def test_sum_multiplies(self):
        got = alexander_of(Sum(Trefoil(), Fig8()))
        expected = alexander_of(Trefoil()) * alexander_of(Fig8())
        assert unit_equivalent(got, expected)

    def test_atom_is_unknown(self):
        assert alexander_of(Atom("J", 2)) is None
        assert alexander_of(Sum(Atom("J", 2), Trefoil())) is None

    @staticmethod
    def products(text: str) -> int:
        """How many times alexander_of(parse(text)) enters LaurentPoly.__mul__."""
        e, code, count = parse(text), LaurentPoly.__mul__.__code__, 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call" and frame.f_code is code

        sys.setprofile(profile)
        try:
            alexander_of(e)
        finally:
            sys.setprofile(None)
        return count

    def test_atom_on_the_spine_stops_before_any_product(self):
        assert self.products("trefoil # fig8 # kfam(3) # atom(A, genus=1)") == 0
        assert self.products("atom(A, genus=1) # (trefoil # (fig8 # kfam(3)))") == 0

    @pytest.mark.parametrize("text, count", [
        # {-2: 3, -1: 1, 1: 1, 6: 1}: kfam(3) is the power, three products
        ("trefoil # fig8 # kfam(3) # wh0(fig8) # unknot # ksat(fig8, fig8, 2, 3)", 3),
        # {-2: 2, -1: 1, 1: 2}: one square, three single factors
        ("(trefoil # kfam(2)) # (fig8 # (unknot # ksat(trefoil, fig8, 1, 1)))", 3),
        # {-2: 2, 1: 1}: the ksat's q_0 is a unit and adds nothing
        ("trefoil # wh0(atom(A, genus=1)) # kfam(2) # ksat(atom(B, genus=2), fig8, 1, 0)", 1),
    ])
    def test_atom_free_spine_multiplies_each_factor_once(self, text, count):
        # the largest power is one Miller pass, and each other factor copy
        # one product; atoms inside companions add no product
        assert self.products(text) == count
        assert alexander_of(parse(text)) is not None

    def test_pretzel_cross_check_family(self):
        # two independent code paths: closed power form vs determinant
        for n in range(1, 7):
            assert unit_equivalent(alexander_of(Kfam(n)),
                                   alexander_polynomial(theta(n)))

    def test_determinant_one_on_random_expressions(self):
        rng = random.Random(99)
        produced = 0
        for _ in range(400):
            e = random_expr(rng, 4)
            delta = alexander_of(e)
            if delta is not None:
                produced += 1
                assert abs(delta.evaluate(1)) == 1
        assert produced > 100


class TestSlice:
    def test_examples(self):
        assert slice_of(Kfam(3)) is YES
        assert slice_of(Wh0(Kfam(3))) is YES
        assert slice_of(Ksat(Fig8(), Fig8(), 1, 1)) is UNKNOWN

    def test_curated_leaves(self):
        assert slice_of(Trefoil()) is NO
        assert slice_of(Fig8()) is NO
        assert slice_of(Unknot()) is YES

    def test_double_of_nonslice_is_unknown(self):
        assert slice_of(Wh0(Trefoil())) is UNKNOWN

    def test_sum(self):
        assert slice_of(Sum(Kfam(1), Kfam(2))) is YES
        assert slice_of(Sum(Kfam(1), Trefoil())) is UNKNOWN

    def test_atom_declared(self):
        assert slice_of(Atom("J", 1, slice=TriState.YES)) is YES


class TestClassR:
    def test_examples(self):
        assert class_r_of(Fig8()) is YES
        assert class_r_of(Kfam(2)) is YES
        assert class_r_of(Trefoil()) is NO

    def test_trivial_is_excluded(self):
        assert class_r_of(Unknot()) is NO
        assert class_r_of(Wh0(Unknot())) is NO

    def test_composites_unknown(self):
        assert class_r_of(Wh0(Kfam(1))) is UNKNOWN
        assert class_r_of(Sum(Fig8(), Fig8())) is UNKNOWN

    def test_atom_with_full_flags(self):
        assert class_r_of(Atom("J", 2, torus=NO, cable=NO)) is YES
        assert class_r_of(Atom("J", 2, torus=NO)) is UNKNOWN
        assert class_r_of(Atom("J", 2, cable=YES)) is NO


class TestFacts:
    def test_assembles_all_fields(self):
        facts = facts_of(parse("wh0(kfam(2))"))
        assert facts.genus == IntInterval.point(1)
        assert facts.alexander == ONE
        assert facts.slice is YES
        assert facts.in_R is UNKNOWN
        assert facts.trivial is NO
        assert {p.fact for p in facts.provenance} == \
            {"genus", "alexander", "slice", "in_R", "trivial"}

    @pytest.mark.parametrize("text, rules", [
        ("kfam(2)", ("genus/pretzel-family", "alexander/pretzel-power", "slice/ribbon")),
        ("unknot # kfam(1)",
         ("genus/connected-sum", "alexander/connected-sum", "slice/connected-sum")),
        # where no rule gives the value, the rule named says why it is unknown
        ("trefoil # kfam(1)",
         ("genus/connected-sum", "alexander/connected-sum", "slice/unknown-sum")),
        ("trefoil # atom(A, genus=1)",
         ("genus/connected-sum", "alexander/unknown-summand", "slice/unknown-sum")),
        ("wh0(kfam(2))",
         ("genus/whitehead-double", "alexander/untwisted-double", "slice/double-of-slice")),
        ("wh0(trefoil)",
         ("genus/whitehead-double", "alexander/untwisted-double", "slice/unknown-double")),
    ])
    def test_provenance_rules_are_node_specific(self, text, rules):
        by_fact = {p.fact: p.rule for p in facts_of(parse(text)).provenance}
        assert (by_fact["genus"], by_fact["alexander"], by_fact["slice"]) == rules

    def test_json_shape(self):
        data = cli.report(Trefoil()).to_json()["facts"]
        assert data["genus"] == {"lo": 1, "hi": 1}
        assert data["alexander"] == {"min_degree": 0, "coeffs": [1, -1, 1]}
        assert data["slice"] == "no"
        assert data["in_R"] == "no"
        assert data["trivial"] == "no"
        assert all(set(p) == {"fact", "rule", "anchor"} for p in data["provenance"])

    def test_unknown_alexander_serialized(self):
        assert cli.report(Atom("J", 1)).to_json()["facts"]["alexander"] == "unknown"


# Leaves of atom-free `#` chains: every factor kind, a unit q_0 and a double.
SPINE_LEAVES = ("unknot", "trefoil", "fig8", "kfam(1)", "kfam(2)", "wh0(fig8)",
                "wh0(atom(A, genus=2), clasp=-)", "ksat(fig8, trefoil, 1, 2)",
                "ksat(fig8, atom(B, genus=1), 0, 3)", "ksat(trefoil, fig8, -2, 2)")


def spine_chain(seed: int, n: int) -> str:
    rng = random.Random(seed)
    return " # ".join(rng.choice(SPINE_LEAVES) for _ in range(n))


class TestAgainstTheFactsOracle:
    """A report's facts, provenance included, equal those of the engine
    that took rule ids from the root's type and walked the spine again."""

    @staticmethod
    def assert_same(e):
        assert cli.report(e).facts == facts_oracle.facts_of(e), render(e)

    def test_seeded_trees(self):
        rng = random.Random(1818)
        for i in range(3000):
            self.assert_same(random_expr(rng, max_depth=1 + i % 7))

    def test_golden_hand_picked_shapes(self):
        for text in test_golden.HAND_PICKED:
            self.assert_same(parse(text))

    def test_shared_trees(self):
        for e in test_knotlang.TestSharedFold().shared_trees(2024, 600):
            self.assert_same(e)

    @pytest.mark.parametrize("n", [60, 120])
    def test_atom_free_chains(self, n):
        for seed in range(5):
            self.assert_same(parse(spine_chain(seed, n)))

    def test_pretzel_sums(self):
        for a in range(1, 6):
            for b in range(1, 6):
                self.assert_same(Sum(Kfam(a), Kfam(b)))
                self.assert_same(Sum(Sum(Kfam(a), Trefoil()), Kfam(b)))


class TestAgainstTheSpineSeifertMatrix:
    """det(V - t*V^T) of `seifert_oracle.spine_matrix(e)`, before and after
    a random symplectic change of basis, is the engine's polynomial."""

    @staticmethod
    def assert_determinant_is_the_engine_polynomial(e, rng):
        V, want = seifert_oracle.spine_matrix(e), alexander_of(e)
        assert (V is None) == (want is None), render(e)
        if V is None:
            return False
        assert alexander_polynomial(V).canonical() == want, render(e)
        if V.size:
            P = random_symplectic(V.size // 2, rng.randrange(2 ** 30), rng.randint(1, 12))
            assert alexander_polynomial(change_basis(V, P)).canonical() == want, render(e)
        return True

    def test_seeded_trees(self):
        rng = random.Random(2929)
        answered = sum(self.assert_determinant_is_the_engine_polynomial(
            random_expr(rng, max_depth=1 + i % 6), rng) for i in range(1500))
        assert answered > 1000

    def test_atom_free_chains(self):
        rng = random.Random(3030)
        for seed in range(10):
            assert self.assert_determinant_is_the_engine_polynomial(
                parse(spine_chain(seed, 12)), rng)

    def test_pretzel_sums(self):
        rng = random.Random(3131)
        for a in range(1, 4):
            for b in range(1, 4):
                assert self.assert_determinant_is_the_engine_polynomial(Sum(Kfam(a), Kfam(b)), rng)


class TestMaterialization:
    """The root multiplies its factor multiset once: the largest power by
    Miller's recurrence, every other factor one copy at a time."""

    @pytest.mark.parametrize("text", ["kfam(300) # kfam(300)", " # ".join(["trefoil"] * 2000)],
                             ids=["pretzel-square", "trefoil-chain"])
    def test_long_products_answer_in_under_a_second(self, text):
        e = parse(text)
        start = time.perf_counter()
        got = cli.report(e).facts.alexander
        assert time.perf_counter() - start < 1.0
        assert got == facts_oracle.alexander_of(e)

    @pytest.mark.parametrize("tail", [" # atom(A, genus=1)", ""], ids=["atom-last", "atom-free"])
    def test_chain_of_distinct_factors_folds_in_linear_time(self, tail):
        # each ksat has its own k = m*n; a `#` record holds no copy of its
        # summands' multisets, which `_alexander` counts in one pass over
        # the memo, so the fold stays linear
        e = parse(" # ".join(f"ksat(fig8, fig8, 1, {n})" for n in range(1, 5001)) + tail)
        start = time.perf_counter()
        got = cli.report(e).facts if tail else genus_of(e)
        assert time.perf_counter() - start < 1.0
        if tail:
            assert got.alexander is None
        else:
            assert got == IntInterval.point(5000)

    @pytest.mark.parametrize("text, top, light", [
        # {1: 1, -1: 2, 6: 1, -2: 3}
        ("trefoil # fig8 # fig8 # ksat(fig8, fig8, 2, 3) # kfam(3)", (-2, 3), [1, -1, -1, 6]),
        # {1: 3, -1: 1, 6: 1, -2: 5}: the exponents run against the norms,
        # so a key that reads e in place of k orders the factors otherwise
        ("trefoil # trefoil # trefoil # fig8 # ksat(fig8, fig8, 2, 3) # kfam(5)", (-2, 5),
         [1, 1, 1, -1, 6]),
    ], ids=["mixed-spine", "exponents-against-norms"])
    def test_the_largest_power_first_then_single_factors_by_one_norm(self, monkeypatch, text, top,
                                                                     light):
        calls = []
        power, product = LaurentPoly.__pow__, LaurentPoly.__mul__

        def record_power(p, k):
            calls.append(("pow", p, k))
            return power(p, k)

        def record_product(q, p):
            calls.append(("mul", q))
            return product(q, p)

        e = parse(text)
        expected = facts_oracle.alexander_of(e)
        monkeypatch.setattr(LaurentPoly, "__pow__", record_power)
        monkeypatch.setattr(LaurentPoly, "__mul__", record_product)
        got = alexander_of(e)
        monkeypatch.undo()
        assert got == expected
        assert calls[0] == ("pow", genus_one_alexander(top[0]), top[1])
        assert calls[1:] == [("mul", genus_one_alexander(k)) for k in light]
        norms = [sum(map(abs, q.coeffs)) for _, q in calls[1:]]
        assert norms == sorted(norms)
