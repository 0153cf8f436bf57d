import random
from itertools import product

import pytest

from knotfog.classical import IntInterval, genus_of
from knotfog.firstorder import (BasisWitness, WeakGropeCertificate,
                                check_certificate, first_order_genus,
                                min_basis_bound)
from knotfog.knotlang import (Atom, Fig8, Kfam, Ksat, Sum, Trefoil, TriState,
                              Unknot, Wh0, parse, random_expr, validate)


class TestCertificate:
    def test_value_is_sum_of_second_stages(self):
        assert WeakGropeCertificate(1, (1, 1)).value == 2
        assert WeakGropeCertificate(1, (3, 1)).value == 4
        assert WeakGropeCertificate(2, (0, 0, 0, 0)).value == 0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            WeakGropeCertificate(2, (1, 1))

    def test_rejects_negative_stage(self):
        with pytest.raises(ValueError):
            WeakGropeCertificate(1, (1, -1))

    def test_rejects_zero_first_stage(self):
        with pytest.raises(ValueError):
            WeakGropeCertificate(0, ())


class TestCheckCertificate:
    def test_trefoil_certificate_valid(self):
        assert check_certificate(WeakGropeCertificate(1, (1, 1)), Trefoil()).ok

    def test_wrong_first_stage(self):
        check = check_certificate(WeakGropeCertificate(2, (1, 1, 1, 1)), Trefoil())
        assert not check
        assert "first stage not minimal genus" in check.reasons

    def test_zero_stage_on_nontrivial(self):
        check = check_certificate(WeakGropeCertificate(1, (0, 1)), Fig8())
        assert not check
        assert "zero second stage on nontrivial knot" in check.reasons

    def test_unknown_genus(self):
        fuzzy = Ksat(Unknot(), Unknot(), 2, 3)
        check = check_certificate(WeakGropeCertificate(1, (1, 1)), fuzzy)
        assert not check
        assert "genus of expression not exactly known" in check.reasons


def brute_force_min(g_alpha, g_beta, radius):
    """Least (value, |p|, |q|, |r|, |s|, p, q, r, s) over unimodular tuples in the box."""
    best = None
    for p, q, r in product(range(-radius, radius + 1), repeat=3):
        if p == 0:
            if q * r != -1:
                continue
            candidates = [(0, q, r, s) for s in range(-radius, radius + 1)]
        else:
            num = 1 + q * r
            if num % p:
                continue
            candidates = [(p, q, r, num // p)]
        for cp, cq, cr, cs in candidates:
            v = (max(1, abs(cp) * g_alpha, abs(cq) * g_beta)
                 + max(1, abs(cr) * g_alpha, abs(cs) * g_beta))
            key = (v, abs(cp), abs(cq), abs(cr), abs(cs), cp, cq, cr, cs)
            if best is None or key < best:
                best = key
    return best


class TestMinBasisBound:
    def test_whitehead_closed_form(self):
        for g in range(1, 7):
            value, witness = min_basis_bound(g, 0)
            assert value == g + 1
            assert witness.value == value

    def test_two_companion_closed_form(self):
        for g in range(1, 6):
            for h in range(1, 6):
                value, _ = min_basis_bound(g, h)
                assert value == g + h

    def test_first_witness_is_the_off_diagonal_basis(self):
        _, witness = min_basis_bound(1, 0)
        assert (witness.p, witness.q, witness.r, witness.s) == (0, -1, 1, 0)

    def test_witness_is_unimodular_and_achieves_value(self):
        for g, h in [(1, 0), (3, 0), (2, 3), (5, 5), (4, 1)]:
            value, w = min_basis_bound(g, h)
            assert w.p * w.s - w.q * w.r == 1
            achieved = (max(1, abs(w.p) * g, abs(w.q) * h)
                        + max(1, abs(w.r) * g, abs(w.s) * h))
            assert achieved == value == w.value

    def test_agrees_with_independent_brute_force(self):
        # every pair whose value fits the box, witness included
        radius = 8
        pairs = [(g, h) for g in range(1, radius) for h in range(radius)
                 if g + max(1, h) <= radius]
        assert len(pairs) == 35
        for g, h in pairs:
            value, w = min_basis_bound(g, h)
            best = brute_force_min(g, h, radius)
            assert value == best[0]
            assert (w.p, w.q, w.r, w.s) == best[5:]

    def test_huge_genera_take_the_closed_form(self):
        big = 10 ** 40
        for g, h in [(big, big + 1), (big, 0), (1, big), (big, 1)]:
            value, w = min_basis_bound(g, h)
            assert value == w.value == g + max(1, h)
            assert (w.p, w.q, w.r, w.s) == (0, -1, 1, 0)

    def test_symmetric_under_companion_swap(self):
        for g in range(1, 5):
            for h in range(1, 5):
                assert min_basis_bound(g, h)[0] == min_basis_bound(h, g)[0]

    def test_rejects_trivial_first_companion(self):
        with pytest.raises(ValueError):
            min_basis_bound(0, 2)

    def test_rejects_negative_second_companion(self):
        with pytest.raises(ValueError):
            min_basis_bound(2, -1)

    def test_deterministic(self):
        assert min_basis_bound(2, 3) == min_basis_bound(2, 3)

    def test_witness_requires_determinant_one(self):
        with pytest.raises(ValueError):
            BasisWitness(1, 0, 0, -1, 2)


class TestFirstOrderGenus:
    def test_trefoil(self):
        fog = first_order_genus(Trefoil())
        assert (fog.lo, fog.hi) == (2, 2)

    def test_fig8(self):
        assert first_order_genus(Fig8()).interval == IntInterval(2, 2)

    def test_unknot(self):
        assert first_order_genus(Unknot()).interval == IntInterval(0, 0)

    def test_whitehead_family_value(self):
        assert first_order_genus(Wh0(Kfam(3))).interval == IntInterval(4, 4)

    def test_connected_sum_of_trefoils(self):
        # lower bound from twice the genus, upper from subadditivity
        fog = first_order_genus(Sum(Trefoil(), Trefoil()))
        assert fog.interval == IntInterval(4, 4)

    def test_double_satellite_point_value(self):
        fog = first_order_genus(Ksat(Kfam(1), Kfam(2), 0, 0))
        assert fog.interval == IntInterval(3, 3)

    def test_twisted_satellite_keeps_open_upper_bound(self):
        fog = first_order_genus(Ksat(Fig8(), Fig8(), 2, 3))
        assert fog.lo == 2
        assert fog.hi is None

    def test_unguarded_double_has_no_closed_form(self):
        # trefoil is a cable (broad convention): both closed-form rules stay off
        fog = first_order_genus(Wh0(Trefoil()))
        assert fog.lo == 2
        assert fog.hi is None

    def test_atom_with_unknown_cable_flag_stays_open(self):
        fog = first_order_genus(Wh0(Atom("J", 4)))
        assert (fog.lo, fog.hi) == (2, None)

    def test_guarded_atom_double(self):
        fog = first_order_genus(Wh0(Atom("J", 4, cable=TriState.NO)))
        assert fog.interval == IntInterval(5, 5)

    def test_pretzel_members_have_open_upper_bound(self):
        fog = first_order_genus(Kfam(2))
        assert (fog.lo, fog.hi) == (4, None)

    def test_trivial_composites_are_zero(self):
        for text in ("unknot # unknot", "wh0(unknot)",
                     "ksat(atom(J, genus=3), unknot, 5, 0)"):
            assert first_order_genus(parse(text)).interval == IntInterval(0, 0)


class TestProvenance:
    def test_one_record_per_established_bound(self):
        fog = first_order_genus(Trefoil())
        assert [r.bound for r in fog.provenance] == ["lo", "hi"]
        assert [r.value for r in fog.provenance] == [2, 2]

    def test_open_interval_has_only_lower_record(self):
        fog = first_order_genus(Kfam(1))
        assert [r.bound for r in fog.provenance] == ["lo"]

    def test_rules_are_named(self):
        fog = first_order_genus(Wh0(Kfam(2)))
        rules = {r.bound: r.rule for r in fog.provenance}
        assert rules["lo"] == "first-order/double-enumerator"
        assert rules["hi"] == "first-order/double-certificate"

    def test_enumerator_fires_exactly_when_validate_adds_no_warning(self):
        # validate restates the Wh0/Ksat guards; the two must agree
        rng = random.Random(8128)
        checked = fired = 0
        while checked < 1500:
            e = random_expr(rng, 4)
            if isinstance(e, Wh0):
                children = (e.companion,)
            elif isinstance(e, Ksat):
                children = (e.j, e.l)
            else:
                continue
            own = len(validate(e)) - sum(len(validate(c)) for c in children)
            lo_rule = first_order_genus(e).provenance[0].rule
            assert lo_rule.endswith("-enumerator") == (own == 0), e
            checked += 1
            fired += own == 0
        assert fired > 100

    def test_json_shape(self):
        data = first_order_genus(Trefoil()).to_json()
        assert data["lo"] == 2 and data["hi"] == 2
        assert all(set(r) == {"bound", "value", "rule", "anchor"}
                   for r in data["provenance"])
        assert first_order_genus(Kfam(1)).to_json()["hi"] is None


class TestSoundness:
    def test_twice_genus_ordering(self):
        rng = random.Random(60145)
        for _ in range(400):
            e = random_expr(rng, 4)
            assert first_order_genus(e).lo >= 2 * genus_of(e).lo

    def test_zero_interval_forces_trivial_genus(self):
        rng = random.Random(31156)
        for _ in range(400):
            e = random_expr(rng, 4)
            fog = first_order_genus(e)
            if (fog.lo, fog.hi) == (0, 0):
                assert genus_of(e) == IntInterval.point(0)

    def test_subadditivity(self):
        rng = random.Random(77345)
        checked = 0
        while checked < 200:
            a = random_expr(rng, 3)
            b = random_expr(rng, 3)
            hi_a = first_order_genus(a).hi
            hi_b = first_order_genus(b).hi
            if hi_a is None or hi_b is None:
                continue
            assert first_order_genus(Sum(a, b)).hi <= hi_a + hi_b
            checked += 1

    def test_family_separation(self):
        values = [first_order_genus(Wh0(Kfam(n))).lo for n in range(1, 9)]
        assert values == [n + 1 for n in range(1, 9)]
        assert sorted(set(values)) == values  # strictly increasing

    def test_interval_always_well_formed(self):
        rng = random.Random(424241)
        for _ in range(400):
            fog = first_order_genus(random_expr(rng, 4))
            assert fog.lo >= 0
            assert fog.hi is None or fog.lo <= fog.hi
