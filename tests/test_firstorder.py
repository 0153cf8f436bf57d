import ast
import pickle
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from test_cli import run_python
from test_golden import HAND_PICKED

from knotfog import classical, cli, firstorder
from knotfog.classical import genus_of
from knotfog.firstorder import (BasisWitness, IntInterval, NodeFacts, WeakGropeCertificate,
                                _certified, first_order_genus, min_basis_bound, step)
from knotfog.knotlang import (Atom, Fig8, Kfam, Ksat, Sum, Trefoil, TriState,
                              Unknot, Wh0, fold, parse, validate)
from knotfog.laurent import LaurentPoly
from knotfog.selftest import random_expr


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


RULE = "first-order/leaf-certificate"


def check_certificate(cert, e):
    """Why `_certified` refuses the certificate on the genus and triviality
    of e's fold record, as its message's reasons; empty if it certifies
    (cert.value, RULE)."""
    facts = fold(e, step)[e]
    try:
        certified = _certified(cert, RULE, facts.genus, facts.trivial)
    except AssertionError as exc:
        prefix = f"invalid {RULE} certificate: "
        assert str(exc).startswith(prefix), exc
        return tuple(str(exc)[len(prefix):].split("; "))
    assert certified == (cert.value, RULE)
    return ()


class TestCheckCertificate:
    def test_trefoil_certificate_valid(self):
        assert check_certificate(WeakGropeCertificate(1, (1, 1)), Trefoil()) == ()
        facts = fold(Trefoil(), step)[Trefoil()]
        assert _certified(WeakGropeCertificate(1, (1, 1)), RULE, facts.genus, facts.trivial) == (2, RULE)

    def test_wrong_first_stage(self):
        reasons = check_certificate(WeakGropeCertificate(2, (1, 1, 1, 1)), Trefoil())
        assert reasons == ("first stage not minimal genus",)

    def test_zero_stage_on_nontrivial(self):
        reasons = check_certificate(WeakGropeCertificate(1, (0, 1)), Fig8())
        assert reasons == ("zero second stage on nontrivial knot",)

    def test_unknown_genus(self):
        fuzzy = Ksat(Unknot(), Unknot(), 2, 3)
        reasons = check_certificate(WeakGropeCertificate(1, (1, 1)), fuzzy)
        assert reasons == ("genus of expression not exactly known",)

    def test_two_reasons_in_order(self):
        facts = fold(Fig8(), step)[Fig8()]
        with pytest.raises(AssertionError) as exc:
            _certified(WeakGropeCertificate(2, (0, 1, 1, 1)), RULE, facts.genus, facts.trivial)
        assert str(exc.value) == (f"invalid {RULE} certificate: "
                                  "first stage not minimal genus; zero second stage on nontrivial knot")

    def test_wrong_certificate_raises_under_optimization(self):
        # `_certified` guards every upper bound; the check must survive `python -O`.
        proc = run_python("-O", "-c", (
            "from knotfog.firstorder import WeakGropeCertificate, _certified, step\n"
            "from knotfog.knotlang import Trefoil, fold\n"
            "facts = fold(Trefoil(), step)[Trefoil()]\n"
            "try:\n"
            "    _certified(WeakGropeCertificate(2, (1, 1, 1, 1)), 'first-order/leaf-certificate',\n"
            "               facts.genus, facts.trivial)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"))
        assert (proc.returncode, proc.stdout) == (
            0, "invalid first-order/leaf-certificate certificate: first stage not minimal genus\n"), \
            proc.stderr


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

    @pytest.mark.parametrize("args, message", [
        ((1.5, 0), "first companion genus must be an integer, got 1.5"),
        ((True, 0), "first companion genus must be an integer, got True"),
        ((2, 0.0), "second companion genus must be an integer, got 0.0"),
        ((1, False), "second companion genus must be an integer, got False"),
    ])
    def test_rejects_genera_that_are_not_integers(self, args, message):
        # min_basis_bound(1.5, 0) once returned 2.5; the cache is typed, so a
        # cached (1, 0) cannot answer (True, 0)
        min_basis_bound(1, 0)
        min_basis_bound(2, 0)
        with pytest.raises(ValueError) as exc:
            min_basis_bound(*args)
        assert str(exc.value) == message

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
        # the bounds and validate both read the guards of firstorder.step;
        # the enumerator rule must fire exactly where no guard fails
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
        data = cli.report(Trefoil()).to_json()["first_order_genus"]
        assert data["lo"] == 2 and data["hi"] == 2
        assert all(set(r) == {"bound", "value", "rule", "anchor"}
                   for r in data["provenance"])
        assert cli.report(Kfam(1)).to_json()["first_order_genus"]["hi"] is None


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


def corpus() -> list:
    """3000 seeded trees of depths 1..7, then the golden corpus's hand-picked shapes."""
    rng = random.Random(2007)
    return [random_expr(rng, 1 + i % 7) for i in range(3000)] + [parse(t) for t in HAND_PICKED]


def candidate_step(e, facts, kids):
    """The reference selection: every rule that applies adds a (value, rule)
    candidate, and a bound is the first candidate of best value.  It reads
    the classical fields of e's `step` record, `facts`, and ignores its
    `lo` and `hi`; kids holds each child's (record, lo, hi), with the
    bounds from this search."""
    lows, highs = [], []
    if facts.trivial is TriState.YES:
        lows.append((0, "first-order/unknot"))
        highs.append((0, "first-order/unknot"))
    if isinstance(e, (Trefoil, Fig8)):
        highs.append((WeakGropeCertificate(1, (1, 1)).value, "first-order/leaf-certificate"))
    if isinstance(e, Wh0) and not facts.failed:
        g = kids[0][0].genus.lo
        lows.append((min_basis_bound(g, 0)[0], "first-order/double-enumerator"))
        highs.append((WeakGropeCertificate(1, (g, 1)).value, "first-order/double-certificate"))
    if isinstance(e, Ksat) and not facts.failed:
        gj, gl = kids[0][0].genus.lo, kids[1][0].genus.lo
        lows.append((min_basis_bound(gj, gl)[0], "first-order/satellite-enumerator"))
        if e.m == 0 and e.n == 0:
            highs.append((WeakGropeCertificate(1, (gj, gl)).value,
                          "first-order/satellite-certificate"))
    if isinstance(e, Sum) and kids[0][2] is not None and kids[1][2] is not None:
        highs.append((kids[0][2][0] + kids[1][2][0], "first-order/subadditive"))
    lows.append((2 * facts.genus.lo, "first-order/twice-genus"))
    lo = next(c for c in lows if c[0] == max(v for v, _ in lows))
    hi = next(c for c in highs if c[0] == min(v for v, _ in highs)) if highs else None
    return lo, hi


class TestRuleSelection:
    def test_step_picks_what_the_candidate_search_picks(self):
        def both(e, kids):
            chosen = step(e, [k[0] for k in kids])
            lo, hi = candidate_step(e, chosen, kids)
            assert (chosen.lo, chosen.hi) == (lo, hi), e
            return chosen, lo, hi

        for e in corpus():
            record, lo, hi = fold(e, both)[e]
            assert record.__class__ is NodeFacts
            fog = first_order_genus(e)
            assert (fog.lo, fog.hi) == (lo[0], None if hi is None else hi[0]), e
            assert [(r.bound, r.value, r.rule) for r in fog.provenance] == \
                [("lo", *lo)] + ([] if hi is None else [("hi", *hi)]), e


PACKAGE = Path(firstorder.__file__).resolve().parent


class TestRuleTable:
    """`firstorder._ANCHORS` is the one rule id -> anchor table of both engines."""

    def test_every_emitted_record_has_the_tables_anchor(self):
        emitted = set()
        for e in corpus():
            report = cli.report(e)
            for record in (*report.facts.provenance, *report.fog.provenance):
                assert record.anchor == firstorder._ANCHORS[record.rule]
                emitted.add(record.rule)
        assert emitted == set(firstorder._ANCHORS)
        assert len(emitted) == 36

    def test_no_anchor_is_spelled_twice(self):
        anchors = list(firstorder._ANCHORS.values())
        assert len(set(anchors)) == len(anchors)
        source = "".join(path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py")))
        for anchor in anchors:  # each split line holds more than its first 40 characters
            assert source.count(anchor[:40]) == 1, anchor

    def test_the_source_has_one_rule_table(self):
        # a dict literal keyed by rule ids, such as "genus/unknot" or "first-order/unknot"
        tables = [path.name for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Dict) and any(
                      isinstance(key, ast.Constant) and key.value in firstorder._ANCHORS
                      for key in node.keys)]
        assert tables == ["firstorder.py"]


class TestOneFoldStep:
    def test_every_fold_of_a_report_steps_with_step(self):
        # `fold(e, step)` is the only traversal of a report; knotlang's
        # interning folds its rows and is not a report
        folds = [(path.stem, ast.unparse(node.args[1])) for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fold"]
        assert sorted(set(folds)) == [("classical", "step"), ("cli", "firstorder.step"),
                                      ("firstorder", "step"), ("knotlang", "firstorder.step"),
                                      ("knotlang", "row")]
        assert not hasattr(classical, "node_facts")

    def test_fold_gives_a_record_with_bounds(self):
        e = parse("wh0(kfam(2)) # trefoil")
        records = fold(e, step)
        record = records[e]
        assert record.__class__ is NodeFacts
        assert (record.lo, record.hi) == ((4, "first-order/twice-genus"), (5, "first-order/subadditive"))
        double = records[e.left]
        assert (double.lo, double.hi) == ((3, "first-order/double-enumerator"),
                                          (3, "first-order/double-certificate"))

    @pytest.mark.parametrize("leaf", ["trefoil", "wh0(trefoil)"])
    def test_long_chain_root_records_compare_hash_print_and_pickle(self, leaf):
        # 10^4 summands at the interpreter's default recursion limit; under
        # wh0(trefoil) a guard fails at every leaf, so `warned` is non-empty
        # along the whole spine.  A record names its children by node, so
        # none of these walks the chain.
        assert sys.getrecursionlimit() == 1000
        e = parse(" # ".join([leaf] * 10 ** 4))
        first, second = fold(e, step)[e], fold(e, step)[e]
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert repr(first).startswith("NodeFacts(genus=IntInterval(lo=10000, hi=10000)")
        assert pickle.loads(pickle.dumps(first)) == first
        assert first.warned == ((e.left, e.right) if leaf != "trefoil" else ())


class TestRuntimeChecks:
    """The two checks that only a fault in the rules can trip, injected.
    Both are AssertionErrors raised explicitly, so `python -O` keeps them."""

    def test_inconsistent_bounds_raise(self, monkeypatch):
        monkeypatch.setattr(firstorder, "min_basis_bound", lambda g, h: (3, None))
        with pytest.raises(AssertionError, match=r"^inconsistent first-order bounds \[3, 2\]: "
                                                 r"engine rules disagree$"):
            fold(parse("wh0(fig8)"), step)

    def test_alexander_failing_determinant_one_raises(self, monkeypatch):
        monkeypatch.setattr(classical, "_alexander", lambda facts: LaurentPoly(0, (1, 1)))
        e = parse("wh0(fig8)")
        with pytest.raises(AssertionError, match=r"^Alexander polynomial of wh0\(fig8, clasp=\+\) "
                                                 r"fails the determinant-one check$"):
            classical.knot_facts(fold(e, step))

    def test_both_raise_under_optimization(self):
        proc = run_python("-O", "-c", (
            "from knotfog import classical, firstorder\n"
            "from knotfog.knotlang import fold, parse\n"
            "from knotfog.laurent import LaurentPoly\n"
            "e = parse('wh0(fig8)')\n"
            "bound = firstorder.min_basis_bound\n"
            "firstorder.min_basis_bound = lambda g, h: (3, None)\n"
            "try:\n"
            "    fold(e, firstorder.step)\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
            "firstorder.min_basis_bound = bound\n"
            "classical._alexander = lambda facts: LaurentPoly(0, (1, 1))\n"
            "try:\n"
            "    classical.knot_facts(fold(e, firstorder.step))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"))
        assert (proc.returncode, proc.stdout.splitlines()) == (0, [
            "inconsistent first-order bounds [3, 2]: engine rules disagree",
            "Alexander polynomial of wh0(fig8, clasp=+) fails the determinant-one check"]), proc.stderr


class TestImportLayering:
    """Each module alone, in a fresh interpreter, folds the one step and
    answers as `cli.report` does.  `classical` imports `firstorder` at
    module level, beneath it; `knotlang` imports it only inside
    `validate`, so importing the language layer loads no engine.  -S, so
    that `site` loads nothing first."""

    @pytest.mark.parametrize("e", ["wh0(fig8)", "ksat(fig8, trefoil, 0, 0) # wh0(kfam(2))"])
    @pytest.mark.parametrize("module, call, read", [
        ("classical", "classical.facts_of(parse(E))", lambda report: report.facts),
        ("firstorder", "firstorder.first_order_genus(parse(E))", lambda report: report.fog),
        ("knotlang", "knotlang.validate(parse(E))", lambda report: list(report.warnings)),
    ])
    def test_module_alone_answers_as_the_report_does(self, module, call, read, e):
        code = (f"import sys\nimport knotfog.{module} as {module}\n"
                "print('knotfog.firstorder' in sys.modules)\n"
                f"from knotfog.knotlang import parse\nE = {e!r}\nprint(repr({call}))\n")
        proc = run_python("-S", "-c", code)
        assert proc.returncode == 0, proc.stderr[-800:]
        assert proc.stdout.splitlines() == [str(module != "knotlang"), repr(read(cli.report(parse(e))))]



# Each module's rank in the import chain frozen -> laurent -> knotlang ->
# firstorder -> classical -> cli -> selftest; seifert sits on laurent, so
# it shares knotlang's rank and neither imports the other.
RANKS = {"frozen": 0, "laurent": 1, "knotlang": 2, "seifert": 2, "firstorder": 3,
         "classical": 4, "cli": 5, "selftest": 6}


def package_imports() -> dict[str, list[tuple[str | None, str]]]:
    """For each module but `__init__`, a (qualified name of the enclosing
    function, or None at module level; imported knotfog module) pair per
    relative import in its source."""
    imports: dict[str, list[tuple[str | None, str]]] = {}

    def visit(node: ast.AST, found: list, scope: list[str], in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                targets = [child.module] if child.module else [alias.name for alias in child.names]
                found.extend((".".join(scope) if in_function else None, target) for target in targets)
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            named = function or isinstance(child, ast.ClassDef)
            visit(child, found, [*scope, child.name] if named else scope, in_function or function)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            visit(ast.parse(path.read_text(encoding="utf-8")), imports.setdefault(path.stem, []), [], False)
    return imports


class TestImportGraph:
    def test_module_level_imports_go_down_the_chain(self):
        imports = package_imports()
        assert set(imports) == set(RANKS)
        upward = [(module, target) for module, found in imports.items() for function, target in found
                  if function is None and RANKS[target] >= RANKS[module]]
        assert upward == []

    def test_only_two_function_level_imports(self):
        # validate folds the step above the language layer, and perfbench's
        # tracer resolves `knotlang.validate`; only `main` runs the selftest
        found = sorted(f"{module}.{function} -> {target}" for module, found in package_imports().items()
                       for function, target in found if function is not None)
        assert found == ["cli.main -> selftest", "knotlang.validate -> firstorder"]
