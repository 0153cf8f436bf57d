"""Value semantics of knotfog's frozen records and syntax nodes.

Every class here is an immutable value: its repr names its fields, equal
fields make equal values with equal hashes, values of different classes
never compare equal, no field can be assigned or deleted, and each
validating constructor rejects bad fields with a fixed message.
"""

import copy
import pickle

import pytest

from knotfog.classical import IntInterval
from knotfog.firstorder import BasisWitness, WeakGropeCertificate
from knotfog.knotlang import (Atom, Fig8, Kfam, KnotExpr, Ksat, Sum, Trefoil, TriState,
                              Unknot, Wh0)
from knotfog.laurent import LaurentPoly
from knotfog.seifert import BasisChange, SeifertMatrix

# (build, repr): two builds of a syntax node are one interned object; the
# other values are fresh objects each time, equal by fields.
VALUES = [
    (lambda: IntInterval(1, None), "IntInterval(lo=1, hi=None)"),
    (lambda: IntInterval.point(2), "IntInterval(lo=2, hi=2)"),
    (lambda: WeakGropeCertificate(1, (1, 2)),
     "WeakGropeCertificate(first_stage_genus=1, second_stage_genera=(1, 2))"),
    (lambda: BasisWitness(0, -1, 1, 0, 2), "BasisWitness(p=0, q=-1, r=1, s=0, value=2)"),
    (lambda: Kfam(3), "Kfam(n=3)"),
    (lambda: Wh0(Fig8()), "Wh0(companion=Fig8(), clasp='+')"),
    (lambda: Wh0(Kfam(2), "-"), "Wh0(companion=Kfam(n=2), clasp='-')"),
    (lambda: Atom("A", 2, cable=TriState.NO),
     "Atom(name='A', genus=2, torus=<TriState.UNKNOWN: 'unknown'>, "
     "cable=<TriState.NO: 'no'>, slice=<TriState.UNKNOWN: 'unknown'>)"),
    (lambda: LaurentPoly(-1, (-2, 5, -2)), "LaurentPoly('-2t + 5 - 2t^-1')"),
    (lambda: LaurentPoly(), "LaurentPoly('0')"),
    (lambda: SeifertMatrix(((-1, 1), (0, -1))), "SeifertMatrix(entries=((-1, 1), (0, -1)))"),
    (lambda: BasisChange(((0, 1), (-1, 0))), "BasisChange(entries=((0, 1), (-1, 0)))"),
    (lambda: Unknot(), "Unknot()"),
    (lambda: Trefoil(), "Trefoil()"),
    (lambda: Fig8(), "Fig8()"),
    (lambda: Ksat(Trefoil(), Unknot(), 1, -2), "Ksat(j=Trefoil(), l=Unknot(), m=1, n=-2)"),
    (lambda: Sum(Trefoil(), Sum(Fig8(), Unknot())),
     "Sum(left=Trefoil(), right=Sum(left=Fig8(), right=Unknot()))"),
]
IDS = [text.split("(")[0] + str(i) for i, (_, text) in enumerate(VALUES)]

# (class, one field name) for assignment and deletion.
FIELDS = [
    (IntInterval(1, 2), "lo"), (WeakGropeCertificate(1, (1, 1)), "first_stage_genus"),
    (BasisWitness(0, -1, 1, 0, 2), "value"), (Kfam(1), "n"), (Wh0(Fig8()), "clasp"),
    (Atom("A", 1), "genus"), (LaurentPoly(0, (1,)), "coeffs"),
    (SeifertMatrix(((1, 1), (0, -1))), "entries"), (BasisChange(((1, 0), (0, 1))), "entries"),
    (Unknot(), "name"), (Trefoil(), "name"), (Fig8(), "name"),
    (Ksat(Fig8(), Fig8(), 0, 0), "m"), (Sum(Unknot(), Fig8()), "left"),
]


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
class TestValue:
    def test_repr(self, build, text):
        assert repr(build()) == text

    def test_equal_fields_make_equal_values_with_equal_hashes(self, build, text):
        a, b = build(), build()
        assert (a is b) == isinstance(a, KnotExpr)  # syntax nodes are interned
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_copy_and_pickle_keep_the_value(self, build, text):
        value = build()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value) and repr(twin) == text


class TestEqualityIsTypeSensitive:
    def test_fieldless_nodes(self):
        assert Unknot() == Unknot()
        assert Trefoil() != Fig8()
        assert Unknot() != Trefoil() and Fig8() != Unknot()

    def test_values_of_other_types_are_never_equal(self):
        assert IntInterval(1, 1) != (1, 1)
        assert Kfam(1) != 1
        assert IntInterval(1, 1).__eq__((1, 1)) is NotImplemented
        assert Trefoil().__eq__(Fig8()) is NotImplemented
        assert SeifertMatrix(((0, 1), (-1, 0))) != BasisChange(((0, 1), (-1, 0)))

    def test_fields_decide_equality(self):
        assert Kfam(2) != Kfam(3)
        assert Wh0(Fig8()) != Wh0(Fig8(), "-")
        assert Sum(Trefoil(), Fig8()) != Sum(Fig8(), Trefoil())
        assert LaurentPoly(2, (0, 1, 0)) == LaurentPoly(3, (1,))


@pytest.mark.parametrize("value, field", FIELDS, ids=[type(v).__name__ for v, _ in FIELDS])
class TestFrozen:
    def test_assignment_raises(self, value, field):
        before = repr(value)
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        assert repr(value) == before

    def test_deletion_raises(self, value, field):
        with pytest.raises(AttributeError):
            delattr(value, field)

    def test_new_attribute_raises(self, value, field):
        with pytest.raises(AttributeError):
            value.extra = 1


class TestConstruction:
    def test_defaults(self):
        assert Wh0(Fig8()).clasp == "+"
        atom = Atom("A", 2, cable=TriState.NO)
        assert (atom.torus, atom.cable, atom.slice) == (
            TriState.UNKNOWN, TriState.NO, TriState.UNKNOWN)
        assert LaurentPoly().coeffs == () and LaurentPoly().min_degree == 0

    def test_keywords_equal_positions(self):
        assert IntInterval(lo=0, hi=None) == IntInterval(0, None)
        assert WeakGropeCertificate(first_stage_genus=1, second_stage_genera=(2, 1)) \
            == WeakGropeCertificate(1, (2, 1))
        assert BasisWitness(p=1, q=0, r=0, s=1, value=3) == BasisWitness(1, 0, 0, 1, 3)
        assert Kfam(n=5) == Kfam(5)
        assert Wh0(companion=Fig8(), clasp="-") == Wh0(Fig8(), "-")
        assert Atom(name="A", genus=2, torus=TriState.YES, cable=TriState.NO,
                    slice=TriState.UNKNOWN) == Atom("A", 2, TriState.YES, TriState.NO)
        assert Ksat(j=Trefoil(), l=Fig8(), m=0, n=1) == Ksat(Trefoil(), Fig8(), 0, 1)
        assert Sum(left=Unknot(), right=Fig8()) == Sum(Unknot(), Fig8())
        assert LaurentPoly(min_degree=1, coeffs=(2,)) == LaurentPoly(1, (2,))
        assert SeifertMatrix(entries=((1, 1), (0, -1))) == SeifertMatrix(((1, 1), (0, -1)))
        assert BasisChange(entries=((1, 0), (0, 1))) == BasisChange(((1, 0), (0, 1)))

    def test_fields_read_back(self):
        k = Ksat(Trefoil(), Fig8(), 3, -4)
        assert (k.j, k.l, k.m, k.n) == (Trefoil(), Fig8(), 3, -4)
        s = Sum(Unknot(), Kfam(2))
        assert (s.left, s.right) == (Unknot(), Kfam(2))
        assert SeifertMatrix([[1, 2], [3, 4]]).entries == ((1, 2), (3, 4))


@pytest.mark.parametrize("build, message", [
    (lambda: IntInterval(-1, 2), "interval lower bound must be nonnegative, got -1"),
    (lambda: IntInterval(-1, None), "interval lower bound must be nonnegative, got -1"),
    (lambda: IntInterval(3, 2), "empty interval [3, 2]"),
    (lambda: WeakGropeCertificate(0, ()), "first stage genus must be >= 1, got 0"),
    (lambda: WeakGropeCertificate(1, (1,)), "expected 2 second-stage genera, got 1"),
    (lambda: WeakGropeCertificate(1, (1, -1)), "second-stage genera must be nonnegative"),
    (lambda: BasisWitness(1, 0, 0, 2, 0), "witness must have determinant 1"),
    (lambda: IntInterval(0.5, 1), "interval lower bound must be an integer, got 0.5"),
    (lambda: IntInterval(True, None), "interval lower bound must be an integer, got True"),
    (lambda: IntInterval(0, 1.0), "interval upper bound must be an integer, got 1.0"),
    (lambda: WeakGropeCertificate(1.0, (1, 1)), "first stage genus must be an integer, got 1.0"),
    (lambda: WeakGropeCertificate(1, (1, True)), "second-stage genus must be an integer, got True"),
    (lambda: BasisWitness(0.0, -1, 1, 0, 2), "witness p must be an integer, got 0.0"),
    (lambda: BasisWitness(0, -1, 1, 0, 2.5), "witness value must be an integer, got 2.5"),
    (lambda: Kfam(0), "kfam requires n >= 1, got 0"),
    (lambda: Kfam(4097), "kfam requires n <= 4096, got 4097"),
    (lambda: Wh0(Fig8(), "x"), "clasp must be '+' or '-', got 'x'"),
    (lambda: Atom("A", 0), "atom genus must be >= 1, got 0"),
    (lambda: Atom("1A", 0), "atom genus must be >= 1, got 0"),
    (lambda: Atom("1A", 1), "invalid atom name '1A'"),
    (lambda: Atom("", 1), "invalid atom name ''"),
    (lambda: Atom("A", 1, torus="maybe"), "'maybe' is not a valid TriState"),
    (lambda: Atom("A", True), "atom genus must be an integer, got True"),
    (lambda: Kfam(2.0), "kfam n must be an integer, got 2.0"),
    (lambda: Kfam(True), "kfam n must be an integer, got True"),
    (lambda: Ksat(Fig8(), Fig8(), 1.5, 0), "ksat m must be an integer, got 1.5"),
    (lambda: Ksat(Fig8(), Fig8(), 0, False), "ksat n must be an integer, got False"),
    (lambda: Ksat(Fig8(), "fig8", 0, 0), "ksat l must be a KnotExpr, got 'fig8'"),
    (lambda: Wh0("x"), "wh0 companion must be a KnotExpr, got 'x'"),
    (lambda: Sum(Trefoil(), 3), "sum right must be a KnotExpr, got 3"),
    (lambda: Sum(None, Trefoil()), "sum left must be a KnotExpr, got None"),
    (lambda: SeifertMatrix(((1, 2),)), "matrix must be square"),
    (lambda: SeifertMatrix(((1,),)), "Seifert matrix must have even size, got 1"),
    (lambda: BasisChange(((1, 2),)), "matrix must be square"),
    (lambda: BasisChange(((1,),)), "basis change must have even size, got 1"),
    (lambda: BasisChange(((1, 0), (0, 2))), "basis change must be unimodular, det = 2"),
])
def test_validating_constructor_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
