"""The contract of every value class built with ``znum.value_class``.

Each row holds a value, an equal one built separately, one that differs in a
single field, and the repr that ``dataclasses.dataclass(frozen=True)`` gave
the same value, which ``value_class`` replaced without changing it.
"""

import copy
import pickle

import pytest

from ttsupport.balmer import CompactPrime
from ttsupport.homalg import ChainMap, IntMatrix, PerfectComplex, SNFResult, scalar_cone
from ttsupport.modcalc import Cyclic, GradedModule, Module
from ttsupport.report import CheckRecord, Report
from ttsupport.supportdata import (
    Catalogue,
    FiniteSpace,
    SupportDatum,
    UniversalMapResult,
)
from ttsupport.verify import VerifyContext
from ttsupport.znum import (
    FrozenInstanceError,
    PointSet,
    PrimeSet,
    SpclSubset,
    SpecZPoint,
    value_class,
)


def _one():
    return IntMatrix(1, 1, ((1,),))


def _space(order=(("a", "b"),)):
    return FiniteSpace.of(("a", "b"), order)


def _catalogue(unit="1"):
    table = {"0": {"0": "0", unit: "0"}, unit: {"0": "0", unit: unit}}
    return Catalogue.of(["0", unit], "0", unit, table)


def _cone_identity(k=1):
    c = scalar_cone(3)
    return ChainMap.of(c, c, {-1: [[k]], 0: [[k]]})


# class, a value, a value that differs from it in one field, the dataclass repr
ROWS = [
    (
        CompactPrime,
        lambda: CompactPrime(SpecZPoint(3), SpclSubset(PrimeSet.cofinite([3]))),
        lambda: CompactPrime(SpecZPoint(5), SpclSubset(PrimeSet.cofinite([3]))),
        "CompactPrime(point=SpecZPoint(p=3), defining=SpclSubset(closed=PrimeSet(finite=False, "
        "primes=(3,))))",
    ),
    (
        IntMatrix,
        lambda: IntMatrix(2, 2, ((1, 2), (3, 4))),
        lambda: IntMatrix(2, 2, ((1, 2), (3, 5))),
        "IntMatrix(rows=2, cols=2, entries=((1, 2), (3, 4)))",
    ),
    (
        SNFResult,
        lambda: SNFResult(_one(), IntMatrix(1, 1, ((2,),)), _one(), (2,)),
        lambda: SNFResult(_one(), IntMatrix(1, 1, ((2,),)), _one(), (1,)),
        "SNFResult(u=IntMatrix(rows=1, cols=1, entries=((1,),)), d=IntMatrix(rows=1, cols=1, "
        "entries=((2,),)), v=IntMatrix(rows=1, cols=1, entries=((1,),)), invariant_factors=(2,))",
    ),
    (
        PerfectComplex,
        lambda: scalar_cone(3),
        lambda: scalar_cone(5),
        "PerfectComplex(ranks=((-1, 1), (0, 1)), diffs=((-1, IntMatrix(rows=1, cols=1, "
        "entries=((3,),))),))",
    ),
    (
        ChainMap,
        _cone_identity,
        lambda: _cone_identity(2),
        "ChainMap(src=PerfectComplex(ranks=((-1, 1), (0, 1)), diffs=((-1, IntMatrix(rows=1, "
        "cols=1, entries=((3,),))),)), dst=PerfectComplex(ranks=((-1, 1), (0, 1)), diffs=((-1, "
        "IntMatrix(rows=1, cols=1, entries=((3,),))),)), components=((-1, IntMatrix(rows=1, "
        "cols=1, entries=((1,),))), (0, IntMatrix(rows=1, cols=1, entries=((1,),)))))",
    ),
    (
        Module,
        lambda: Module.of([Cyclic.torsion(2, 1)]),
        lambda: Module.of([Cyclic.torsion(3, 1)]),
        "Module(parts=((Cyclic(kind='torsion', primes=None, p=2, k=1), 1),))",
    ),
    (
        GradedModule,
        lambda: GradedModule.of({0: [Cyclic.torsion(2, 1)]}),
        lambda: GradedModule.of({1: [Cyclic.torsion(2, 1)]}),
        "GradedModule(graded=((0, Module(parts=((Cyclic(kind='torsion', primes=None, p=2, k=1), "
        "1),))),))",
    ),
    (
        CheckRecord,
        lambda: CheckRecord("x", True, "3 cases"),
        lambda: CheckRecord("x", False, "3 cases"),
        "CheckRecord(name='x', passed=True, detail='3 cases', advisory=False)",
    ),
    (
        Report,
        lambda: Report((CheckRecord("x", False),)),
        lambda: Report((CheckRecord("y", False),)),
        "Report(records=(CheckRecord(name='x', passed=False, detail='', advisory=False),))",
    ),
    (
        Catalogue,
        _catalogue,
        lambda: _catalogue("u"),
        "Catalogue(objects=('0', '1'), zero=0, unit=1, shift=(0, 1), tensor=((0, 0), (0, 1)), "
        "summands=frozenset(), triangles=frozenset())",
    ),
    (
        FiniteSpace,
        _space,
        lambda: _space(()),
        "FiniteSpace(points=('a', 'b'), up=(3, 2))",
    ),
    (
        SupportDatum,
        lambda: SupportDatum.of(_space(), [(), ("b",)]),
        lambda: SupportDatum.of(_space(), [(), ()]),
        "SupportDatum(space=FiniteSpace(points=('a', 'b'), up=(3, 2)), sigma=(frozenset(), "
        "frozenset({'b'})))",
    ),
    (
        UniversalMapResult,
        lambda: UniversalMapResult((("a", frozenset({0})),), Report()),
        lambda: UniversalMapResult((("a", frozenset({1})),), Report()),
        "UniversalMapResult(mapping=(('a', frozenset({0})),), report=Report(records=()))",
    ),
    (
        VerifyContext,
        lambda: VerifyContext(42, 500, 100),
        lambda: VerifyContext(42, 60, 100),
        "VerifyContext(seed=42, cases=500, primes_bound=100)",
    ),
    (SpecZPoint, lambda: SpecZPoint(3), lambda: SpecZPoint(5), "SpecZPoint(p=3)"),
    (
        SpclSubset,
        lambda: SpclSubset(PrimeSet.of([2])),
        lambda: SpclSubset(PrimeSet.of([3])),
        "SpclSubset(closed=PrimeSet(finite=True, primes=(2,)))",
    ),
    (
        PointSet,
        lambda: PointSet(True, PrimeSet.of([2])),
        lambda: PointSet(False, PrimeSet.of([2])),
        "PointSet(generic=True, closed=PrimeSet(finite=True, primes=(2,)))",
    ),
]
IDS = [row[0].__name__ for row in ROWS]


def _fields(cls):
    return list(cls.__annotations__)


def _compared(value):
    return tuple(getattr(value, f) for f in _fields(type(value)))


@pytest.mark.parametrize("cls, make, other, want_repr", ROWS, ids=IDS)
class TestValueClass:
    def test_equal_fields_give_equal_values(self, cls, make, other, want_repr):
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        # the hash of the compared fields, as dataclass gave it, so that the
        # order of sets and dicts of values is unchanged
        assert hash(a) == hash(b) == hash(_compared(a))

    def test_a_different_field_or_class_gives_unequal_values(self, cls, make, other, want_repr):
        a, b = make(), other()
        assert a != b and not a == b
        differing = [f for f in _fields(cls) if getattr(a, f) != getattr(b, f)]
        assert len(differing) == 1
        annotations = dict.fromkeys(_fields(cls))
        twin_class = value_class(type(cls.__name__, (), {"__annotations__": annotations}))
        twin = twin_class(*(getattr(a, f) for f in _fields(cls)))
        assert a != twin and twin != a

    def test_fields_cannot_be_assigned_or_deleted(self, cls, make, other, want_repr):
        a = make()
        first = _fields(cls)[0]
        for name in (first, "not_a_field"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{first}'"):
            delattr(a, first)
        assert issubclass(FrozenInstanceError, AttributeError)
        assert a == make()

    def test_repr_is_the_dataclass_repr(self, cls, make, other, want_repr):
        assert repr(make()) == want_repr

    def test_copy_deepcopy_and_pickle_round_trip(self, cls, make, other, want_repr):
        a = make()
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is cls
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
            assert vars(b) == vars(a)


def test_every_value_class_has_a_row():
    assert len(ROWS) == len(set(IDS)) == 17


def test_defaults():
    assert SpecZPoint() == SpecZPoint.generic() and SpecZPoint().p is None
    assert SpclSubset() == SpclSubset.whole_space() and SpclSubset().closed is None
    assert CheckRecord("n", True) == CheckRecord("n", True, "", False)
    assert Report() == Report(()) and Report().records == ()


def test_finite_space_index_is_not_compared_hashed_or_shown():
    a = FiniteSpace(("a", "b"), (3, 2))
    b = FiniteSpace(("a", "b"), (3, 2))
    assert a.index == {"a": 0, "b": 1} and "index" in vars(a) and "index" not in vars(b)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == "FiniteSpace(points=('a', 'b'), up=(3, 2))"
    assert _fields(FiniteSpace) == ["points", "up"]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix(-1, 0, ()), "negative dimensions"),
        (lambda: IntMatrix(2, 1, ((1,),)), "expected 2 rows, got 1"),
        (lambda: IntMatrix(1, 2, ((1,),)), "row 0 has 1 entries, expected 2"),
        (lambda: SpecZPoint(4), "closed point needs a prime, got 4"),
    ],
)
def test_post_init_still_validates(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_cached_properties_are_kept_with_the_value():
    c = scalar_cone(3)
    assert c.diff_of is c.diff_of and c.diff_of == {-1: IntMatrix(1, 1, ((3,),))}
    assert _cone_identity().component_of.keys() == {-1, 0}
