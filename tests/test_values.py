"""Value semantics of the frozen record classes of weyl, paradox, oracle and
states: construction, equality, hashing, repr and immutability."""

import copy
import pickle

import pytest

from cvghz.oracle import Monomial, OracleReport
from cvghz.paradox import LhvAssignment, OperatorSet, ParadoxReport
from cvghz.states import ConvergenceRow, GaussianComb, ProductStateSum
from cvghz.weyl import LatticeParams, RationalPhase, WeylWord

P2 = LatticeParams(2)
COMB = GaussianComb(-0.5, (1 + 0j, 1j), 0.5)
COMB_REPR = "GaussianComb(first=-0.5, weights=((1+0j), 1j), delta=0.5)"
ZERO_REPR = "RationalPhase(numerator=0, denominator=1)"

# (class, field values in order, repr as the frozen dataclasses printed it)
CASES = [
    (RationalPhase, (3, 4), "RationalPhase(numerator=3, denominator=4)"),
    (LatticeParams, (2,), "LatticeParams(d=2)"),
    (WeylWord, (P2, ((1, 0), (0, -1)), RationalPhase(1, 2)),
     "WeylWord(params=LatticeParams(d=2), exponents=((1, 0), (0, -1)), "
     "phase=RationalPhase(numerator=1, denominator=2))"),
    (OperatorSet, (P2, (((1, 0),), ((-1, 0),)), "x"),
     "OperatorSet(params=LatticeParams(d=2), rows=(((1, 0),), ((-1, 0),)), "
     "name='x')"),
    (ParadoxReport, (((RationalPhase(0),),), ((0, 0),),
                     WeylWord(P2, ((0, 0),)), True, True, None, False),
     f"ParadoxReport(pairwise_phases=(({ZERO_REPR},),), "
     f"column_sums=((0, 0),), product=WeylWord(params=LatticeParams(d=2), "
     f"exponents=((0, 0),), phase={ZERO_REPR}), is_commuting=True, "
     f"is_lhv_trivial=True, product_phase=None, is_paradox=False)"),
    (LhvAssignment, ((0.5,), (1.5,)),
     "LhvAssignment(positions=(0.5,), momenta=(1.5,))"),
    (OracleReport, (4, 0.0, 1e-16, 2.5e-17),
     "OracleReport(dimension=4, max_commutator_norm=0.0, "
     "product_deviation=1e-16, max_unitarity_defect=2.5e-17)"),
    (GaussianComb, (-0.5, (1 + 0j, 1j), 0.5), COMB_REPR),
    (ProductStateSum, (((0.5 + 0j, (COMB,)),),),
     f"ProductStateSum(terms=(((0.5+0j), ({COMB_REPR},)),))"),
    (ConvergenceRow, (0.1, (1j, -0.5 + 0j), 0.25),
     "ConvergenceRow(delta=0.1, expectations=(1j, (-0.5+0j)), "
     "deviation=0.25)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def fieldless(cls):
    """A subclass of cls that adds no fields, at module level for pickle."""
    sub = type(f"Fieldless{cls.__name__}", (cls,), {"__slots__": ()})
    globals()[sub.__name__] = sub
    return sub


FIELDLESS = {cls: fieldless(cls) for cls, _, _ in CASES}


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
class TestFrozenValue:
    def test_positional_and_keyword_construction(self, cls, values, text):
        a = cls(*values)
        b = cls(**dict(zip(cls.__slots__, values)))
        assert a == b and not a != b
        assert tuple(getattr(a, f) for f in cls.__slots__) == values

    def test_repr_is_the_dataclass_text(self, cls, values, text):
        assert repr(cls(*values)) == text

    def test_equality_within_one_type_only(self, cls, values, text):
        class Sub(cls):
            __slots__ = ()

        a = cls(*values)
        assert a != Sub(*values)
        assert a != values and a != values[0]

    def test_hash_follows_equality(self, cls, values, text):
        assert hash(cls(*values)) == hash(cls(*values))
        assert len({cls(*values), cls(*values)}) == 1

    def test_fields_are_read_only(self, cls, values, text):
        a = cls(*values)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(a, name, values[0])
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1  # no __dict__ either
        assert tuple(getattr(a, f) for f in cls.__slots__) == values

    def test_copy_and_pickle_round_trip(self, cls, values, text):
        a = cls(*values)
        for b in (copy.copy(a), copy.deepcopy(a),
                  pickle.loads(pickle.dumps(a))):
            assert b == a and type(b) is cls

    def test_fieldless_subclass_keeps_the_fields(self, cls, values, text):
        sub = FIELDLESS[cls]
        a = sub(*values)
        assert a == sub(*values) and hash(a) == hash(sub(*values))
        assert repr(a) == text.replace(cls.__name__, sub.__name__, 1)
        for b in (copy.copy(a), copy.deepcopy(a),
                  pickle.loads(pickle.dumps(a))):
            assert b == a and type(b) is sub


# the classes that bind their fields with the shared _Frozen.__init__
SHARED_INIT = [case for case in CASES
               if case[0] in (ParadoxReport, OracleReport, ConvergenceRow)]


@pytest.mark.parametrize("cls, values, text", SHARED_INIT,
                         ids=[cls.__name__ for cls, _, _ in SHARED_INIT])
class TestSharedInit:
    def test_fieldless_subclass_compares_the_fields(self, cls, values,
                                                    text):
        sub = FIELDLESS[cls]
        assert sub(*values) != sub(*(0,) * len(values))

    def test_mixed_positional_and_keyword(self, cls, values, text):
        _, *rest = cls.__slots__
        assert cls(values[0], **dict(zip(rest, values[1:]))) == cls(*values)

    @pytest.mark.parametrize("args, kwargs", [
        (lambda v: v[:-1], lambda f, v: {}),  # missing
        (lambda v: v + (0,), lambda f, v: {}),  # extra
        (lambda v: v, lambda f, v: {"bogus": 0}),  # unknown
        (lambda v: v[:-1], lambda f, v: {"bogus": 0}),  # unknown for missing
        (lambda v: v, lambda f, v: {f[0]: v[0]}),  # repeated
        (lambda v: v[:-1], lambda f, v: {f[0]: v[0]}),  # repeated for missing
    ], ids=["missing", "extra", "unknown", "unknown-for-missing",
            "repeated", "repeated-for-missing"])
    def test_bad_fields_raise_type_error(self, cls, values, text, args,
                                         kwargs):
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args(values), **kwargs(cls.__slots__, values))


def test_defaults():
    assert RationalPhase(5) == RationalPhase(5, 1) == RationalPhase(0)
    assert WeylWord(P2, ((1, 0),)).phase == RationalPhase(0)
    assert OperatorSet(P2, (((1, 0),),)).name is None


def test_unequal_values():
    assert RationalPhase(1, 4) != RationalPhase(3, 4)
    phase = FIELDLESS[RationalPhase]
    assert phase(1, 4) != phase(3, 4)
    assert LatticeParams(2) != LatticeParams(3)
    assert WeylWord(P2, ((1, 0),)) != WeylWord(P2, ((1, 0),),
                                                RationalPhase(1, 2))
    assert OperatorSet(P2, (((1, 0),),)) != OperatorSet(P2, (((1, 0),),), "x")


def test_post_init_checks_kept():
    with pytest.raises(ZeroDivisionError):
        RationalPhase(1, 0)
    with pytest.raises(ValueError):
        LatticeParams(1)
    with pytest.raises(ValueError):
        OperatorSet(P2, ())
    with pytest.raises(ValueError):
        OperatorSet(P2, (((1, 0),), ((1, 0), (0, 1))))
    with pytest.raises(ValueError):
        LhvAssignment((0.0,), ())
    with pytest.raises(ValueError):
        LhvAssignment((float("nan"),), (0.0,))
    with pytest.raises(ValueError):
        GaussianComb(0.0, (), 0.5)
    with pytest.raises(ValueError):
        GaussianComb(float("inf"), (1j, 1j), 0.5)
    with pytest.raises(ValueError):
        GaussianComb(0.0, (1j,), 0.0)
    with pytest.raises(ValueError):
        ProductStateSum(())
    with pytest.raises(ValueError):
        ProductStateSum(((1.0, (COMB,)), (1.0, (COMB, COMB))))


class TestMonomial:
    """A Monomial holds lists, so it is equal only to itself."""

    def test_identity_equality_and_hash(self):
        a = Monomial(2, [1, 0], [1, 0], RationalPhase(0))
        b = Monomial(2, [1, 0], [1, 0], RationalPhase(0))
        assert a == a and a != b
        assert hash(a) == object.__hash__(a)
        assert len({a, b}) == 2

    def test_keyword_construction_and_repr(self):
        a = Monomial(d=2, perm=[1, 0], power=[1, 0], phase=RationalPhase(0))
        assert (a.d, a.perm, a.power, a.phase) \
            == (2, [1, 0], [1, 0], RationalPhase(0))
        assert repr(a) == ("Monomial(d=2, perm=[1, 0], power=[1, 0], "
                           f"phase={ZERO_REPR})")

    def test_bad_fields_raise_type_error(self):
        zero = RationalPhase(0)
        with pytest.raises(TypeError):
            Monomial(2, [0])
        with pytest.raises(TypeError):
            Monomial(2, [0], [0], zero, zero)
        with pytest.raises(TypeError):
            Monomial(2, [0], [0], phase=zero, scale=2)

    def test_fields_are_read_only(self):
        a = Monomial(2, [0], [1], RationalPhase(0))
        with pytest.raises(AttributeError):
            a.perm = [0]
        with pytest.raises(AttributeError):
            del a.power
