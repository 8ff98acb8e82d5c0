"""Exact-algebra tests for the lattice Weyl words."""

import pytest
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cvghz.weyl import (LatticeParams, RationalPhase, WeylWord,
                        commutation_phase, crossing, dagger, identity_word,
                        is_scalar, make_generator, multiply, product,
                        symplectic)


class TestRationalPhase:
    def test_reduced_and_canonical(self):
        p = RationalPhase(6, 4)
        assert (p.numerator, p.denominator) == (1, 2)
        assert RationalPhase(-1, 4) == RationalPhase(3, 4)
        assert RationalPhase(7, 7) == RationalPhase(0)

    def test_arithmetic_is_exact(self):
        a = RationalPhase(1, 3)
        b = RationalPhase(1, 2)
        assert (a + b).turns == Fraction(5, 6)
        assert (-a).turns == Fraction(2, 3)
        assert a.scaled(3) == RationalPhase(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalPhase(1, 0)

    def test_to_complex(self):
        assert abs(RationalPhase(1, 2).to_complex() + 1) < 1e-15
        assert abs(RationalPhase(1, 4).to_complex() - 1j) < 1e-15


class TestGenerators:
    def test_x_generator_d2(self):
        w = make_generator(LatticeParams(2), 3, 0, "X", 1)
        assert w.exponents == ((1, 0), (0, 0), (0, 0))
        assert w.phase.is_zero

    def test_y_generator_d4(self):
        w = make_generator(LatticeParams(4), 5, 1, "Y", -3)
        assert w.exponents[1] == (0, -3)
        assert all(e == (0, 0) for i, e in enumerate(w.exponents) if i != 1)

    def test_zero_exponent_is_identity(self):
        w = make_generator(LatticeParams(3), 2, 1, "X", 0)
        assert w == identity_word(LatticeParams(3), 2)

    def test_party_out_of_range(self):
        with pytest.raises(IndexError):
            make_generator(LatticeParams(2), 3, 3, "X", 1)

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            make_generator(LatticeParams(2), 3, 0, "Z", 1)

    def test_d_below_two_rejected(self):
        with pytest.raises(ValueError):
            LatticeParams(1)


class TestMultiply:
    def test_xy_already_ordered(self):
        p = LatticeParams(2)
        x = make_generator(p, 1, 0, "X", 1)
        y = make_generator(p, 1, 0, "Y", 1)
        w = multiply(x, y)
        assert w.exponents == ((1, 1),)
        assert w.phase.is_zero

    def test_yx_picks_up_half_turn(self):
        p = LatticeParams(2)
        x = make_generator(p, 1, 0, "X", 1)
        y = make_generator(p, 1, 0, "Y", 1)
        w = multiply(y, x)
        assert w.exponents == ((1, 1),)
        assert w.phase == RationalPhase(1, 2)

    def test_mismatched_params_rejected(self):
        a = identity_word(LatticeParams(2), 1)
        b = identity_word(LatticeParams(3), 1)
        with pytest.raises(ValueError):
            multiply(a, b)
        with pytest.raises(ValueError):
            multiply(a, identity_word(LatticeParams(2), 2))


class TestDagger:
    def test_identity(self):
        w = identity_word(LatticeParams(2), 2)
        assert dagger(w) == w

    def test_generator_adjoint(self):
        w = make_generator(LatticeParams(4), 1, 0, "X", 1)
        dw = dagger(w)
        assert dw.exponents == ((-1, 0),)
        assert dw.phase.is_zero

    def test_unitarity_mixed_word(self):
        p = LatticeParams(2)
        w = WeylWord(p, ((1, 1),), RationalPhase(1, 4))
        assert multiply(w, dagger(w)) == identity_word(p, 1)
        assert multiply(dagger(w), w) == identity_word(p, 1)


class TestCommutationPhase:
    def test_d2_half_turn(self):
        p = LatticeParams(2)
        x = make_generator(p, 1, 0, "X", 1)
        y = make_generator(p, 1, 0, "Y", 1)
        assert commutation_phase(x, y) == RationalPhase(1, 2)

    def test_d4_quarter_turn(self):
        p = LatticeParams(4)
        x = make_generator(p, 1, 0, "X", 1)
        y = make_generator(p, 1, 0, "Y", 1)
        assert commutation_phase(x, y) == RationalPhase(1, 4)

    def test_self_commutation(self):
        w = WeylWord(LatticeParams(3), ((2, -1), (0, 3)))
        assert commutation_phase(w, w).is_zero


class TestIsScalar:
    def test_identity(self):
        assert is_scalar(identity_word(LatticeParams(2), 3)) == RationalPhase(0)

    def test_nonscalar(self):
        assert is_scalar(make_generator(LatticeParams(2), 3, 0, "X", 1)) is None

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            product([])

    def test_v4_product(self):
        from cvghz.paradox import builtin
        prod = product(builtin("v4").operators)
        assert is_scalar(prod) == RationalPhase(1, 2)


# ---------------------------------------------------------------------------
# Algebraic property tests

@st.composite
def word_batch(draw, count):
    """`count` words sharing lattice params and party count.

    Exponents are small, so words often commute, or beyond +-2**63, where
    fixed-width integer arithmetic would wrap.
    """
    d = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=1, max_value=3))
    params = LatticeParams(d)
    exponent = st.integers(-4, 4) | st.integers(-2 ** 70, 2 ** 70)
    words = []
    for _ in range(count):
        exps = tuple((draw(exponent), draw(exponent)) for _ in range(n))
        phase = RationalPhase(draw(st.integers(0, 2 * d - 1)), 2 * d)
        words.append(WeylWord(params, exps, phase))
    return words


@settings(max_examples=200, deadline=None)
@given(word_batch(3))
def test_associativity(words):
    a, b, c = words
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@settings(max_examples=200, deadline=None)
@given(word_batch(2))
def test_exchange_law(words):
    a, b = words
    ab = multiply(a, b)
    ba = multiply(b, a)
    rescaled = WeylWord(ba.params, ba.exponents,
                        ba.phase + commutation_phase(a, b))
    assert ab == rescaled


@settings(max_examples=200, deadline=None)
@given(word_batch(1))
def test_unitarity(words):
    (a,) = words
    ident = identity_word(a.params, a.n_parties)
    assert multiply(a, dagger(a)) == ident
    assert multiply(dagger(a), a) == ident


@settings(max_examples=200, deadline=None)
@given(word_batch(2))
def test_symplectic_is_antisymmetrized_crossing(words):
    a, b = (w.exponents for w in words)
    assert symplectic(a, b) == crossing(b, a) - crossing(a, b)
    assert symplectic(a, b) == -symplectic(b, a)


def test_d2_generator_squares_add_exactly():
    p = LatticeParams(2)
    for axis in ("X", "Y"):
        for e in (1, -1):
            g = make_generator(p, 1, 0, axis, e)
            sq = multiply(g, g)
            assert sq.phase.is_zero
            expected = (2 * e, 0) if axis == "X" else (0, 2 * e)
            assert sq.exponents == (expected,)
