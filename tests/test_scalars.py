from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetalg import Jet, rational, scalar_is_zero, scalar_low_order

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)


def jets(order=3):
    return st.lists(fractions, min_size=order + 1, max_size=order + 1).map(Jet)


def test_truncated_products():
    one_plus = Jet([Fraction(1), Fraction(1), Fraction(0)])
    one_minus = Jet([Fraction(1), Fraction(-1), Fraction(0)])
    assert one_plus * one_minus == Jet([Fraction(1), Fraction(0), Fraction(-1)])

    exp_ish = Jet([Fraction(1), Fraction(1), Fraction(1, 2)])
    assert exp_ish * exp_ish == Jet([Fraction(1), Fraction(2), Fraction(2)])


def test_promotion_from_int_and_fraction():
    a = Jet.h(2)
    assert 1 + a == Jet([Fraction(1), Fraction(1), Fraction(0)])
    assert Fraction(1, 2) * a == Jet([Fraction(0), Fraction(1, 2), Fraction(0)])
    assert a - 1 == Jet([Fraction(-1), Fraction(1), Fraction(0)])


def test_low_order_and_zero_predicates():
    assert scalar_is_zero(Jet.zero(3))
    assert scalar_is_zero(Fraction(0))
    assert not scalar_is_zero(Jet.h(3, 2))
    assert scalar_low_order(Jet.h(3, 2)) == 2
    assert scalar_low_order(Fraction(5)) == 0
    assert Jet.zero(2).low_order() is None


def test_equal_orders_required():
    with pytest.raises(ValueError):
        Jet.h(2) + Jet.h(3)


def test_rational_parses_strings_and_ints():
    assert rational("3/4") == Fraction(3, 4)
    assert rational(7) == Fraction(7)


@given(jets(), jets(), jets())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == Jet.zero(a.order)


@given(jets(order=4))
def test_one_is_neutral(a):
    assert 1 * a == a
    assert a + 0 == a


@given(jets(order=2), jets(order=2))
def test_product_coefficients_are_convolutions(a, b):
    p = a * b
    for s in range(3):
        assert p.coeff(s) == sum(a.coeff(t) * b.coeff(s - t) for t in range(s + 1))
