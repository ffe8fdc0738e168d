from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetainv.errors import UnsupportedWeightError
from thetainv.qseries import QSeries, delta_series, eisenstein, format_rational, sigma


def series(*coeffs):
    return QSeries(len(coeffs) - 1, [Fraction(c) for c in coeffs])


def test_binomial_square():
    one_plus_q = series(1, 1, 0)
    assert one_plus_q * one_plus_q == series(1, 2, 1)


def test_multiplication_by_zero_annihilates():
    f = series(3, -2, Fraction(1, 7), 5)
    assert f * QSeries.zero(3) == QSeries.zero(3)


def test_delta_squared_first_terms():
    d = delta_series(4)
    assert (d * d).coeffs == (0, 0, 1, -48, 1080)


def test_mixed_orders_truncate_to_min():
    f = series(1, 2, 3, 4, 5)
    g = series(1, 1)
    assert (f + g).order == 1
    assert (f * g).order == 1
    assert (f * g).coeffs == (1, 3)


def test_truncate_and_coeff_bounds():
    f = series(1, 2, 3)
    assert f.truncate(1) == series(1, 2)
    with pytest.raises(ValueError):
        f.truncate(5)
    with pytest.raises(IndexError):
        f.coeff(3)


def test_sigma_values():
    assert sigma(7, 1) == 1
    assert sigma(3, 2) == 9
    assert sigma(5, 4) == 1057
    assert [sigma(3, n) for n in range(1, 7)] == [1, 9, 28, 73, 126, 252]


@settings(max_examples=200)
@given(st.integers(1, 10_000), st.integers(1, 10_000), st.integers(1, 9))
def test_sigma_multiplicative_on_coprime(a, b, k):
    if gcd(a, b) != 1:
        return
    assert sigma(k, a * b) == sigma(k, a) * sigma(k, b)


def test_eisenstein_normalizations():
    g8 = eisenstein(8, 3)
    assert g8.coeff(0) == Fraction(1, 480)
    assert g8.coeff(1) == 1
    assert g8.coeff(2) == sigma(7, 2)
    assert eisenstein(6, 0).coeff(0) == Fraction(-1, 504)
    assert eisenstein(10, 0).coeff(0) == Fraction(-1, 264)
    with pytest.raises(UnsupportedWeightError):
        eisenstein(12, 4)


def test_delta_first_terms():
    d = delta_series(8)
    assert d.coeff(0) == 0
    assert d.coeff(1) == 1
    assert d.coeffs[:5] == (0, 1, -24, 252, -1472)


def test_delta_truncation_consistency():
    assert delta_series(12).truncate(7) == delta_series(7)


def _euler_product_pentagonal(order):
    """Independent route to prod (1 - q^n): the pentagonal-number expansion."""
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 > order and e2 > order:
            break
        if e1 <= order:
            coeffs[e1] += Fraction((-1) ** k)
        if e2 <= order:
            coeffs[e2] += Fraction((-1) ** k)
        k += 1
    return QSeries(order, coeffs)


def test_delta_against_pentagonal_oracle():
    order = 20
    eta = _euler_product_pentagonal(order)
    expected = eta**24
    expected = QSeries(order, [Fraction(0)] + list(expected.coeffs[:order]))
    assert delta_series(order) == expected


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12).map(Fraction)


def qseries_strategy(order):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        lambda cs: QSeries(order, cs))


@settings(max_examples=60, deadline=None)
@given(qseries_strategy(8), qseries_strategy(8), qseries_strategy(8))
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def test_json_roundtrip():
    f = QSeries(3, [1, Fraction(-3, 7), 0, 2])
    doc = f.to_json_dict()
    assert doc == {"order": 3, "coeffs": ["1", "-3/7", "0", "2"]}
    assert QSeries(doc["order"], [Fraction(c) for c in doc["coeffs"]]) == f


def test_format_rational():
    assert format_rational(Fraction(3, 896)) == "3/896"
    assert format_rational(Fraction(-5)) == "-5"
