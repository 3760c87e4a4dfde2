"""Exact truncated series arithmetic: inversion, roots, radicals."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patavoid.closed_forms import REGISTRY as GFS, closed_form
from patavoid.series import Poly, TruncatedSeries, algebraic_root, divide_cancel


def S(terms, order):
    return TruncatedSeries.from_terms(order, terms)


def test_poly_arithmetic():
    p = Poly({(1, 0): 1, (0, 0): 2})  # u + 2
    q = Poly({(0, 1): 1})  # v
    assert (p * q).terms == {(1, 1): 1, (0, 1): 2}
    assert (p - p).is_zero()
    assert p.subs_one(u=True) == Poly.const(3)
    assert str(Poly({(2, 1): 1, (0, 0): -1})) == "-1 + u^2v"


def test_poly_constants():
    assert Poly.const(0).is_zero()
    assert Poly.const(Fraction(1, 2)).constant_value() == Fraction(1, 2)
    with pytest.raises(ValueError):
        Poly({(1, 0): 1}).constant_value()


def test_geometric_series():
    inv = S({(0, 0, 0): 1, (1, 0, 0): -1}, 10).inverse()
    assert all(inv.coefficient(n) == Poly.const(1) for n in range(11))


def test_expand_rational_binomial():
    # 1/(1-t)^3 has coefficients C(n+2, 2)
    den = S({(0, 0, 0): 1, (1, 0, 0): -1}, 12)
    s = S({(0, 0, 0): 1}, 12) / (den * den * den)
    assert all(s.coefficient(n).constant_value() == comb(n + 2, 2)
               for n in range(13))


def test_sqrt_catalan():
    rad = S({(0, 0, 0): 1, (1, 0, 0): -4}, 12)
    num = S({(0, 0, 0): 1}, 12) - rad.sqrt()
    cat = divide_cancel(num, S({(1, 0, 0): 2}, 12))
    assert [cat.coefficient(n).constant_value() for n in range(6)] \
        == [1, 1, 2, 5, 14, 42]


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        S({(0, 0, 0): 4}, 3).sqrt()
    with pytest.raises(ValueError):
        S({(0, 1, 0): 1}, 3).sqrt()


def test_inverse_requires_unit():
    with pytest.raises(ValueError):
        S({(1, 0, 0): 1}, 3).inverse()
    with pytest.raises(ValueError):
        S({(0, 1, 0): 1, (0, 0, 0): 0}, 3).inverse()


def test_divide_cancel_common_power():
    num = S({(2, 0, 0): 1, (3, 0, 0): 1}, 8)  # t^2 (1 + t)
    den = S({(2, 0, 0): 2}, 8)  # 2 t^2
    q = divide_cancel(num, den)
    assert q.order == 6
    assert q.coefficient(0).constant_value() == Fraction(1, 2)
    assert q.coefficient(1).constant_value() == Fraction(1, 2)
    with pytest.raises(ValueError, match=r"^series not divisible by t\^2$"):
        divide_cancel(S({(1, 0, 0): 1}, 8), den)  # numerator too shallow
    with pytest.raises(ZeroDivisionError):
        divide_cancel(num, TruncatedSeries.zero(8))


def test_algebraic_root_catalan():
    # Y = t(1+Y)^2, so Y + 1 is the Catalan series.
    order = 15
    eq = [S({(1, 0, 0): 1}, order),
          S({(0, 0, 0): -1, (1, 0, 0): 2}, order),
          S({(1, 0, 0): 1}, order)]
    y = algebraic_root(eq, order)
    cats = [comb(2 * n, n) // (n + 1) for n in range(order + 1)]
    assert [y.coefficient(n).constant_value() for n in range(1, order + 1)] \
        == cats[1:]


def test_algebraic_root_preconditions():
    order = 5
    with pytest.raises(ValueError):
        algebraic_root([S({(0, 0, 0): 1}, order), S({(0, 0, 0): 1}, order)], order)
    with pytest.raises(ValueError):
        algebraic_root([S({(1, 0, 0): 1}, order), S({(1, 0, 0): 1}, order)], order)


def test_negative_order_is_refused():
    message = "order must be non-negative, got -1"
    with pytest.raises(ValueError, match=message):
        TruncatedSeries.zero(-1)
    with pytest.raises(ValueError, match=message):
        S({(0, 0, 0): 1}, 3).truncate(-1)
    with pytest.raises(ValueError, match=message):
        TruncatedSeries([])
    with pytest.raises(ValueError, match=message):
        algebraic_root([S({(1, 0, 0): 1}, 3), S({(0, 0, 0): -1}, 3)], -1)
    assert TruncatedSeries.zero(0).order == 0


@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 8, 127, 128, 200])
def test_newton_stops_when_precision_covers_order(monkeypatch, order):
    # each Newton step inverts the derivative once and doubles the precision
    # from t^1, so t^(order+1) takes ceil(log2(order + 1)) steps, at least
    # one; for order >= 1 that is the bit length of order
    calls = []
    inverse = TruncatedSeries.inverse
    monkeypatch.setattr(TruncatedSeries, "inverse",
                        lambda self: calls.append(self.order) or inverse(self))
    closed_form("J", order)
    assert len(calls) == max(1, order.bit_length())


def test_str_formatting():
    s = S({(1, 1, 1): 1, (2, 1, 0): 2, (3, 0, 0): -1}, 3)
    assert str(s) == "(uv)t + (2u)t^2 - t^3"
    assert str(TruncatedSeries.zero(2)) == "0"


small_series = st.lists(
    st.integers(-3, 3), min_size=7, max_size=7).map(
        lambda cs: TruncatedSeries([Poly.const(c) for c in cs], 6))


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_product_division_round_trip(a, b):
    c0 = b.coefficient(0)
    if c0.is_zero():
        b = b + S({(0, 0, 0): 1}, 6)
    assert (a * b) / b == a


@settings(max_examples=60, deadline=None)
@given(small_series)
def test_double_inverse(s):
    if s.coefficient(0).is_zero():
        s = s + S({(0, 0, 0): 1}, 6)
    assert s.inverse().inverse() == s


@settings(max_examples=60, deadline=None)
@given(small_series)
def test_sqrt_squares(s):
    sq = (s * s).truncate(6)
    shifted = sq + S({(0, 0, 0): 1 - (sq.coefficient(0).constant_value()
                                      if sq.coefficient(0).is_constant() else 0)}, 6)
    root = shifted.sqrt()
    assert root * root == shifted


small_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              st.integers(-2, 2), max_size=3).map(Poly)
units = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2)])


@st.composite
def bivariate_series(draw, constant=None):
    """Order-5 series over Q[u, v]; ``constant`` draws the t^0 coefficient."""
    coeffs = [draw(small_polys) for _ in range(6)]
    if constant is not None:
        coeffs[0] = Poly.const(draw(constant))
    return TruncatedSeries(coeffs, 5)


@settings(max_examples=60, deadline=None)
@given(bivariate_series(), bivariate_series(units))
def test_bivariate_division_round_trip(a, b):
    assert (a * b) / b == a
    assert b.inverse() * b == TruncatedSeries([1], 5)


@settings(max_examples=40, deadline=None)
@given(bivariate_series(), bivariate_series(units), st.integers(0, 3))
def test_bivariate_divide_cancel_round_trip(a, b, k):
    def times_t_to_k(s):
        return TruncatedSeries([0] * k + s.coeffs, s.order + k)

    q = divide_cancel(times_t_to_k(a * b), times_t_to_k(b))
    assert q.order == 5 and q == a


def _all_int(s):
    return all(type(c) is int for p in s.coeffs for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(bivariate_series(), bivariate_series(st.sampled_from([1, -1])))
def test_division_by_unit_stays_integer(s, d):
    assert _all_int(s / d)
    assert _all_int(d.inverse())


def test_sqrt_stays_integer():
    for radicand in ({(0, 0, 0): 1, (1, 0, 0): -4},
                     {(0, 0, 0): 1, (1, 0, 0): -2, (2, 0, 0): -3}):
        assert _all_int(S(radicand, 30).sqrt())
    # halving is exact: sqrt(1 + t) = 1 + t/2 - t^2/8 + ...
    root = S({(0, 0, 0): 1, (1, 0, 0): 1}, 3).sqrt()
    assert [root.coefficient(n).constant_value() for n in range(4)] \
        == [1, Fraction(1, 2), Fraction(-1, 8), Fraction(1, 16)]


def test_newton_root_stays_integer():
    assert _all_int(closed_form("J", 50))


@pytest.mark.parametrize("name", ["D", "K1", "M", "F"])
def test_integral_quotient_stays_integer(name):
    # the denominator's lowest coefficient is not 1 or -1 (2 for D), so the
    # quotient is scaled by a fractional reciprocal; the counts are integers
    at_one = {f"at_{var}": 1 for var in GFS[name].variables}
    assert _all_int(closed_form(name, 20, **at_one))
