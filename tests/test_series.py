"""Exact truncated series arithmetic: inversion, roots, radicals."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patavoid.closed_forms import (REGISTRY as GFS, closed_form, formula_value, gf_counts,
                                   rule_series, verify_identity)
from patavoid.series import Poly, TruncatedSeries, algebraic_root, divide_cancel


def S(terms, order):
    return TruncatedSeries.from_terms(order, terms)


def _fractions(rng, count):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(count)]


def test_poly_arithmetic():
    p = Poly({(1, 0): 1, (0, 0): 2})  # u + 2
    q = Poly({(0, 1): 1})  # v
    assert (p * q).terms == {(1, 1): 1, (0, 1): 2}
    assert not p - p
    assert p.subs_one(u=True) == Poly.const(3)
    assert str(Poly({(2, 1): 1, (0, 0): -1})) == "-1 + u^2v"
    # a plain number is a constant polynomial on either side of + and *
    assert (p + 3).terms == (3 + p).terms == {(1, 0): 1, (0, 0): 5}
    assert (p + -2).terms == {(1, 0): 1}
    assert (3 - p).terms == {(1, 0): -1, (0, 0): 1}
    assert (Fraction(1, 2) - p).terms == {(1, 0): -1, (0, 0): Fraction(-3, 2)}
    assert not 2 - Poly.const(2)
    assert (2 * p).terms == {(1, 0): 2, (0, 0): 4}
    half = p * Fraction(1, 2)
    assert half.terms == {(1, 0): Fraction(1, 2), (0, 0): 1}
    assert type(half.terms[(0, 0)]) is int
    assert not Poly() and p
    assert not p * 0 and not 0 * p


def test_poly_constants():
    assert not Poly.const(0)
    assert Poly.const(Fraction(1, 2)).constant_value() == Fraction(1, 2)
    with pytest.raises(ValueError):
        Poly({(1, 0): 1}).constant_value()


def test_foreign_comparisons_are_false_and_reads_past_the_order_refused():
    # Each __eq__ gives way to a type it does not know, so Python compares
    # identities: a Poly is no text, and a series is no number.
    s = S({(0, 0, 0): 1}, 3)
    assert (Poly({(1, 0): 1}) == "u") is False
    assert (s == 1) is False and (TruncatedSeries.zero(2) == 0) is False
    assert s.coefficient(3) == 0
    for n in (4, -1):
        with pytest.raises(IndexError, match=f"coefficient {n} beyond order 3"):
            s.coefficient(n)


def _random_poly(rng, max_terms=6):
    coeff = (lambda: rng.choice([-3, -1, 1, 2, 5])) if rng.random() < 0.5 else (
        lambda: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)))
    return Poly({(rng.randint(0, 3), rng.randint(0, 3)): coeff()
                 for _ in range(rng.randint(0, max_terms))})


def _oracle_sum(p, q, sign=1):
    out = {}
    for terms, s in ((p.terms, 1), (q.terms, sign)):
        for k, c in terms.items():
            out[k] = out.get(k, 0) + s * c
    return {k: c for k, c in out.items() if c}


def _oracle_product(p, q):
    out = {}
    for (a1, b1), c1 in p.terms.items():
        for (a2, b2), c2 in q.terms.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def test_poly_arithmetic_matches_a_dict_of_sums():
    rng = random.Random(27)
    for _ in range(400):
        p = _random_poly(rng)
        kind = rng.randrange(5)
        if kind == 0:
            q = Poly()
        elif kind == 1:
            q = _random_poly(rng, max_terms=1) or Poly({(1, 2): Fraction(-1, 3)})
        elif kind == 2:
            q = -p  # cancels every term of a sum
        elif kind == 3:
            # cancels some of p's terms and adds others
            q = Poly({k: -c for k, c in p.terms.items() if rng.random() < 0.5})
            q = q + _random_poly(rng, max_terms=3)
        else:
            q = _random_poly(rng)
        cases = [(p + q, _oracle_sum(p, q)), (q + p, _oracle_sum(q, p)),
                 (p - q, _oracle_sum(p, q, -1)),
                 (p * q, _oracle_product(p, q)), (q * p, _oracle_product(q, p))]
        for result, expected in cases:
            assert result.terms == expected, (p, q)
            assert all(result.terms.values()), (p, q)


def test_adding_zero_and_multiplying_by_one_return_the_operand():
    p = Poly({(1, 0): Fraction(1, 2), (0, 2): -3})
    for q in (p + 0, 0 + p, p + Poly(), Poly() + p, p * 1, 1 * p, p * Fraction(1)):
        assert q is p


def _polys_of(*items):
    """Every ``Poly`` held by the given series, tuples and lists of series,
    and polys."""
    found = []
    for x in items:
        if isinstance(x, Poly):
            found.append(x)
        elif isinstance(x, TruncatedSeries):
            found += [c for c in x._coeffs if isinstance(c, Poly)]
        elif isinstance(x, (list, tuple)):
            found += _polys_of(*x)
    return found


def test_no_operation_mutates_an_operand():
    # Results may share an operand's Poly (x + 0 and x * 1 are x), which is
    # sound only while no operation writes into an operand's term map.
    rng = random.Random(11)
    a = TruncatedSeries([_random_poly(rng) for _ in range(9)])
    b = TruncatedSeries([1, *(_random_poly(rng) for _ in range(8))])
    p = _random_poly(rng) + Poly({(1, 1): 2})
    candidate = rule_series("C4", 25)
    parts = [part for name in ("K2", "M") for part in GFS[name].parts.values()]
    polys = _polys_of(a, b, p, candidate, parts)
    assert len(polys) > 20
    before = [dict(x.terms) for x in polys]
    assert a * b == b * a and (a * b) / b == a
    assert a + b == b + a and (a - b + (b - a)).is_zero()
    assert a.scale(1) == a and a.scale(p) != a
    assert a.subs_one(u=True) != a.subs_one(v=True)
    closed_form("K2", 25)
    assert verify_identity("M", candidate, 25) == (True, None)
    assert [dict(x.terms) for x in polys] == before


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


def test_sqrt_matches_the_full_convolution():
    # r_n = (s_n - sum_{0<i<n} r_i r_(n-i)) / 2 with every term of the sum
    rng = random.Random(11)
    order = 60
    for _ in range(8):
        s = [1, *_fractions(rng, rng.randint(1, 5))]
        s += [0] * (order + 1 - len(s))
        r = [Fraction(1)]
        for n in range(1, order + 1):
            r.append((s[n] - sum(r[i] * r[n - i] for i in range(1, n))) / 2)
        assert [c.constant_value() for c in TruncatedSeries(s).sqrt().coeffs] == r, s


def test_sqrt_requires_unit_constant():
    with pytest.raises(ValueError):
        S({(0, 0, 0): 4}, 3).sqrt()
    with pytest.raises(ValueError):
        S({(0, 1, 0): 1}, 3).sqrt()
    # u anywhere in the radicand is refused, not just at t^0
    with pytest.raises(ValueError, match="u,v-free radicand"):
        S({(0, 0, 0): 1, (2, 1, 0): 1}, 3).sqrt()


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


def _naive_root(eq, order):
    """Y's coefficients one at a time: [t^n] of sum_i c_i Y^i is c_1(0) y_n
    plus terms in y_1..y_(n-1) only, so y_n is read off that coefficient
    evaluated with y_n = 0."""
    def product(p, q):
        return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(order + 1)]

    y = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        power, total = [1] + [0] * order, [0] * (order + 1)
        for c in eq:
            total = [s + x for s, x in zip(total, product(c, power))]
            power = product(power, y)
        y[n] = -total[n] / eq[1][0]
    return y


def test_algebraic_root_matches_a_naive_solver():
    # random equations of degree 1 to 3 in Y with Fraction coefficients,
    # c_0(0) = 0 and c_1(0) neither 1 nor -1
    rng = random.Random(7)
    for _ in range(40):
        order = rng.randint(0, 20)
        eq = [_fractions(rng, 4) + [0] * order for _ in range(rng.randint(2, 4))]
        eq[0][0] = 0
        eq[1][0] = rng.choice([2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)])
        eq = [c[:order + 1] for c in eq]
        y = algebraic_root([TruncatedSeries(c) for c in eq], order)
        assert [c.constant_value() for c in y.coeffs] == _naive_root(eq, order), eq


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
        S({(0, 0, 0): 1}, 3).to_order(-1)
    with pytest.raises(ValueError, match=message):
        TruncatedSeries([])
    with pytest.raises(ValueError, match=message):
        algebraic_root([S({(1, 0, 0): 1}, 3), S({(0, 0, 0): -1}, 3)], -1)
    assert TruncatedSeries.zero(0).order == 0


@pytest.mark.parametrize("order", [0, 1, 2, 3, 7, 8, 127, 128, 200])
def test_newton_stops_when_precision_covers_order(monkeypatch, order):
    # each Newton step inverts the derivative once and doubles the precision
    # from t^1, so t^(order+1) takes ceil(log2(order + 1)) steps, at least
    # one; for order >= 1 that is the bit length of order.  The step from
    # Y mod t^prec inverts f' only mod t^prec, at order prec - 1.
    calls = []
    inverse = TruncatedSeries.inverse
    monkeypatch.setattr(TruncatedSeries, "inverse",
                        lambda self: calls.append(self.order) or inverse(self))
    closed_form("J", order)
    assert calls == [2 ** i - 1 for i in range(max(1, order.bit_length()))]


def test_str_formatting():
    s = S({(1, 1, 1): 1, (2, 1, 0): 2, (3, 0, 0): -1}, 3)
    assert str(s) == "(uv)t + (2u)t^2 - t^3"
    assert str(TruncatedSeries.zero(2)) == "0"


@contextmanager
def poly_products():
    """Record each ``Poly`` product made inside the block."""
    calls = []
    mul = Poly.__mul__
    Poly.__mul__ = lambda p, q: calls.append(1) or mul(p, q)
    try:
        yield calls
    finally:
        Poly.__mul__ = mul


POLY_METHODS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "subs_one")


@pytest.fixture
def poly_calls(monkeypatch):
    """Record the name of each ``Poly`` construction or arithmetic call."""
    calls = []
    for name in POLY_METHODS:
        method = Poly.__dict__[name]
        monkeypatch.setattr(Poly, name, lambda *args, _name=name, _method=method:
                            calls.append(_name) or _method(*args))
    return calls


def test_uv_free_series_make_no_poly(poly_calls):
    rng = random.Random(5)
    a = TruncatedSeries([1, *_fractions(rng, 40)])
    b = TruncatedSeries([2, *_fractions(rng, 30)], 40)
    results = [a + b, a - b, b - a, a.scale(3), a.scale(Fraction(-2, 3)),
               a.subs_one(u=True), b.subs_one(u=True, v=True), a.to_order(10), a.sqrt(),
               closed_form("J", 60)]
    assert not poly_calls
    assert all(type(c) in (int, Fraction) for r in results for c in r._coeffs)
    assert (a - b).coeffs == [x - y for x, y in zip(a.coeffs, b.coeffs)]


def test_an_empty_substitution_is_the_series_itself():
    s = S({(1, 1, 0): 1, (2, 0, 0): 3}, 4)
    assert s.subs_one() is s
    assert s.subs_one(u=True).coefficient(1) == Poly.const(1)
    assert s.to_order(4) is s
    assert s.to_order(6).order == 6 and s.to_order(6) == s
    with pytest.raises(ValueError, match="order must be non-negative, got -1"):
        s.to_order(-1)


small_series = st.lists(
    st.integers(-3, 3), min_size=7, max_size=7).map(
        lambda cs: TruncatedSeries([Poly.const(c) for c in cs], 6))


@settings(max_examples=60, deadline=None)
@given(small_series, small_series)
def test_product_division_round_trip(a, b):
    c0 = b.coefficient(0)
    if not c0:
        b = b + S({(0, 0, 0): 1}, 6)
    assert (a * b) / b == a


@settings(max_examples=60, deadline=None)
@given(small_series)
def test_double_inverse(s):
    if not s.coefficient(0):
        s = s + S({(0, 0, 0): 1}, 6)
    assert s.inverse().inverse() == s


@settings(max_examples=60, deadline=None)
@given(small_series)
def test_sqrt_squares(s):
    sq = (s * s).to_order(6)
    shifted = sq + S({(0, 0, 0): 1 - (sq.coefficient(0).constant_value()
                                      if sq.coefficient(0).is_constant() else 0)}, 6)
    root = shifted.sqrt()
    assert root * root == shifted


small_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              st.integers(-2, 2), max_size=3).map(Poly)
units = st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2)])


@st.composite
def bivariate_series(draw, constant=None, symbolic=False):
    """Order-5 series over Q[u, v]; ``constant`` draws the t^0 coefficient,
    and ``symbolic`` adds u^3, v^3 or u^3v^3 at t^1 so the series is not
    u,v-free."""
    coeffs = [draw(small_polys) for _ in range(6)]
    if constant is not None:
        coeffs[0] = Poly.const(draw(constant))
    if symbolic:
        coeffs[1] = coeffs[1] + Poly({draw(st.sampled_from([(3, 0), (0, 3), (3, 3)])): 1})
    return TruncatedSeries(coeffs, 5)


@settings(max_examples=60, deadline=None)
@given(bivariate_series(symbolic=True), bivariate_series(units, symbolic=True))
def test_symbolic_product_division_round_trip(a, b):
    # symbolic coefficients make Poly products, which u,v-free series do not
    with poly_products() as calls:
        assert (a * b) / b == a
    assert calls


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
    assert _all_int(closed_form("J", 200))
    assert _all_int(closed_form("Q", 200))


def test_deep_newton_counts_within_a_time_gate():
    # Newton for J and Q must run on plain numbers: on Poly coefficients
    # these two expansions take about 3 s
    start = time.perf_counter()
    deep = {cid: gf_counts(cid, 400) for cid in ("C2", "C2e")}
    elapsed = time.perf_counter() - start
    assert deep["C2"] == [formula_value("cat3", n) for n in range(1, 401)]
    assert deep["C2e"] == [formula_value("even_formula", n) for n in range(1, 401)]
    assert all(type(c) is int for counts in deep.values() for c in counts)
    assert elapsed < 1, elapsed


@pytest.mark.parametrize("name", ["D", "K1", "M", "F"])
def test_integral_quotient_stays_integer(name):
    # the denominator's lowest coefficient is not 1 or -1 (2 for D), so the
    # quotient is scaled by a fractional reciprocal; the counts are integers
    at_one = {f"at_{var}": 1 for var in GFS[name].variables}
    assert _all_int(closed_form(name, 20, **at_one))


@pytest.mark.parametrize("name", sorted(GFS))
def test_every_closed_form_holds_int_coefficients(name):
    # What the package promises for closed_form, symbolic or substituted;
    # general series arithmetic may leave an integral Fraction.
    variables = GFS[name].variables
    for at_u in ((None, 1) if "u" in variables else (None,)):
        for at_v in ((None, 1) if "v" in variables else (None,)):
            assert _all_int(closed_form(name, 12, at_u=at_u, at_v=at_v)), (at_u, at_v)


scalars = st.one_of(st.just(0), st.integers(-5, 5),
                    st.fractions(-3, 3, max_denominator=4))
symbolic_entries = st.builds(lambda c, mono, const: Poly({mono: c, (0, 0): const}),
                             scalars.filter(bool),
                             st.sampled_from([(1, 0), (0, 1), (1, 1)]), scalars)


@st.composite
def operand_lists(draw):
    """Order-7 numerator and denominator coefficient lists with zero gaps.

    Half the draws are u,v-free; the others mix ``Poly`` entries carrying u
    or v in among plain numbers.  The denominator's t^0 entry is a nonzero
    plain number."""
    entry = st.one_of(scalars, symbolic_entries) if draw(st.booleans()) else scalars
    num = draw(st.lists(entry, min_size=8, max_size=8))
    den = [draw(scalars.filter(bool)), *draw(st.lists(entry, min_size=7, max_size=7))]
    return num, den


def convolve(a, b):
    """The product's coefficients with every entry held as a Poly, so only
    Poly x Poly and Poly + Poly arithmetic runs."""
    a, b = ([x if isinstance(x, Poly) else Poly.const(x) for x in xs] for xs in (a, b))
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Poly()) for n in range(len(a))]


@settings(max_examples=80, deadline=None)
@given(operand_lists())
def test_dense_path_matches_the_oracles(operands):
    a, d = operands
    num, den = TruncatedSeries(a), TruncatedSeries(d)
    with poly_products() as calls:
        product, ratio = num * den, num / den
    assert product.coeffs == convolve(a, d)
    assert convolve(ratio.coeffs, d) == a
    assert den * num == product
    # no stored coefficient is a u,v-free Poly
    for s in (num, den, product, ratio, num - den, num + den):
        assert not any(isinstance(c, Poly) and c.is_constant() for c in s._coeffs)
    symbolic = any(isinstance(c, Poly) for c in a + d)
    if not symbolic:
        assert not calls  # two u,v-free operands make no Poly at all
    elif a[0]:
        # the t^0 terms of both operands are nonzero, so the product pairs
        # each symbolic entry with one of them
        assert calls
