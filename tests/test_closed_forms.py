"""Generating-function registry: expansion, identities, count formulas."""

import hashlib
import math
import signal
import time
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from patavoid.closed_forms import (GF_FOR_CLASS, REGISTRY as GFS, closed_form,
                                   formula_value, gf_counts, rule_series,
                                   series_from_refined, verify_identity)
from patavoid.rules import REGISTRY as CLASSES, count_by_rule, refined_by_rule
from patavoid.series import Poly, TruncatedSeries, divide_cancel


def test_pairing_covers_all_classes():
    assert set(GF_FOR_CLASS) == set(CLASSES)
    assert sorted(GF_FOR_CLASS.values()) == sorted(GFS)


@pytest.mark.parametrize("cid", sorted(GF_FOR_CLASS))
def test_expansion_matches_rule_counts(cid):
    assert gf_counts(cid, 10) == count_by_rule(CLASSES[cid], 10)


def test_known_expansions():
    # classes C1, C5, C6, C7, C8, C3 expand D, N, K2, H, F, K1
    assert gf_counts("C1", 7) == [formula_value("motzkin", n - 1) for n in range(1, 8)]
    assert gf_counts("C5", 8) == [2 ** (n - 1) for n in range(1, 9)]
    assert gf_counts("C6", 8) == [formula_value("west", n) for n in range(1, 9)]
    assert gf_counts("C7", 8) == [formula_value("fib_odd", n) for n in range(1, 9)]
    assert gf_counts("C8", 6) == [1, 2, 5, 13, 35, 97]
    assert gf_counts("C3", 6) == [1, 2, 5, 13, 35, 96]


# sha256 of _closed_form_dump(): pins every expansion and the type of each term
CLOSED_FORM_DIGEST = "b9d32540f9fcdf8f69e4999382154dba65dc2a8dfc0a43940ce576bc37a8521d"


def _closed_form_dump():
    """Every term of every closed form under each allowed substitution at
    orders 0, 1, 7 and 25, and of J and Q at 200, one line per term with
    the type of its coefficient."""
    lines = []
    cases = [(name, order) for name in sorted(GFS) for order in (0, 1, 7, 25)]
    cases += [("J", 200), ("Q", 200)]
    for name, order in cases:
        variables = GFS[name].variables
        for at_u in ((None, 1) if "u" in variables else (None,)):
            for at_v in ((None, 1) if "v" in variables else (None,)):
                s = closed_form(name, order, at_u=at_u, at_v=at_v)
                lines.append(f"{name} {order} {at_u} {at_v} {s.order}")
                for n in range(s.order + 1):
                    for (a, b), c in sorted(s.coefficient(n).terms.items()):
                        lines.append(f"{n} {a} {b} {type(c).__name__} {c}")
    return "\n".join(lines)


def test_closed_forms_match_the_recorded_digest():
    dump = _closed_form_dump()
    assert len(dump.splitlines()) == 14088
    assert hashlib.sha256(dump.encode()).hexdigest() == CLOSED_FORM_DIGEST


def test_sum_expansions():
    p = closed_form("P", 8)
    assert str(p) == "t + 2t^2 + 4t^3 + 9t^4 + 23t^5 + 65t^6 + 199t^7 + 654t^8"
    # note the t^6 coefficient: the recurrence and the sum form both give 65
    assert p.coefficient(6).constant_value() == 65 == formula_value("b_rec", 6)
    r = closed_form("R", 4)
    assert r.coefficient(3) == Poly({(0, 0): 1, (1, 0): 2, (2, 0): 1})
    t = closed_form("T", 4)
    assert t.coefficient(3) == Poly({(0, 0): 1, (1, 0): 3, (2, 0): 1})
    assert closed_form("R", 5, at_u=1).coefficient(5).constant_value() == 19


def test_refined_symbolic_expansions():
    # N(t,u,v): level 2 avoiders are 21 (h=1, r=1) and 12 (h=0, r=2)
    n = closed_form("N", 3)
    assert n.coefficient(1) == Poly({(0, 1): 1})
    assert n.coefficient(2) == Poly({(1, 1): 1, (0, 2): 1})
    # M at symbolic u, v falls back to the rule series and still matches
    m = closed_form("M", 5)
    viarule = series_from_refined(refined_by_rule(CLASSES["C4"], 5), 5)
    assert m == viarule


@pytest.mark.parametrize("name", sorted(GFS))
def test_expansion_has_the_requested_order(name):
    # The working order follows the t-power divide_cancel cancels, also
    # when the requested order is below it (D; M and F at u = v = 1).
    at_one = {f"at_{var}": 1 for var in GFS[name].variables}
    for subs in ({}, at_one):
        deep = closed_form(name, 8, **subs)
        for order in range(4):
            series = closed_form(name, order, **subs)
            assert series.order == order and series == deep.to_order(order)


def test_substitution_validation():
    with pytest.raises(KeyError):
        closed_form("X", 5)
    with pytest.raises(ValueError):
        closed_form("P", 5, at_u=1)  # P has no formal variables
    with pytest.raises(ValueError):
        closed_form("R", 5, at_v=1)  # R is registered at v = 1 already
    with pytest.raises(ValueError):
        closed_form("N", 5, at_u=2)
    # 1 is the int 1: a bool or a float equal to it is refused.
    for one in (True, 1.0):
        with pytest.raises(ValueError, match="the int 1"):
            closed_form("R", 5, at_u=one)


def _within(seconds, fn, *args):
    """fn(*args), raising TimeoutError instead of hanging past the limit."""
    def expire(signum, frame):
        raise TimeoutError(f"{fn.__name__}{args} ran over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name", sorted(GFS))
def test_negative_orders(name):
    cid = GFS[name].class_id
    cand = rule_series(cid, 3)
    for order in (-1, -2):
        with pytest.raises(ValueError):
            _within(5, closed_form, name, order)
        with pytest.raises(ValueError):
            _within(5, verify_identity, name, cand, order)
    for nmax in (0, -1, -2):
        assert _within(5, gf_counts, cid, nmax) == []


def test_deep_sum_expansions():
    # The sums P, R and T at orders no other test reaches, under a time gate.
    start = time.perf_counter()
    deep = {cid: gf_counts(cid, 200) for cid in ("C9", "C10", "C11")}
    elapsed = time.perf_counter() - start
    assert deep["C9"][:120] == [formula_value("b_rec", n) for n in range(1, 121)]
    for cid, counts in deep.items():
        assert len(counts) == 200
        assert counts[:40] == count_by_rule(CLASSES[cid], 40), cid
    assert elapsed < 5, elapsed


@pytest.mark.parametrize("cid", sorted(GF_FOR_CLASS))
def test_identity_holds(cid):
    name = GF_FOR_CLASS[cid]
    ok, residual = verify_identity(name, rule_series(cid, 12), 12)
    assert ok and residual is None, (name, residual)


def squared_radical_residual(name, candidate, order):
    """First nonzero index of (den y - num)^2 - coef^2 radicand, the radical
    identity with its isolated radical term squared: an oracle that never
    expands a square root, as ``verify_identity`` does."""
    def lift(p):
        return TruncatedSeries(p.coeffs, order)

    parts = {key: lift(p) for key, p in GFS[name].parts.items() if key != "den"}
    den = reduce(mul, map(lift, GFS[name].parts["den"]))
    iso = den * candidate.to_order(order) - parts["num"]
    return (iso * iso - parts["coef"] * parts["coef"] * parts["radicand"]).first_nonzero()


@pytest.mark.parametrize("name", ["D", "K1", "M", "F"])
def test_squared_radical_check_agrees(name):
    assert GFS[name].kind == "radical"
    cand = rule_series(GFS[name].class_id, 10)
    assert squared_radical_residual(name, cand, 10) is None
    for j in (2, 5, 8):
        bumped = cand + TruncatedSeries.from_terms(10, {(j, 0, 0): 1})
        ok, (first, _) = verify_identity(name, bumped, 10)
        assert not ok and squared_radical_residual(name, bumped, 10) == first


@pytest.mark.parametrize("name", sorted(GFS))
def test_identity_detects_perturbations(name):
    # A bump of t^j first shows at t^(j + s) with coefficient c, where s and
    # c are the t-valuation and lowest coefficient of what the candidate is
    # multiplied by: the denominator (its factors multiplied out here), the
    # equation's linear coefficient for an algebraic kind, 1 for a sum.
    spec = GFS[name]
    order = 25
    if spec.kind in ("rational", "radical"):
        den = reduce(mul, (f.to_order(order) for f in spec.parts["den"]))
        shift = den.first_nonzero()
        lead = den.coefficient(shift)
    else:
        shift = 0
        lead = spec.parts["eq"][1].coefficient(0) if spec.kind == "algebraic" else Poly.const(1)
    assert shift == (1 if name == "D" else 0)
    cand = rule_series(spec.class_id, order)
    for j in (1, 2, 5, 8, 17, order - shift):
        bump = TruncatedSeries.from_terms(order, {(j, 0, 0): 1})
        ok, residual = verify_identity(name, cand + bump, order)
        assert not ok and residual == (j + shift, lead), (name, j)


@pytest.mark.parametrize("name", ["N", "K2", "H"])
def test_factor_by_factor_division_matches_the_product(name):
    # The product route as the oracle: multiply the denominator's factors
    # out into one exact series, then divide once.
    spec = GFS[name]
    degree = sum(f.order for f in spec.parts["den"])
    product = reduce(mul, (f.to_order(degree) for f in spec.parts["den"]))
    for at in (None, 1):
        den = product.subs_one(u=at == 1, v=at == 1)
        k = den.first_nonzero()
        for order in (0, 1, 2, 3, 25):
            num = spec.parts["num"].subs_one(u=at == 1, v=at == 1).to_order(order + k)
            expected = divide_cancel(num, den.to_order(order + k))
            assert closed_form(name, order, at_u=at, at_v=at) == expected, (at, order)


def test_identity_rejects_short_candidate():
    with pytest.raises(ValueError):
        verify_identity("D", rule_series("C1", 5), 8)


def test_formula_values():
    assert [formula_value("motzkin", n) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]
    assert [formula_value("cat3", n) for n in range(1, 8)] == [1, 1, 2, 3, 7, 12, 30]
    assert [formula_value("even_formula", n) for n in range(2, 6)] == [2, 4, 9, 22]
    assert formula_value("pow2", 6) == 32
    assert [formula_value("west", n) for n in range(1, 6)] == [1, 2, 5, 13, 33]
    assert [formula_value("fib_odd", n) for n in range(1, 6)] == [1, 2, 5, 13, 34]
    assert [formula_value("b_rec", n) for n in range(1, 9)] \
        == [1, 2, 4, 9, 23, 65, 199, 654]
    with pytest.raises(KeyError):
        formula_value("nope", 3)


def test_motzkin_matches_the_convolution():
    m = [1, 1]
    for i in range(2, 301):
        m.append(m[i - 1] + sum(m[k] * m[i - 2 - k] for k in range(i - 1)))
    assert [formula_value("motzkin", n) for n in range(301)] == m


@pytest.mark.parametrize("name,first", [
    ("motzkin", 0), ("cat3", 1), ("even_formula", 1), ("pow2", 1),
    ("west", 1), ("fib_odd", 1), ("b_rec", 1)])
def test_formula_domain(name, first):
    assert type(formula_value(name, first)) is int
    with pytest.raises(ValueError, match=f"{name} is defined for n >= {first}"):
        formula_value(name, first - 1)


def test_even_formula_matches_the_fraction_form():
    # the published form, with its n/(n-k) factor as a Fraction
    def fraction_form(n):
        total = Fraction(0)
        for k in range(n // 2 + 1):
            total += 2 * math.comb(n, 2 * k) * (math.comb(n - k, k - 1) if k else 0)
            total += Fraction(n, n - k) * math.comb(n, 2 * k + 1) * math.comb(n - k, k)
        return total / n

    for n in range(1, 301):
        value = formula_value("even_formula", n)
        assert type(value) is int and value == fraction_form(n), n


def test_b_rec_matches_its_recurrence():
    # b_0 = b_1 = 1 and b_(i+2) = b_(i+1) + sum_k C(i, k) b_k
    b = [1, 1]
    for i in range(149):
        b.append(b[i + 1] + sum(math.comb(i, k) * b[k] for k in range(i + 1)))
    assert [formula_value("b_rec", n) for n in range(1, 151)] == b[1:]


def test_series_from_refined():
    refined = refined_by_rule(CLASSES["C5"], 4)
    s = series_from_refined(refined, 4)
    assert s.order == 4
    assert not s.coefficient(0)
    assert s.coefficient(1) == Poly({(0, 1): 1})
    assert s.subs_one(u=True, v=True).coefficient(4).constant_value() == 8
