"""Registry of the closed-form generating functions for the twelve classes.

Each entry is one of four kinds:

* ``rational``   -- numerator / denominator, polynomials in t, u, v;
* ``radical``    -- (num + coef * sqrt(radicand)) / den, with a u,v-free
                    radicand;
* ``algebraic``  -- the power-series root of a polynomial equation in the
                    unknown with t-polynomial coefficients;
* ``sum``        -- an infinite sum of rational (numerator, denominator)
                    terms; only the finitely many reaching the order count.

``closed_form`` expands an entry to a given order.  Entries whose
denominator has a non-invertible constant term at symbolic u, v (K1, M, F)
cannot be divided out in the polynomial coefficient ring; for those the
symbolic series is defined as the succession-rule series, and the closed
form is checked against it by cross-multiplication in ``verify_identity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .enumerate import RefinedCount
from .rules import REGISTRY as CLASSES, refined_by_rule
from .series import Poly, TruncatedSeries, algebraic_root, divide_cancel


def _p(order: int, terms: dict[tuple[int, int, int], int]) -> TruncatedSeries:
    return TruncatedSeries.from_terms(order, terms)


def _prod(order: int, *factors: dict[tuple[int, int, int], int]) -> TruncatedSeries:
    out = _p(order, {(0, 0, 0): 1})
    for f in factors:
        out = out * _p(order, f)
    return out


@dataclass(frozen=True)
class GFSpec:
    name: str
    kind: str  # rational | radical | algebraic | sum
    variables: tuple[str, ...]  # formal variables beyond t
    class_id: str  # paired succession-rule class
    build: Callable[[int], dict]


_RADICAND_MOTZKIN = {(0, 0, 0): 1, (1, 0, 0): -2, (2, 0, 0): -3}
_RADICAND_F = {(0, 0, 0): 1, (1, 0, 0): -4, (2, 0, 0): 2, (4, 0, 0): 1}


def _build_d(order):
    return {
        "num": _p(order, {(0, 0, 0): 1, (1, 0, 0): -1}),
        "coef": _p(order, {(0, 0, 0): -1}),
        "radicand": _p(order, _RADICAND_MOTZKIN),
        "den": _p(order, {(1, 0, 0): 2}),
    }


def _build_k1(order):
    return {
        "num": _p(order, {(0, 1, 0): 1, (1, 1, 0): -1, (1, 2, 0): -2}),
        "coef": _p(order, {(0, 1, 0): -1}),
        "radicand": _p(order, _RADICAND_MOTZKIN),
        "den": _p(order, {(0, 1, 0): -2, (1, 0, 0): 2, (1, 1, 0): 2, (1, 2, 0): 2}),
    }


def _build_m(order):
    inner = {
        (0, 0, 1): 1, (0, 1, 1): -1,
        (1, 0, 0): 2, (1, 1, 0): -1, (1, 0, 1): -1, (1, 1, 1): -1, (1, 2, 1): 2,
        (2, 1, 0): -1, (2, 1, 1): 2, (2, 2, 1): -1, (2, 2, 2): 2, (2, 1, 2): -2,
        (3, 2, 1): -3, (3, 2, 2): 2, (3, 3, 2): -2,
        (4, 3, 2): -2,
    }
    inner_rad = {(0, 0, 1): 1, (0, 1, 1): -1, (1, 1, 0): 1, (2, 2, 1): 1}
    den_f1 = {(0, 0, 0): 1, (0, 1, 0): -1, (1, 1, 0): -1, (1, 2, 0): 1, (2, 2, 0): 1}
    den_f2 = {(0, 0, 0): 1, (0, 1, 1): -1, (1, 1, 1): 1, (2, 2, 2): 1}
    return {
        "num": _prod(order, {(0, 2, 1): 1}, inner),
        "coef": _prod(order, {(0, 2, 1): -1}, inner_rad),
        "radicand": _p(order, _RADICAND_MOTZKIN),
        "den": _prod(order, {(0, 0, 0): 2}, den_f1, den_f2),
    }


def _build_n(order):
    return {
        "num": _prod(order, {(1, 0, 1): 1},
                     {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): 1, (1, 1, 1): -1}),
        "den": _prod(order,
                     {(0, 0, 0): 1, (1, 0, 1): -1},
                     {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 1): -1}),
    }


def _build_k2(order):
    return {
        "num": _prod(order, {(1, 0, 1): 1},
                     {(0, 0, 0): 1,
                      (1, 0, 0): -1, (1, 1, 0): -1, (1, 1, 1): -1,
                      (2, 2, 0): 1, (2, 1, 1): 1, (2, 2, 1): 1}),
        "den": _prod(order,
                     {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): -1},
                     {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 1): -1},
                     {(0, 0, 0): 1, (1, 1, 1): -1}),
    }


def _build_h(order):
    return {
        "num": _prod(order, {(1, 2, 1): 1},
                     {(0, 0, 0): 1,
                      (1, 0, 1): 1, (1, 0, 0): -3,
                      (2, 0, 0): 1, (2, 1, 0): 1, (2, 0, 1): -1, (2, 1, 1): -1,
                      (2, 0, 2): 1,
                      (3, 1, 1): 1, (3, 1, 2): -1}),
        "den": _prod(order,
                     {(0, 0, 0): 1, (1, 0, 0): -3, (2, 0, 0): 1},
                     {(0, 0, 0): 1, (1, 1, 0): -1}),
    }


def _build_f(order):
    p1 = {
        (0, 0, 1): 1, (0, 1, 1): -1,
        (1, 0, 0): 2, (1, 1, 0): -1, (1, 0, 1): -4, (1, 1, 1): 2, (1, 0, 2): 1,
        (1, 2, 1): 2, (1, 1, 2): -1,
        (2, 0, 0): -4, (2, 1, 0): 1, (2, 0, 1): 6, (2, 1, 1): 1, (2, 0, 2): -3,
        (2, 2, 1): -6, (2, 2, 2): 3,
        (3, 0, 0): 2, (3, 1, 0): 1, (3, 0, 1): -4, (3, 1, 1): -5, (3, 0, 2): 3,
        (3, 2, 1): 4, (3, 1, 2): 4, (3, 2, 2): -4, (3, 1, 3): -2, (3, 3, 2): -2,
        (3, 2, 3): 2,
        (4, 1, 0): -1, (4, 0, 1): 1, (4, 1, 1): 4, (4, 0, 2): -1, (4, 1, 2): -4,
        (4, 2, 2): -1, (4, 1, 3): 2, (4, 3, 2): 2, (4, 3, 3): -2,
        (5, 2, 3): -2, (5, 1, 2): 1, (5, 2, 2): 2, (5, 1, 1): -1,
    }
    p2 = {
        (0, 1, 1): 1, (0, 0, 1): -1,
        (1, 1, 2): 1, (1, 1, 1): -2, (1, 0, 2): -1, (1, 0, 1): 2, (1, 1, 0): -1,
        (2, 1, 0): 1, (2, 0, 1): -1, (2, 0, 2): 1, (2, 2, 2): -1,
        (3, 1, 1): 1, (3, 1, 2): -1,
    }
    den_f1 = {(0, 0, 0): 1, (1, 1, 1): 2, (2, 2, 2): 1,
              (0, 1, 1): -1, (1, 0, 0): -1, (2, 1, 1): -1}
    den_f2 = {(0, 0, 0): 1, (1, 2, 0): 1, (0, 1, 0): -1, (2, 1, 0): 1, (1, 0, 0): -1}
    return {
        "num": _prod(order, {(0, 2, 1): 1}, p1),
        "coef": _prod(order, {(0, 2, 1): 1}, p2),
        "radicand": _p(order, _RADICAND_F),
        "den": _prod(order, {(0, 0, 0): 2}, den_f1, den_f2),
    }


def _build_j(order):
    return {"eq": [_p(order, {(1, 0, 0): 1}),
                   _p(order, {(0, 0, 0): -1, (1, 0, 0): 3}),
                   _p(order, {(0, 0, 0): -2, (1, 0, 0): 3}),
                   _p(order, {(1, 0, 0): 1})]}


def _build_q(order):
    return {"eq": [_p(order, {(1, 0, 0): 1}),
                   _p(order, {(0, 0, 0): -1, (1, 0, 0): 4}),
                   _p(order, {(0, 0, 0): -2, (1, 0, 0): 4}),
                   _p(order, {(1, 0, 0): 1})]}


def _sum_p(order):
    # term k >= 1: t^(2k-1) (1-(k-1)t) / prod_{j=1}^{k} (1-jt)^2
    def term(k):
        num = _p(order, {(2 * k - 1, 0, 0): 1, (2 * k, 0, 0): -(k - 1)})
        den = _prod(order, *({(0, 0, 0): 1, (1, 0, 0): -j} for j in range(1, k + 1)
                             for _ in (0, 1)))
        return num, den
    return {"terms": [term(k) for k in range(1, (order + 1) // 2 + 1)]}


def _sum_r(order):
    # R(t,u,1) = -1 + sum_{k>=0} t^(2k) u^k (1+ktu) / ((1-(k+1)t) prod_{j<k}(1-jt))
    def term(k):
        num = _p(order, {(2 * k, k, 0): 1, (2 * k + 1, k + 1, 0): k})
        den = _prod(order, {(0, 0, 0): 1, (1, 0, 0): -(k + 1)},
                    *({(0, 0, 0): 1, (1, 0, 0): -j} for j in range(1, k)))
        return num, den
    return {"terms": [(_p(order, {(0, 0, 0): -1}), _p(order, {(0, 0, 0): 1}))]
            + [term(k) for k in range(order // 2 + 1)]}


def _sum_t(order):
    # T(t,u,1) = sum_{k>=0} t^(k+1) u^k (1+ktu) / ((1+tu)^k (1-kt)(1-(k+1)t))
    def term(k):
        num = _p(order, {(k + 1, k, 0): 1, (k + 2, k + 1, 0): k})
        den = (_p(order, {(0, 0, 0): 1, (1, 1, 0): 1}).pow(k)
               * _prod(order, {(0, 0, 0): 1, (1, 0, 0): -k},
                       {(0, 0, 0): 1, (1, 0, 0): -(k + 1)}))
        return num, den
    return {"terms": [term(k) for k in range(order)]}


REGISTRY: dict[str, GFSpec] = {s.name: s for s in [
    GFSpec("D", "radical", (), "C1", _build_d),
    GFSpec("J", "algebraic", (), "C2", _build_j),
    GFSpec("Q", "algebraic", (), "C2e", _build_q),
    GFSpec("K1", "radical", ("u",), "C3", _build_k1),
    GFSpec("M", "radical", ("u", "v"), "C4", _build_m),
    GFSpec("N", "rational", ("u", "v"), "C5", _build_n),
    GFSpec("K2", "rational", ("u", "v"), "C6", _build_k2),
    GFSpec("H", "rational", ("u", "v"), "C7", _build_h),
    GFSpec("F", "radical", ("u", "v"), "C8", _build_f),
    GFSpec("P", "sum", (), "C9", _sum_p),
    GFSpec("R", "sum", ("u",), "C10", _sum_r),
    GFSpec("T", "sum", ("u",), "C11", _sum_t),
]}

GF_FOR_CLASS = {spec.class_id: spec.name for spec in REGISTRY.values()}


def series_from_refined(refined: Sequence[RefinedCount],
                        order: int | None = None) -> TruncatedSeries:
    """Assemble per-length refined polynomials into a series in t."""
    if order is None:
        order = len(refined)
    coeffs = [Poly()] * (order + 1)
    for rc in refined:
        if rc.n <= order:
            coeffs[rc.n] = rc.poly
    return TruncatedSeries(coeffs, order)


def rule_series(cid: str, order: int) -> TruncatedSeries:
    """The succession-rule series of class ``cid`` to the given t-order.

    Its coefficients carry the rule's label statistics as u (and v), with 1
    substituted for each variable the paired generating function does not
    register, so the result is a candidate for ``verify_identity``.
    """
    variables = REGISTRY[GF_FOR_CLASS[cid]].variables
    series = series_from_refined(refined_by_rule(CLASSES[cid], order), order)
    return series.subs_one(u="u" not in variables, v="v" not in variables)


def gf_counts(cid: str, nmax: int) -> list[int]:
    """Counts of class ``cid`` for lengths 1..nmax from its closed form.

    The closed form is expanded with u = v = 1 substituted, which is much
    cheaper than expanding symbolically and summing the coefficients.
    """
    name = GF_FOR_CLASS[cid]
    variables = REGISTRY[name].variables
    series = closed_form(name, nmax, at_u=1 if "u" in variables else None,
                         at_v=1 if "v" in variables else None)
    return [int(series.coefficient(n).constant_value()) for n in range(1, nmax + 1)]


def _substituted_parts(spec: GFSpec, order: int,
                       at_u: int | None, at_v: int | None) -> dict:
    for var, val in (("u", at_u), ("v", at_v)):
        if val not in (None, 1):
            raise ValueError(f"{var} may only be substituted by 1")
        if val is not None and var not in spec.variables:
            raise ValueError(f"{spec.name} has no variable {var}")
    subs = dict(u=at_u == 1, v=at_v == 1)

    def substituted(val):
        if isinstance(val, TruncatedSeries):
            return val.subs_one(**subs)
        return [substituted(x) for x in val]
    return {key: substituted(val) for key, val in spec.build(order).items()}


def _cancelling_parts(spec: GFSpec, order: int,
                      at_u: int | None, at_v: int | None) -> dict:
    """The parts built to order + k, where ``divide_cancel`` cancels t^k."""
    work = order
    while True:
        parts = _substituted_parts(spec, work, at_u, at_v)
        k = parts["den"].first_nonzero()
        if k is not None and work == order + k:
            return parts
        work = work + 1 if k is None else order + k  # None: k is beyond work


def closed_form(name: str, order: int,
                at_u: int | None = None, at_v: int | None = None) -> TruncatedSeries:
    """Expand the named generating function to the given t-order.

    ``at_u`` / ``at_v`` may be 1 to substitute, or None to stay symbolic.
    Radical entries whose denominator is not invertible at symbolic u, v
    (K1, M, F) return the succession-rule series, which is the defined value
    of the closed form there; ``verify_identity`` is the cross-check.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown generating function {name!r}")
    spec = REGISTRY[name]
    if spec.kind == "algebraic":
        return algebraic_root(_substituted_parts(spec, order, at_u, at_v)["eq"], order)
    if spec.kind == "sum":
        terms = _substituted_parts(spec, order, at_u, at_v)["terms"]
        return sum((num / den for num, den in terms), TruncatedSeries.zero(order))
    parts = _cancelling_parts(spec, order, at_u, at_v)
    num, den = parts["num"], parts["den"]
    if spec.kind == "radical":
        if not den.coeffs[den.first_nonzero()].is_constant():
            return rule_series(spec.class_id, order).subs_one(u=at_u == 1, v=at_v == 1)
        num = num + parts["coef"] * parts["radicand"].sqrt()
    return divide_cancel(num, den)


def verify_identity(name: str, candidate: TruncatedSeries,
                    order: int) -> tuple[bool, tuple[int, Poly] | None]:
    """Check the named closed form against an independently computed series.

    Rational kinds are cross-multiplied, radical kinds compared after
    isolating the radical (the radicand is u,v-free, so its square root is a
    t-series scalar), algebraic kinds substituted into their equation, sum
    kinds compared term by term.  Returns (ok, first nonzero residual).
    """
    spec = REGISTRY[name]
    if candidate.order < order:
        raise ValueError(f"candidate order {candidate.order} below requested {order}")
    cand = candidate.truncate(order)
    parts = {} if spec.kind == "sum" else spec.build(order)
    if spec.kind == "rational":
        residual = parts["den"] * cand - parts["num"]
    elif spec.kind == "radical":
        residual = (parts["den"] * cand - parts["num"]
                    - parts["coef"] * parts["radicand"].sqrt())
    elif spec.kind == "algebraic":
        residual = TruncatedSeries.zero(order)
        ypow = _p(order, {(0, 0, 0): 1})
        for i, c in enumerate(parts["eq"]):
            residual = residual + c * ypow
            if i + 1 < len(parts["eq"]):
                ypow = ypow * cand
    else:
        residual = cand - closed_form(name, order)
    n = residual.first_nonzero()
    if n is None:
        return True, None
    return False, (n, residual.coeffs[n])


def verify_identity_squared(name: str, candidate: TruncatedSeries,
                            order: int) -> tuple[bool, tuple[int, Poly] | None]:
    """Radical check by squaring the isolated radical term.

    Slower than ``verify_identity`` but avoids expanding the square root;
    the two must agree wherever both run.
    """
    spec = REGISTRY[name]
    if spec.kind != "radical":
        raise ValueError(f"{name} is not a radical entry")
    cand = candidate.truncate(order)
    parts = spec.build(order)
    iso = parts["den"] * cand - parts["num"]
    residual = iso * iso - parts["coef"] * parts["coef"] * parts["radicand"]
    n = residual.first_nonzero()
    if n is None:
        return True, None
    return False, (n, residual.coeffs[n])


def _binom(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def formula_value(name: str, n: int) -> int:
    """Exact closed-form count formulas (binomials with negative index are 0)."""
    if name == "motzkin":
        m = [1, 1]
        for i in range(2, n + 1):
            m.append(m[i - 1] + sum(m[k] * m[i - 2 - k] for k in range(i - 1)))
        return m[n]
    if name == "cat3":
        if n % 2 == 0:
            k = n // 2
            val = Fraction(_binom(3 * k, k), 2 * k + 1)
        else:
            k = (n - 1) // 2
            val = Fraction(_binom(3 * k + 1, k + 1), 2 * k + 1)
        assert val.denominator == 1
        return val.numerator
    if name == "even_formula":
        total = Fraction(0)
        for k in range(n // 2 + 1):
            total += 2 * _binom(n, 2 * k) * _binom(n - k, k - 1)
            total += Fraction(n, n - k) * _binom(n, 2 * k + 1) * _binom(n - k, k)
        val = total / n
        assert val.denominator == 1
        return val.numerator
    if name == "pow2":
        return 2 ** (n - 1)
    if name == "west":
        return 1 if n == 1 else (n - 1) * 2 ** (n - 2) + 1
    if name == "fib_odd":
        a, b = 1, 1  # F_1, F_2
        for _ in range(2 * n - 2):
            a, b = b, a + b
        return a
    if name == "b_rec":
        b = [1, 1]
        for i in range(n - 1):
            b.append(b[i + 1] + sum(_binom(i, k) * b[k] for k in range(i + 1)))
        return b[n]
    raise KeyError(f"unknown formula {name!r}")
