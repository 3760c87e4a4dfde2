"""Registry of the closed-form generating functions for the twelve classes.

Each entry is order-free data of one of four kinds:

* ``rational``   -- numerator / denominator, polynomials in t, u, v;
* ``radical``    -- (num + coef * sqrt(radicand)) / den, with a u,v-free
                    radicand;
* ``algebraic``  -- the power-series root of a polynomial equation in the
                    unknown with t-polynomial coefficients;
* ``sum``        -- an infinite sum whose term k is
                    num_k / (own_k * new_1 * ... * new_k); the entry yields
                    the term factors (num_k, own_k, new_k) in order of k.

Every polynomial is an exact series whose order is its t-degree, built once
at import, except a sum's term factors, which its generator builds on each
``closed_form`` call.  A numerator, radical coefficient or radicand is held
as one product of its factors; a denominator is held as the tuple of its
factors, and is applied factor by factor, never multiplied out.
``closed_form`` is the only code that knows about orders.  It substitutes
u = v = 1 as asked, lifts each part to the requested order plus the t-power
k the denominator cancels (the sum of its factors' t-valuations), and
divides by one factor after another.  ``verify_identity`` multiplies the
candidate by one factor after another.  A sum takes the terms whose
numerator reaches the order and nests them from the top down,
acc = (acc + num_k / own_k) / new_k, so each division is by a polynomial of
two or three terms.

Entries whose denominator has a non-invertible constant term at symbolic
u, v (K1, M, F) cannot be divided out in the polynomial coefficient ring;
for those the symbolic series is defined as the succession-rule series, and
the closed form is checked against it by cross-multiplication in
``verify_identity``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count, takewhile
from operator import add, mul
from typing import Sequence

from .rules import REGISTRY as CLASSES, RefinedCount, refined_by_rule
from .series import (Poly, TruncatedSeries, algebraic_root, divide_cancel,
                     horner)


def _poly(*factors: dict[tuple[int, int, int], int]) -> TruncatedSeries:
    """The product of factors {(deg_t, deg_u, deg_v): coefficient}, exactly.

    Its order is the sum of the factors' t-degrees, so nothing is truncated.
    """
    order = sum(max(i for i, _, _ in f) for f in factors)
    return reduce(mul, (TruncatedSeries.from_terms(order, f) for f in factors))


def _factors(*factors: dict[tuple[int, int, int], int]) -> tuple[TruncatedSeries, ...]:
    """Each factor {(deg_t, deg_u, deg_v): coefficient} as its own exact series."""
    return tuple(map(_poly, factors))


def _lin(j: int) -> dict[tuple[int, int, int], int]:
    """1 - jt."""
    return {(0, 0, 0): 1, (1, 0, 0): -j}


@dataclass(frozen=True)
class GFSpec:
    name: str
    kind: str  # rational | radical | algebraic | sum
    variables: tuple[str, ...]  # formal variables beyond t
    class_id: str  # paired succession-rule class
    # exact polynomials by role, "den" as the tuple of its factors; a sum's
    # "terms" yields its term factors
    parts: dict


_ONE = _poly({(0, 0, 0): 1})
_ONE_PLUS_TU = _poly({(0, 0, 0): 1, (1, 1, 0): 1})
_RADICAND_MOTZKIN = _poly({(0, 0, 0): 1, (1, 0, 0): -2, (2, 0, 0): -3})

_D = {
    "num": _poly({(0, 0, 0): 1, (1, 0, 0): -1}),
    "coef": _poly({(0, 0, 0): -1}),
    "radicand": _RADICAND_MOTZKIN,
    "den": _factors({(1, 0, 0): 2}),
}

_K1 = {
    "num": _poly({(0, 1, 0): 1, (1, 1, 0): -1, (1, 2, 0): -2}),
    "coef": _poly({(0, 1, 0): -1}),
    "radicand": _RADICAND_MOTZKIN,
    "den": _factors({(0, 1, 0): -2, (1, 0, 0): 2, (1, 1, 0): 2, (1, 2, 0): 2}),
}

_M = {
    "num": _poly({(0, 2, 1): 1},
                 {(0, 0, 1): 1, (0, 1, 1): -1,
                  (1, 0, 0): 2, (1, 1, 0): -1, (1, 0, 1): -1, (1, 1, 1): -1, (1, 2, 1): 2,
                  (2, 1, 0): -1, (2, 1, 1): 2, (2, 2, 1): -1, (2, 2, 2): 2, (2, 1, 2): -2,
                  (3, 2, 1): -3, (3, 2, 2): 2, (3, 3, 2): -2,
                  (4, 3, 2): -2}),
    "coef": _poly({(0, 2, 1): -1},
                  {(0, 0, 1): 1, (0, 1, 1): -1, (1, 1, 0): 1, (2, 2, 1): 1}),
    "radicand": _RADICAND_MOTZKIN,
    "den": _factors({(0, 0, 0): 2},
                    {(0, 0, 0): 1, (0, 1, 0): -1, (1, 1, 0): -1, (1, 2, 0): 1, (2, 2, 0): 1},
                    {(0, 0, 0): 1, (0, 1, 1): -1, (1, 1, 1): 1, (2, 2, 2): 1}),
}

_N = {
    "num": _poly({(1, 0, 1): 1},
                 {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): 1, (1, 1, 1): -1}),
    "den": _factors({(0, 0, 0): 1, (1, 0, 1): -1},
                    {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 1): -1}),
}

_K2 = {
    "num": _poly({(1, 0, 1): 1},
                 {(0, 0, 0): 1,
                  (1, 0, 0): -1, (1, 1, 0): -1, (1, 1, 1): -1,
                  (2, 2, 0): 1, (2, 1, 1): 1, (2, 2, 1): 1}),
    "den": _factors({(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 0): -1},
                    {(0, 0, 0): 1, (1, 0, 0): -1, (1, 1, 1): -1},
                    {(0, 0, 0): 1, (1, 1, 1): -1}),
}

_H = {
    "num": _poly({(1, 2, 1): 1},
                 {(0, 0, 0): 1,
                  (1, 0, 1): 1, (1, 0, 0): -3,
                  (2, 0, 0): 1, (2, 1, 0): 1, (2, 0, 1): -1, (2, 1, 1): -1,
                  (2, 0, 2): 1,
                  (3, 1, 1): 1, (3, 1, 2): -1}),
    "den": _factors({(0, 0, 0): 1, (1, 0, 0): -3, (2, 0, 0): 1},
                    {(0, 0, 0): 1, (1, 1, 0): -1}),
}

_F = {
    "num": _poly({(0, 2, 1): 1},
                 {(0, 0, 1): 1, (0, 1, 1): -1,
                  (1, 0, 0): 2, (1, 1, 0): -1, (1, 0, 1): -4, (1, 1, 1): 2, (1, 0, 2): 1,
                  (1, 2, 1): 2, (1, 1, 2): -1,
                  (2, 0, 0): -4, (2, 1, 0): 1, (2, 0, 1): 6, (2, 1, 1): 1, (2, 0, 2): -3,
                  (2, 2, 1): -6, (2, 2, 2): 3,
                  (3, 0, 0): 2, (3, 1, 0): 1, (3, 0, 1): -4, (3, 1, 1): -5, (3, 0, 2): 3,
                  (3, 2, 1): 4, (3, 1, 2): 4, (3, 2, 2): -4, (3, 1, 3): -2, (3, 3, 2): -2,
                  (3, 2, 3): 2,
                  (4, 1, 0): -1, (4, 0, 1): 1, (4, 1, 1): 4, (4, 0, 2): -1, (4, 1, 2): -4,
                  (4, 2, 2): -1, (4, 1, 3): 2, (4, 3, 2): 2, (4, 3, 3): -2,
                  (5, 2, 3): -2, (5, 1, 2): 1, (5, 2, 2): 2, (5, 1, 1): -1}),
    "coef": _poly({(0, 2, 1): 1},
                  {(0, 1, 1): 1, (0, 0, 1): -1,
                   (1, 1, 2): 1, (1, 1, 1): -2, (1, 0, 2): -1, (1, 0, 1): 2, (1, 1, 0): -1,
                   (2, 1, 0): 1, (2, 0, 1): -1, (2, 0, 2): 1, (2, 2, 2): -1,
                   (3, 1, 1): 1, (3, 1, 2): -1}),
    "radicand": _poly({(0, 0, 0): 1, (1, 0, 0): -4, (2, 0, 0): 2, (4, 0, 0): 1}),
    "den": _factors({(0, 0, 0): 2},
                    {(0, 0, 0): 1, (1, 1, 1): 2, (2, 2, 2): 1,
                     (0, 1, 1): -1, (1, 0, 0): -1, (2, 1, 1): -1},
                    {(0, 0, 0): 1, (1, 2, 0): 1, (0, 1, 0): -1, (2, 1, 0): 1, (1, 0, 0): -1}),
}

_J = {"eq": [_poly({(1, 0, 0): 1}),
             _poly({(0, 0, 0): -1, (1, 0, 0): 3}),
             _poly({(0, 0, 0): -2, (1, 0, 0): 3}),
             _poly({(1, 0, 0): 1})]}

_Q = {"eq": [_poly({(1, 0, 0): 1}),
             _poly({(0, 0, 0): -1, (1, 0, 0): 4}),
             _poly({(0, 0, 0): -2, (1, 0, 0): 4}),
             _poly({(1, 0, 0): 1})]}


def _terms_p():
    # P = sum_{k>=1} t^(2k-1) (1-(k-1)t) / prod_{j=1}^{k} (1-jt)^2
    for k in count(1):
        yield (_poly({(2 * k - 1, 0, 0): 1, (2 * k, 0, 0): -(k - 1)}), _ONE,
               _poly(_lin(k), _lin(k)))


def _terms_r():
    # R(t,u,1) = -1 + sum_{k>=0} t^(2k) u^k (1+ktu) / ((1-(k+1)t) prod_{j=1}^{k-1} (1-jt))
    yield _poly({(0, 0, 0): -1}), _ONE, _ONE
    for k in count():
        yield (_poly({(2 * k, k, 0): 1, (2 * k + 1, k + 1, 0): k}), _poly(_lin(k + 1)),
               _poly(_lin(k - 1)) if k >= 2 else _ONE)


def _terms_t():
    # T(t,u,1) = sum_{k>=0} t^(k+1) u^k (1+ktu) / ((1+tu)^k (1-kt)(1-(k+1)t))
    for k in count():
        yield (_poly({(k + 1, k, 0): 1, (k + 2, k + 1, 0): k}), _poly(_lin(k), _lin(k + 1)),
               _ONE_PLUS_TU if k else _ONE)


REGISTRY: dict[str, GFSpec] = {s.name: s for s in [
    GFSpec("D", "radical", (), "C1", _D),
    GFSpec("J", "algebraic", (), "C2", _J),
    GFSpec("Q", "algebraic", (), "C2e", _Q),
    GFSpec("K1", "radical", ("u",), "C3", _K1),
    GFSpec("M", "radical", ("u", "v"), "C4", _M),
    GFSpec("N", "rational", ("u", "v"), "C5", _N),
    GFSpec("K2", "rational", ("u", "v"), "C6", _K2),
    GFSpec("H", "rational", ("u", "v"), "C7", _H),
    GFSpec("F", "radical", ("u", "v"), "C8", _F),
    GFSpec("P", "sum", (), "C9", {"terms": _terms_p}),
    GFSpec("R", "sum", ("u",), "C10", {"terms": _terms_r}),
    GFSpec("T", "sum", ("u",), "C11", {"terms": _terms_t}),
]}

GF_FOR_CLASS = {spec.class_id: spec.name for spec in REGISTRY.values()}


def series_from_refined(refined: Sequence[RefinedCount],
                        order: int) -> TruncatedSeries:
    """Assemble per-length refined polynomials into a series in t."""
    coeffs: list[Poly | int] = [0] * (order + 1)
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
    cheaper than expanding symbolically and summing the coefficients.  A
    non-integral coefficient (a wrong closed form) raises ``ValueError``.
    """
    name = GF_FOR_CLASS[cid]
    variables = REGISTRY[name].variables
    series = closed_form(name, max(nmax, 0), at_u=1 if "u" in variables else None,
                         at_v=1 if "v" in variables else None)
    counts = []
    for n in range(1, nmax + 1):
        c = series.coefficient(n).constant_value()
        if c.denominator != 1:
            raise ValueError(f"{name} has the non-integral coefficient {c} at n = {n}")
        counts.append(c.numerator)
    return counts


def closed_form(name: str, order: int,
                at_u: int | None = None, at_v: int | None = None) -> TruncatedSeries:
    """Expand the named generating function to the given t-order.

    ``at_u`` / ``at_v`` may be 1 to substitute, or None to stay symbolic.
    A rational or radical entry is divided by its denominator one factor at
    a time, each through ``divide_cancel``.  Radical entries whose
    denominator is not invertible at symbolic u, v (K1, M, F: some factor's
    lowest nonzero coefficient is not a constant, so neither is the
    product's) return the succession-rule series, which is the defined value
    of the closed form there; ``verify_identity`` is the cross-check.
    """
    if name not in REGISTRY:
        raise KeyError(f"unknown generating function {name!r}")
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    spec = REGISTRY[name]
    for var, val in (("u", at_u), ("v", at_v)):
        if not (val is None or type(val) is int and val == 1):
            raise ValueError(f"{var} may only be substituted by the int 1")
        if val is not None and var not in spec.variables:
            raise ValueError(f"{spec.name} has no variable {var}")
    subs = dict(u=at_u == 1, v=at_v == 1)

    def lift(p: TruncatedSeries, work: int = order) -> TruncatedSeries:
        return p.subs_one(**subs).to_order(work)

    if spec.kind == "algebraic":
        return algebraic_root([lift(c) for c in spec.parts["eq"]], order)
    if spec.kind == "sum":
        reach = takewhile(lambda term: term[0].first_nonzero() <= order, spec.parts["terms"]())
        acc = TruncatedSeries.zero(order)
        for num, own, new in reversed(list(reach)):
            acc = (acc + lift(num) / lift(own)) / lift(new)
        return acc
    dens = [f.subs_one(**subs) for f in spec.parts["den"]]
    lows = [f.first_nonzero() for f in dens]
    if spec.kind == "radical" and not all(
            f.coefficient(k).is_constant() for f, k in zip(dens, lows)):
        return rule_series(spec.class_id, order).subs_one(**subs)
    work = order + sum(lows)
    num = lift(spec.parts["num"], work)
    if spec.kind == "radical":
        num = num + lift(spec.parts["coef"], work) * lift(spec.parts["radicand"], work).sqrt()
    for den in dens:
        num = divide_cancel(num, den.to_order(work))
    return num


def _first_residual(residual: TruncatedSeries) -> tuple[bool, tuple[int, Poly] | None]:
    n = residual.first_nonzero()
    if n is None:
        return True, None
    return False, (n, residual.coefficient(n))


def verify_identity(name: str, candidate: TruncatedSeries,
                    order: int) -> tuple[bool, tuple[int, Poly] | None]:
    """Check the named closed form against an independently computed series.

    Rational kinds are cross-multiplied, the candidate times one denominator
    factor after another, and radical kinds likewise after isolating the
    radical (the radicand is u,v-free, so its square root is a
    t-series scalar), algebraic kinds substituted into their equation by
    ``horner``, sum kinds compared with their expansion.  Returns (ok, first
    nonzero residual).
    """
    spec = REGISTRY[name]
    if candidate.order < order:
        raise ValueError(f"candidate order {candidate.order} below requested {order}")
    cand = candidate.to_order(order)
    if spec.kind == "sum":
        return _first_residual(cand - closed_form(name, order))
    if spec.kind == "algebraic":
        eq = [c.to_order(order) for c in spec.parts["eq"]]
        return _first_residual(horner(eq, cand))
    parts = {key: p.to_order(order) for key, p in spec.parts.items() if key != "den"}
    for den in spec.parts["den"]:
        cand = den.to_order(order) * cand
    residual = cand - parts["num"]
    if spec.kind == "radical":
        residual = residual - parts["coef"] * parts["radicand"].sqrt()
    return _first_residual(residual)


# The first index of each count formula; Motzkin numbers start at M_0 = 1.
_FORMULA_START = {"motzkin": 0, "cat3": 1, "even_formula": 1, "pow2": 1,
                  "west": 1, "fib_odd": 1, "b_rec": 1}


def formula_value(name: str, n: int) -> int:
    """Exact closed-form count formulas (binomials with negative index are 0)."""
    if name not in _FORMULA_START:
        raise KeyError(f"unknown formula {name!r}")
    if n < _FORMULA_START[name]:
        raise ValueError(f"{name} is defined for n >= {_FORMULA_START[name]}, got {n}")
    if name == "motzkin":
        # (i + 2) M_i = (2i + 1) M_(i-1) + 3(i - 1) M_(i-2)
        a, b = 1, 1
        for i in range(2, n + 1):
            a, b = b, ((2 * i + 1) * b + 3 * (i - 1) * a) // (i + 2)
        return b
    if name == "cat3":
        if n % 2 == 0:
            k = n // 2
            val = Fraction(math.comb(3 * k, k), 2 * k + 1)
        else:
            k = (n - 1) // 2
            val = Fraction(math.comb(3 * k + 1, k + 1), 2 * k + 1)
        if val.denominator != 1:
            raise ArithmeticError(f"cat3({n}) = {val} is not an integer")
        return val.numerator
    if name == "even_formula":
        # The sum over k <= n/2 of 2 C(n, 2k) C(n-k, k-1)
        # + C(n, 2k+1) (C(n-k, k) + C(n-k-1, k-1)), where
        # n/(n-k) C(n-k, k) = C(n-k, k) + C(n-k-1, k-1), so every term is an
        # integer.  C(n, 2k), C(n, 2k+1) and C(n-k, k) step in k by exact
        # integer ratios, and C(n-k, k-1) = C(n-k, k) k/(n-2k+1) and
        # C(n-k-1, k-1) = C(n-k, k) k/(n-k) are read off C(n-k, k).
        total = 0
        even, diag = 1, 1  # C(n, 2k), C(n-k, k) at k = 0
        for k in range(n // 2 + 1):
            odd = even * (n - 2 * k) // (2 * k + 1)
            total += (2 * even * (diag * k // (n - 2 * k + 1))
                      + odd * (diag + diag * k // (n - k)))
            even = odd * (n - 2 * k - 1) // (2 * k + 2)
            diag = diag * (n - 2 * k) * (n - 2 * k - 1) // ((n - k) * (k + 1))
        val, rem = divmod(total, n)
        if rem:
            raise ArithmeticError(f"even_formula({n}) = {total}/{n} is not an integer")
        return val
    if name == "pow2":
        return 2 ** (n - 1)
    if name == "west":
        return 1 if n == 1 else (n - 1) * 2 ** (n - 2) + 1
    if name == "fib_odd":
        a, b = 1, 1  # F_1, F_2
        for _ in range(2 * n - 2):
            a, b = b, a + b
        return a
    # b_rec: b_(i+2) = b_(i+1) + sum_k C(i, k) b_k, with the row C(i, .)
    # kept and stepped by Pascal's rule
    b, row = [1, 1], [1]
    for i in range(n - 1):
        b.append(b[i + 1] + sum(map(mul, row, b)))
        row = [1, *map(add, row, row[1:]), 1]
    return b[n]
