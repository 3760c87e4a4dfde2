"""Exact truncated power series in t with rational-polynomial coefficients.

Coefficients are polynomials in two formal variables u and v over the
rationals.  A series holds each coefficient as a ring element: a plain
``int``/``Fraction`` when it is u,v-free and its ``Poly`` otherwise, so no
stored ``Poly`` is u,v-free.  The constructor normalises its coefficients
once; every operation then reads and writes elements directly, each product
or sum is scalar or ``Poly`` arithmetic as its two operands are, and a
``Poly`` is made only where a coefficient has u or v in it, so u,v-free
series make none at all.  ``coefficient(n)`` and ``coeffs`` read the
elements back as ``Poly``.  Series are never mutated, so a substitution of
nothing, or a series brought to its own order, is the series itself.
Neither is a ``Poly``, so ``x + 0`` and ``x * 1`` are ``x`` itself, and a
sum copies only the term map of its larger side.

All arithmetic is exact.  Division requires the denominator's t^0
coefficient d_0 to be a nonzero u,v-free rational; it solves
c_n = (b_n - sum_k d_k c_(n-k)) / d_0 term by term, summing over the
denominator's nonzero coefficients only, and the reciprocal is one
division.  Square roots require a u,v-free radicand with constant term 1
and halve exactly.  Quotients and halves that are integers are held as
``int``, so integer series stay integer.  Any operation combining two
series works to the smaller of their orders, and an order is never
negative.  A square root sums each convolution by symmetry, once over half
its terms.  Algebraic roots come from Newton iteration, which doubles the
correct precision each step and stops as soon as that precision covers the
order; each step evaluates and inverts the derivative only to the
precision already correct, which is all the step needs.  The equation and
its derivative are evaluated by Horner's rule (``horner``, which
``closed_forms.verify_identity`` uses too).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, eq, mul, sub
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _exact(x: Scalar | Poly) -> Scalar | Poly:
    """x as an ``int`` when it is an integral ``Fraction``, else x itself."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def _term(c: Scalar | Poly, powers: Sequence[tuple[str, int]]) -> str:
    """The term c * prod var^k; a non-constant Poly c is parenthesised."""
    mono = "".join(var if k == 1 else f"{var}^{k}" for var, k in powers if k)
    if isinstance(c, Poly):
        return f"({c}){mono}"
    if not mono:
        return str(c)
    if c == 1:
        return mono
    return f"-{mono}" if c == -1 else f"{c}{mono}"


def _signed_sum(terms: Sequence[str]) -> str:
    """Join terms with " + ", writing a leading minus as " - "."""
    if not terms:
        return "0"
    out = terms[0]
    for p in terms[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


class Poly:
    """A polynomial in u and v, stored as {(deg_u, deg_v): coefficient}.

    No coefficient stored is 0.  A ``Poly`` is never mutated after it is
    built, so a result may share an operand's ``Poly``: adding 0 or an empty
    ``Poly`` returns the other side, and multiplying by 1 returns ``self``.
    A sum copies the larger term map and folds the smaller one into it; a
    product loops over the operand with fewer terms on the outside.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def const(cls, c: Scalar) -> Poly:
        return cls({(0, 0): c} if c else {})

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0, 0) in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((0, 0), 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: Poly | Scalar) -> Poly:
        if type(other) is Poly:
            small, big = other.terms, self.terms
            if not small:
                return self
            if not big:
                return other
            if len(small) > len(big):
                small, big = big, small
        elif other:
            small, big = {(0, 0): other}, self.terms
        else:
            return self
        out = dict(big)
        for k, c in small.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = Poly.__new__(Poly)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> Poly:
        res = Poly.__new__(Poly)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __sub__(self, other: Poly | Scalar) -> Poly:
        return self + (-other)

    def __rsub__(self, other: Scalar) -> Poly:
        return -self + other

    def __mul__(self, other: Poly | Scalar) -> Poly:
        if type(other) is not Poly:
            if other == 1:
                return self
            out = {k: _exact(c * other) for k, c in self.terms.items()} if other else {}
        else:
            outer, inner = self.terms, other.terms
            if len(outer) > len(inner):
                outer, inner = inner, outer
            out = {}
            terms = iter(outer.items())
            for (a1, b1), c1 in terms:
                # The first outer term seeds the output: distinct inner keys
                # shift to distinct keys, and nonzero rationals multiply to
                # a nonzero product.
                out = {(a1 + a2, b1 + b2): c1 * c2 for (a2, b2), c2 in inner.items()}
                break
            for (a1, b1), c1 in terms:
                for (a2, b2), c2 in inner.items():
                    k = (a1 + a2, b1 + b2)
                    s = out.get(k, 0) + c1 * c2
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        res = Poly.__new__(Poly)
        res.terms = out
        return res

    def __rmul__(self, other: Scalar) -> Poly:
        return self * other  # through __mul__, so a wrapper of it sees this too

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def subs_one(self, u: bool = False, v: bool = False) -> Poly:
        """Substitute 1 for u and/or v."""
        out: dict[tuple[int, int], Scalar] = {}
        for (a, b), c in self.terms.items():
            k = (0 if u else a, 0 if v else b)
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = Poly.__new__(Poly)
        res.terms = out
        return res

    def __str__(self) -> str:
        return _signed_sum([_term(c, (("u", a), ("v", b)))
                            for (a, b), c in sorted(self.terms.items())])

    __repr__ = __str__


def _element(x: Poly | Scalar) -> Poly | Scalar:
    """x as a ring element: a u,v-free ``Poly`` as its plain number."""
    if type(x) is not Poly:
        return x
    terms = x.terms
    if not terms:
        return 0
    if len(terms) == 1 and (0, 0) in terms:
        return terms[(0, 0)]
    return x


def _normed(xs: Iterable[Poly | Scalar]) -> list[Poly | Scalar]:
    """The elements of xs, each u,v-free ``Poly`` read as its number."""
    return [_element(x) if type(x) is Poly else x for x in xs]


def _as_poly(x: Poly | Scalar) -> Poly:
    return x if type(x) is Poly else Poly.const(x)


class TruncatedSeries:
    """A power series in t modulo t^(order+1), with coefficients in Q[u, v].

    Each coefficient is held as a ring element: a plain ``int``/``Fraction``
    when it is u,v-free, its ``Poly`` otherwise.  ``coefficient(n)`` and
    ``coeffs`` read them as ``Poly``.  A series is never mutated.
    """

    __slots__ = ("order", "_coeffs")

    def __init__(self, coeffs: Sequence[Poly | Scalar], order: int | None = None):
        if order is None:
            order = len(coeffs) - 1
        self._fill(_normed(coeffs[: order + 1]), order)

    def _fill(self, elements: list[Poly | Scalar], order: int) -> TruncatedSeries:
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        self.order = order
        self._coeffs = elements[: order + 1] + [0] * (order + 1 - len(elements))
        return self

    @classmethod
    def zero(cls, order: int) -> TruncatedSeries:
        return _series([], order)

    @classmethod
    def from_terms(cls, order: int,
                   terms: Mapping[tuple[int, int, int], Scalar]) -> TruncatedSeries:
        """Build from {(deg_t, deg_u, deg_v): coefficient}."""
        out: list[Poly | Scalar] = [0] * (order + 1)
        for (i, a, b), c in terms.items():
            if i <= order and c:
                out[i] += Poly({(a, b): c}) if a or b else c
        return _series(_normed(out), order)

    @property
    def coeffs(self) -> list[Poly]:
        """The coefficients as a new list of ``Poly``."""
        return [_as_poly(c) for c in self._coeffs]

    def coefficient(self, n: int) -> Poly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond order {self.order}")
        return _as_poly(self._coeffs[n])

    def to_order(self, order: int) -> TruncatedSeries:
        """This series at the given order: cut, or padded with zero terms."""
        return self if order == self.order else _series(self._coeffs, order)

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    def first_nonzero(self) -> int | None:
        for i, c in enumerate(self._coeffs):
            if c:
                return i
        return None

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return _series(_normed(map(add, self._coeffs, other._coeffs)),
                       min(self.order, other.order))

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return _series(_normed(map(sub, self._coeffs, other._coeffs)),
                       min(self.order, other.order))

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        order = min(self.order, other.order)
        nonzero = [(j, y) for j, y in enumerate(other._coeffs[: order + 1]) if y]
        out: list[Scalar | Poly] = [0] * (order + 1)
        for i, x in enumerate(self._coeffs[: order + 1]):
            if x:
                for j, y in nonzero:
                    if i + j > order:
                        break
                    out[i + j] += x * y
        return _series(_normed(out), order)

    def scale(self, p: Poly | Scalar) -> TruncatedSeries:
        p = _element(p)
        return _series(_normed(_exact(c * p) for c in self._coeffs), self.order)

    def inverse(self) -> TruncatedSeries:
        """Reciprocal; requires an invertible rational constant term."""
        return _series([1], self.order) / self

    def __truediv__(self, other: TruncatedSeries) -> TruncatedSeries:
        """Quotient by c_n = (b_n - sum_{k>=1} d_k c_(n-k)) / d_0.

        The sum runs over the denominator's nonzero coefficients only, and
        each term is scalar or ``Poly`` arithmetic as its coefficients are.
        The denominator's constant term must be a nonzero rational; integral
        quotient coefficients are held as ``int``.
        """
        order = min(self.order, other.order)
        d0 = other._coeffs[0]
        if type(d0) is Poly or not d0:
            raise ValueError(
                f"series not invertible: constant term {d0} is not a nonzero rational")
        inv0 = _exact(1 / Fraction(d0))
        negated = [(k, -d) for k, d in enumerate(other._coeffs[1: order + 1], 1) if d]
        out: list[Scalar | Poly] = []
        for n, acc in enumerate(self._coeffs[: order + 1]):
            for k, d in negated:
                if k > n:
                    break
                c = out[n - k]
                if c:
                    acc += d * c
            if inv0 != 1:
                acc = _exact(acc * inv0)
            out.append(_element(acc) if type(acc) is Poly else acc)
        return _series(out, order)

    def sqrt(self) -> TruncatedSeries:
        """Square root with constant term 1; radicand must be u,v-free.

        Solves r_n = (s_n - sum_{0<i<n} r_i r_(n-i)) / 2 term by term; the
        sum pairs r_i r_(n-i) with r_(n-i) r_i, so it is twice the sum over
        0 < i < n/2, plus r_(n/2)^2 when n is even.  Integral halves are
        held as ``int``.
        """
        s = self._coeffs
        if any(type(c) is Poly for c in s):
            raise ValueError("sqrt requires a u,v-free radicand")
        if s[0] != 1:
            raise ValueError("sqrt requires constant term 1")
        r: list[Scalar] = [1]
        for n in range(1, self.order + 1):
            h = (n + 1) // 2
            cross = 2 * sum(map(mul, r[1:h], r[n - 1:n - h:-1]))
            if n % 2 == 0:
                cross += r[h] * r[h]
            r.append(_exact(Fraction(s[n] - cross, 2)))
        return _series(r, self.order)

    def subs_one(self, u: bool = False, v: bool = False) -> TruncatedSeries:
        """Substitute 1 for u and/or v; with neither, the series itself."""
        if not (u or v):
            return self
        return _series([_element(c.subs_one(u, v)) if type(c) is Poly else c
                        for c in self._coeffs], self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return all(map(eq, self._coeffs, other._coeffs))

    def __str__(self) -> str:
        return _signed_sum([_term(c, (("t", n),)) for n, c in enumerate(self._coeffs) if c])

    __repr__ = __str__


def _series(elements: list[Poly | Scalar], order: int) -> TruncatedSeries:
    """The series of ring elements, none a u,v-free ``Poly``, at the order."""
    return TruncatedSeries.__new__(TruncatedSeries)._fill(elements, order)


def divide_cancel(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """num/den allowing a common power of t to be canceled first.

    The first nonzero coefficient of den (after cancellation) must be an
    invertible rational; num must vanish to at least the same t-order.  The
    result's order drops by the canceled power.
    """
    k = den.first_nonzero()
    if k is None:
        raise ZeroDivisionError("division by the zero series")
    if k:
        if any(num._coeffs[:k]):
            raise ValueError(f"series not divisible by t^{k}")
        num = _series(num._coeffs[k:], num.order - k)
        den = _series(den._coeffs[k:], den.order - k)
    return num / den


def horner(coeffs: Sequence[TruncatedSeries], y: TruncatedSeries) -> TruncatedSeries:
    """sum_i coeffs[i] y^i, to the order of y."""
    acc = TruncatedSeries.zero(y.order)
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def algebraic_root(eq_coeffs: Sequence[TruncatedSeries], order: int) -> TruncatedSeries:
    """The unique power-series root Y with Y(0) = 0 of sum_i c_i(t) Y^i = 0.

    Requires c_0(0) = 0 and c_1(0) invertible; solved by Newton iteration
    with doubling precision, y <- y - f(y)/f'(y) mod t^(2 prec) from
    y = Y mod t^prec.  Since f(y) = O(t^prec), 1/f'(y) is needed only mod
    t^prec: each step evaluates f' on y cut there and inverts it once at
    order prec - 1, so ceil(log2(order + 1)) steps (at least one) reach the
    order, and the root is checked in the equation at the end.
    """
    coeffs = [c.to_order(order) for c in eq_coeffs]
    c0 = coeffs[0]._coeffs[0]
    c1 = coeffs[1]._coeffs[0]
    if c0:
        raise ValueError("no power-series branch: equation does not vanish at Y=0, t=0")
    if type(c1) is Poly or not c1:
        raise ValueError("branch not unique: linear coefficient not invertible at t=0")
    derivs = [coeffs[i].scale(i) for i in range(1, len(coeffs))]

    y = TruncatedSeries.zero(0)
    prec = 1  # y is Y mod t^prec; one step makes it Y mod t^(2 prec)
    while True:
        y = y.to_order(min(order, 2 * prec))
        # 1/f'(y) mod t^prec, padded with zeros to the order of y
        inv = horner(derivs, y.to_order(prec - 1)).inverse()
        y = y - horner(coeffs, y) * inv.to_order(y.order)
        if 2 * prec > order:
            break
        prec *= 2
    if not horner(coeffs, y).is_zero():
        raise ArithmeticError("Newton iteration failed to converge")
    return y
