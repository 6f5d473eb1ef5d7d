"""Monic Chebyshev bases and the divided-difference machinery.

Conventions (with t = 2 cos theta):

* ``T_n(t) = 2 cos(n theta)`` -- cosine family, monic, T_0 = 2, T_1 = t,
  T_{n+1} = t T_n - T_{n-1}.
* ``V_n(t) = sin((n+1) theta) / sin(theta)`` -- sine family, monic,
  V_0 = 1, V_1 = t, same recurrence.  Its step t V_k = V_{k+1} + V_{k-1}
  (`_times_t`) changes bases: `to_V` is an integer Horner in t, `to_T`
  reads it through T_k = V_k - V_{k-2}, and synthesis builds on V with it.

The map at the heart of the construction sends T_k to eps_k V_{k-1},
where eps_k = V_{k-1}(1) is the period-6 sign table (1, 1, 0, -1, -1, 0).
For any s != t with T_3(s) = T_3(t) it computes the divided difference
(T_k(t) - T_k(s)) / (t - s) as a polynomial in u = s + t, which is what
turns coincidence questions about curves with cubic x into root counting
for a single univariate polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import NotInImage
from .exactpoly import Poly, Rational, rat_str

_EPS_TABLE = (0, 1, 1, 0, -1, -1)


def eps(k: int) -> int:
    """The sign eps_k = V_{k-1}(1): period 6 in k, pattern 1,1,0,-1,-1,0."""
    if k < 1:
        raise ValueError("eps is defined for k >= 1")
    return _EPS_TABLE[k % 6]


@lru_cache(maxsize=1024)
def _family_ints(n: int, cosine: bool) -> tuple[int, ...]:
    """Integer coefficients of T_n (cosine) or V_n, in closed form: (-1)^j c_j
    at t^(n-2j), with c_j = C(n-j, j) for V_n and n/(n-j) C(n-j, j) for T_n,
    each (-1)^j C(n-j, j) from the one before by an exact integer ratio."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (2,) if cosine else (1,)
    out = [0] * (n + 1)
    c = 1
    for j in range(n // 2 + 1):
        out[n - 2 * j] = n * c // (n - j) if cosine else c
        c = -c * (n - 2 * j) * (n - 2 * j - 1) // ((j + 1) * (n - j))
    return tuple(out)


def t_poly(n: int) -> Poly:
    """Monic cosine polynomial T_n as an exact monomial-basis Poly."""
    return Poly(_family_ints(n, True))


def v_poly(n: int) -> Poly:
    """Monic sine polynomial V_n as an exact monomial-basis Poly."""
    return Poly(_family_ints(n, False))


class _ChebSeries(NamedTuple):
    """Coefficients on one of the two monic families, as sorted (index, value) pairs.
    A series equals only a series of its own family, never a tuple."""

    items: tuple[tuple[int, Fraction], ...]

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):  # tuple's own != would not see the family
        return not self == other

    @classmethod
    def of(cls, coeffs: Mapping[int, Union[Rational, int]]):
        """The series of the nonzero values of {index: value}, indices >= 0."""
        if min(coeffs, default=0) < 0:
            raise ValueError("basis indices must be >= 0")
        items = ((k, Fraction(c)) for k, c in coeffs.items())
        return cls(tuple(sorted((k, c) for k, c in items if c)))

    @property
    def degree(self) -> int:
        return self.items[-1][0] if self.items else -1

    def integer_form(self) -> tuple[list[int], int]:
        """(ints, den): the monomial coefficients are ints[i] / den, summed in
        integers over den, the lcm of the denominators (every T_k and V_k has
        integer coefficients).  ints is empty for the zero series, and its last
        entry is nonzero otherwise."""
        den = math.lcm(*(c.denominator for _, c in self.items))
        acc = [0] * (self.degree + 1)
        for k, c in self.items:
            w = c.numerator * (den // c.denominator)
            for i, b in enumerate(_family_ints(k, self._cosine)):
                if b:
                    acc[i] += w * b
        return acc, den

    def to_poly(self) -> Poly:
        """The monomial form, from `integer_form`."""
        ints, den = self.integer_form()
        return Poly(Fraction(v, den) for v in ints)


class ChebT(_ChebSeries):
    """Polynomial expressed in the T basis; note T_0 is the constant 2."""

    __slots__ = ()
    _cosine = True


class ChebV(_ChebSeries):
    """Polynomial expressed in the V basis (V_0 = 1)."""

    __slots__ = ()
    _cosine = False


def _times_t(c: Sequence[int]) -> list[int]:
    """t * sum c_k V_k on the V basis: t V_0 = V_1, t V_k = V_{k+1} + V_{k-1}."""
    return list(map(add, [0, *c], [*c[1:], 0, 0]))


def ints_on_V(ints: Sequence[int]) -> list[int]:
    """sum ints[i] t^i on the V basis, by the integer Horner acc = t acc + c."""
    acc = list(ints[-1:])
    for c in ints[-2::-1]:
        acc = _times_t(acc)
        acc[0] += c
    return acc


def _convert(p: Poly, cls):
    """p on cls's basis, over the lcm den of p's denominators: `ints_on_V` gives the
    V coefficients b_k, and T_k = V_k - V_{k-2}, T_0 = 2 V_0 give the T ones,
    a_k = b_k + a_{k+2}: a step-2 suffix sum, with a_0 halved."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = ints_on_V([c.numerator * (den // c.denominator) for c in p.coeffs])
    for k in range(len(ints) - 3, -1, -1) if cls._cosine else ():
        ints[k] += ints[k + 2]
    return cls(tuple((k, Fraction(c, 2 * den if cls._cosine and not k else den))
                     for k, c in enumerate(ints) if c))


def to_T(p: Poly) -> ChebT:
    """Exact change of basis, monomial -> T, through the V basis (`_convert`)."""
    return _convert(p, ChebT)


def to_V(p: Poly) -> ChebV:
    """Exact change of basis, monomial -> V, by one integer Horner in t (`ints_on_V`)."""
    return _convert(p, ChebV)


def divided_difference(y: ChebT) -> ChebV:
    """Map sum a_k T_k to sum eps_k a_k V_{k-1}.

    This is the exact polynomial identity behind coincidences of curves
    with x = T_3: whenever T_3(s) = T_3(t) with s != t,
    (y(t) - y(s)) / (t - s) equals the returned polynomial evaluated at
    s + t.  Constant terms (and every T_{3j}) lie in the kernel.
    """
    return ChebV(tuple((k - 1, a if e > 0 else -a) for k, a in y.items if k and (e := eps(k))))


def lift_from_V(r: ChebV) -> ChebT:
    """Right inverse of :func:`divided_difference` with canonical kernel choice.

    Requires every V_{3j+2} coefficient of r to vanish (those indices are
    not in the image).  The lift sets all kernel coefficients a_{3j},
    including the constant term, to zero, which keeps degrees minimal.
    """
    out = []
    for j, c in r.items:
        e = eps(j + 1)
        if e == 0:
            raise NotInImage(f"V_{j} coefficient {rat_str(c)} obstructs the lift")
        out.append((j + 1, c if e > 0 else -c))  # eps is +-1: dividing is a sign flip
    return ChebT(tuple(out))


def w_index(k: int) -> int:
    """V-index of W_k: the odd sub-basis W_{2j} = V_{6j+1}, W_{2j+1} = V_{6j+3}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 6 * (k // 2) + (1 if k % 2 == 0 else 3)


def wtilde_index(k: int) -> int:
    """V-index of the even sub-basis: Wt_{2j} = V_{6j}, Wt_{2j+1} = V_{6j+4}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return 6 * (k // 2) + (0 if k % 2 == 0 else 4)


# -- numeric evaluation ---------------------------------------------------------


def eval_T_float(series: Sequence[ChebT], ts: Sequence[float]) -> list[list[float]]:
    """Evaluate one or two T-basis polynomials in doubles at every point of a grid.

    Each coefficient is converted to a double once.  At each point one
    three-term recurrence runs, two degrees per loop trip, and each series
    sums from it the T_0 and T_1 terms, then the term of each nonzero
    coefficient in increasing degree: the double operations, in the order,
    of a one-series, one-point evaluation.  On [-2, 2] every T_k is bounded
    by 2, so this is far better conditioned than expanding to the monomial
    basis first.  Diagnostics only: certification never uses floats.
    """
    if not 1 <= len(series) <= 2:
        raise ValueError("eval_T_float takes one or two series")
    top = max((c.items[-1][0] for c in series if c.items), default=0)
    # a lone series runs beside an empty one
    doubles = [{k: float(ck) for k, ck in c.items} for c in (*series, ChebT(()))[:2]]
    a0, a1, b0, b1 = (d.get(k, 0.0) for d in doubles for k in (0, 1))
    # None marks a zero coefficient; a nonzero one whose double is 0.0 still
    # adds.  Steps come in pairs: k = 2 .. top, and top + 1 when top is even
    a, b = ([d.get(k) for k in range(2, top + 2 - top % 2)] for d in doubles)
    steps = list(zip(a[0::2], b[0::2], a[1::2], b[1::2]))
    out_a, out_b = [], []
    for x in ts:
        t0, t1 = 2.0, x
        sum_a = a0 * t0 + a1 * t1
        sum_b = b0 * t0 + b1 * t1
        for a_even, b_even, a_odd, b_odd in steps:
            t0 = x * t1 - t0
            if a_even is not None:
                sum_a += a_even * t0
            if b_even is not None:
                sum_b += b_even * t0
            t1 = x * t0 - t1
            if a_odd is not None:
                sum_a += a_odd * t1
            if b_odd is not None:
                sum_b += b_odd * t1
        out_a.append(sum_a)
        out_b.append(sum_b)
    return [values if c.items else [0.0] * len(ts) for c, values in zip(series, (out_a, out_b))]
