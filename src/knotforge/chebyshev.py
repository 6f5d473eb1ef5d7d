"""Monic Chebyshev bases and the divided-difference machinery.

Conventions (with t = 2 cos theta):

* ``T_n(t) = 2 cos(n theta)`` -- cosine family, monic, T_0 = 2, T_1 = t,
  T_{n+1} = t T_n - T_{n-1}.
* ``V_n(t) = sin((n+1) theta) / sin(theta)`` -- sine family, monic,
  V_0 = 1, V_1 = t, same recurrence.

The map at the heart of the construction sends T_k to eps_k V_{k-1},
where eps_k = V_{k-1}(1) is the period-6 sign table (1, 1, 0, -1, -1, 0).
For any s != t with T_3(s) = T_3(t) it computes the divided difference
(T_k(t) - T_k(s)) / (t - s) as a polynomial in u = s + t, which is what
turns coincidence questions about curves with cubic x into root counting
for a single univariate polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

from .errors import NotInImage
from .exactpoly import Poly, Rational, rat_str

_CoeffMap = Mapping[int, Union[Rational, int]]

_EPS_TABLE = (0, 1, 1, 0, -1, -1)


def eps(k: int) -> int:
    """The sign eps_k = V_{k-1}(1): period 6 in k, pattern 1,1,0,-1,-1,0."""
    if k < 1:
        raise ValueError("eps is defined for k >= 1")
    return _EPS_TABLE[k % 6]


@lru_cache(maxsize=1024)
def _family_ints(n: int, cosine: bool) -> tuple[int, ...]:
    """Integer coefficients of T_n (cosine) or V_n, in closed form: (-1)^j c_j
    at t^(n-2j), with c_j = C(n-j, j) for V_n and n/(n-j) C(n-j, j) for T_n."""
    if cosine and n == 0:
        return (2,)
    out = [0] * (n + 1)
    for j in range(n // 2 + 1):
        c = math.comb(n - j, j)
        out[n - 2 * j] = (-1) ** j * (n * c // (n - j) if cosine else c)
    return tuple(out)


def t_poly(n: int) -> Poly:
    """Monic cosine polynomial T_n as an exact monomial-basis Poly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Poly(_family_ints(n, True))


def v_poly(n: int) -> Poly:
    """Monic sine polynomial V_n as an exact monomial-basis Poly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return Poly(_family_ints(n, False))


def _normalize(coeffs: _CoeffMap) -> tuple[tuple[int, Fraction], ...]:
    items = []
    for k, c in coeffs.items():
        if k < 0:
            raise ValueError("basis indices must be >= 0")
        c = Fraction(c)
        if c:
            items.append((k, c))
    return tuple(sorted(items))


@dataclass(frozen=True)
class _ChebSeries:
    """Coefficients on one of the two monic families, as sorted (index, value) pairs."""

    items: tuple[tuple[int, Fraction], ...]

    @classmethod
    def of(cls, coeffs: _CoeffMap):
        return cls(_normalize(coeffs))

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

    _cosine = True


class ChebV(_ChebSeries):
    """Polynomial expressed in the V basis (V_0 = 1)."""

    _cosine = False


def _from_monomials(p: Poly, cls):
    """Exact change of basis, monomial -> cls, by triangular back-substitution."""
    rem = list(p.coeffs)
    out: dict[int, Fraction] = {}
    for d in range(len(rem) - 1, -1, -1):
        c = rem[d]
        if c:
            basis = _family_ints(d, cls._cosine)
            if d == 0:
                c /= basis[0]  # T_0 is the constant 2
            out[d] = c
            for i, bc in enumerate(basis):
                rem[i] -= c * bc
    return cls.of(out)


def to_T(p: Poly) -> ChebT:
    return _from_monomials(p, ChebT)


def to_V(p: Poly) -> ChebV:
    return _from_monomials(p, ChebV)


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


def w_poly(k: int) -> Poly:
    return v_poly(w_index(k))


# -- numeric evaluation ---------------------------------------------------------


def eval_T_float(c: ChebT, ts: Sequence[float]) -> list[float]:
    """Evaluate a T-basis polynomial in doubles at every point of a grid.

    Each coefficient is converted to a double once; at each point the
    three-term recurrence runs on its own, adding the T_0 and T_1 terms
    and then the term of each nonzero coefficient in increasing degree.
    On [-2, 2] every T_k is bounded by 2, so this is far better
    conditioned than expanding to the monomial basis first.
    Diagnostics only: certification never uses floats.
    """
    items = c.items
    if not items:
        return [0.0] * len(ts)
    coeffs = {k: float(ck) for k, ck in items}
    c0, c1 = coeffs.get(0, 0.0), coeffs.get(1, 0.0)
    # None marks a zero coefficient; a nonzero one whose double is 0.0 still adds
    steps = [coeffs.get(k) for k in range(2, items[-1][0] + 1)]
    out = []
    for x in ts:
        t0, t1 = 2.0, x
        tot = c0 * t0 + c1 * t1
        for ck in steps:
            t0, t1 = t1, x * t1 - t0
            if ck is not None:
                tot += ck * t1
        out.append(tot)
    return out
