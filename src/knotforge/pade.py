"""Rational approximants [n/m] of series with positive Hankel structure.

For a series f = sum_{k>=1} f_k x^k whose coefficient Hankel
determinants are positive (a Stieltjes series), the [n/m] approximant
with m <= n is the unique pair (P, Q) with Q(0) = 1, deg P = n,
deg Q = m and P - f Q = 0 mod x^{n+m+1}.  The denominator system is the
m x m Hankel solve on f_{n-m+1} .. f_{n+m}; positivity of the Hankel
minors makes it nonsingular, so a SingularSystem here means the input
series is not what it claims to be.

The structural facts the rest of the package leans on (and the test
surface pins down): denominator roots all lie beyond the radius of
convergence, and the expansion of P/Q matches the series through order
n+m, is strictly below it at order n+m+1, and never exceeds it
coefficientwise after that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import SingularSystem
from .exactpoly import Poly, Rational, _primitive_ints, count_roots, solve_linear

SeriesLike = Union[Sequence[Rational], Callable[[int], Rational]]


def _as_callable(series: SeriesLike) -> Callable[[int], Fraction]:
    """Normalize a coefficient source to a function k -> f_k with f_0 = 0.

    Sequences are read as (f_1, f_2, ...); callables are used as-is.
    """
    if callable(series):
        return lambda k: Fraction(series(k)) if k >= 1 else Fraction(0)
    seq = [Fraction(c) for c in series]

    def f(k: int) -> Fraction:
        if k < 1:
            return Fraction(0)
        if k > len(seq):
            raise IndexError(f"series truncated before f_{k}")
        return seq[k - 1]

    return f


@dataclass(frozen=True)
class PadeApproximant:
    """The [n/m] approximant: p/q with q(0) = 1, deg p = n, deg q = m."""

    n: int
    m: int
    p: Poly
    q: Poly


def pade(series: SeriesLike, n: int, m: int) -> PadeApproximant:
    """Compute the [n/m] approximant of a zero-constant-term series.

    Parameters
    ----------
    series : sequence of f_1..f_{n+m}, or a callable k -> f_k
    n, m : numerator and denominator degrees, m <= n

    Raises
    ------
    SingularSystem
        If the Hankel system is singular or the solution degenerates
        (deg p < n or deg q < m); for a genuine Stieltjes input this
        signals a corrupted coefficient stream.
    """
    if m > n:
        raise ValueError("only m <= n is supported")
    if m < 0:
        raise ValueError("m must be >= 0")
    f = _as_callable(series)
    if m == 0:
        q = Poly([1])
    else:
        matrix = [[f(n + j - l) for l in range(1, m + 1)] for j in range(1, m + 1)]
        rhs = [-f(n + j) for j in range(1, m + 1)]
        sol = solve_linear(matrix, rhs)
        q = Poly([Fraction(1)] + sol)
    p = Poly([sum((f(k - j) * q.coeff(j) for j in range(min(k, m) + 1)), Fraction(0))
              for k in range(n + 1)])
    # f_0 = 0 forces p = 0 at n = 0; every n >= 1 must reach full degree
    if (n > 0 and p.degree != n) or q.degree != m:
        raise SingularSystem(f"degenerate [{n}/{m}] approximant (deg p={p.degree}, deg q={q.degree})")
    return PadeApproximant(n, m, p, q)


def expand(a: PadeApproximant, k: int) -> tuple[Rational, ...]:
    """First k Taylor coefficients (from x^1) of p/q by exact series division."""
    if k < 1:
        raise ValueError("k must be >= 1")
    out = [Fraction(0)] * (k + 1)
    for j in range(min(k, a.p.degree) + 1):
        out[j] = a.p.coeff(j)
    # q(0) = 1, so division is a clean forward recurrence
    for i in range(k + 1):
        for j in range(1, min(i, a.q.degree) + 1):
            out[i] -= a.q.coeff(j) * out[i - j]
    return tuple(out[1:])


def cauchy_root_bound(q: Poly) -> Rational:
    """Exact bound H = 1 + max |q_i| / |q_m|: every root of q has |root| < H."""
    lead = abs(q.leading)
    rest = [abs(c) for c in q.coeffs[:-1]]
    return Fraction(1) + (max(rest) / lead if rest else Fraction(0))


def check_pole_locations(a: PadeApproximant, r: Rational) -> bool:
    """True iff the denominator has exactly m real roots in (r, infinity).

    The unbounded end is replaced by the exact Cauchy bound of q, so the
    check is an exact root count (`count_roots`), not a numeric scan.
    """
    if a.m == 0:
        return True
    r = Fraction(r)
    bound = cauchy_root_bound(a.q)
    if bound <= r:
        return False
    return count_roots(_primitive_ints(a.q), r, bound) == a.m
