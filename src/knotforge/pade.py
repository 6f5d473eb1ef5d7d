"""Rational approximants [n/m] of series with positive Hankel structure.

For a series f = sum_{k>=1} f_k x^k whose coefficient Hankel
determinants are positive (a Stieltjes series), the [n/m] approximant
with m <= n is the unique pair (P, Q) with Q(0) = 1, deg P = n,
deg Q = m and P - f Q = 0 mod x^{n+m+1}.  The denominator system is the
m x m Hankel solve on f_{n-m+1} .. f_{n+m}; positivity of the Hankel
minors makes it nonsingular, so a SingularSystem here means the input
series is not what it claims to be.

This module computes the approximant only.  The tests check its
structure for phi: the denominator roots all lie beyond the radius of
convergence, and the expansion of P/Q matches the series through order
n+m, is strictly below it at order n+m+1, and never exceeds it
coefficientwise after that.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import SingularSystem
from .exactpoly import Poly, Rational, solve_linear


class PadeApproximant(NamedTuple):
    """The [n/m] approximant: p/q with q(0) = 1, deg p = n, deg q = m."""

    n: int
    m: int
    p: Poly
    q: Poly


def pade(series: Callable[[int], Rational], n: int, m: int) -> PadeApproximant:
    """Compute the [n/m] approximant of a zero-constant-term series.

    Parameters
    ----------
    series : the coefficients k -> f_k, read for 1 <= k <= n + m (f_0 = 0)
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

    def f(k: int) -> Fraction:
        return Fraction(series(k)) if k >= 1 else Fraction(0)

    if m == 0:
        q = Poly([1])
    else:
        matrix = [[f(n + j - l) for l in range(1, m + 1)] for j in range(1, m + 1)]
        rhs = [-f(n + j) for j in range(1, m + 1)]
        nums, den = solve_linear(matrix, rhs)
        q = Poly([1, *(Fraction(v, den) for v in nums)])
    p = Poly([sum((f(k - j) * q.coeff(j) for j in range(min(k, m) + 1)), Fraction(0))
              for k in range(n + 1)])
    # f_0 = 0 forces p = 0 at n = 0; every n >= 1 must reach full degree
    if (n > 0 and p.degree != n) or q.degree != m:
        raise SingularSystem(f"degenerate [{n}/{m}] approximant (deg p={p.degree}, deg q={q.degree})")
    return PadeApproximant(n, m, p, q)
