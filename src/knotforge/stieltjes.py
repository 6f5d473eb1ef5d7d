"""Exact power-series coefficients of phi(u) = 4 sin^2(arcsin(sqrt(u)) / 3).

phi encodes the algebraic relation between the degree-2 and degree-6
cosine polynomials (with u = (T_6 + 2)/4 and v = T_2 + 2 one has
v = phi(u), equivalently 4u = v (v - 3)^2).  Its coefficients phi_n obey
the two-term ratio recursion

    phi_1 = 4/9,   phi_{n+1} = (2/9) (3n+1)(3n-1) / ((n+1)(2n+1)) phi_n,

are totally monotone, and form a Stieltjes series: every Hankel
determinant of the coefficient sequence is positive.  Those facts are
what makes the downstream rational approximations behave.  This module
computes only the coefficients; the tests check the facts, and the
closed form and the differential equation of phi, on them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import Iterator

from .exactpoly import Rational


def phi_coefficients() -> Iterator[Rational]:
    """The exact coefficients phi_1, phi_2, ... in order, by the ratio recursion."""
    c = Fraction(4, 9)
    for m in count(1):
        yield c
        c *= Fraction(2 * (3 * m + 1) * (3 * m - 1), 9 * (m + 1) * (2 * m + 1))


def phi(n: int) -> Rational:
    """Exact coefficient phi_n (phi_0 = 0, phi_1 = 4/9, ...)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(islice(phi_coefficients(), n - 1, None)) if n else Fraction(0)
