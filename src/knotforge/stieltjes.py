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

import threading
from fractions import Fraction

from .exactpoly import Rational


class PhiSeries:
    """Grow-only memo cache of the exact coefficients phi_n.

    Thread contract: the cache extends under an internal lock and is
    append-only, so concurrent readers are safe; a lock-free reader never
    observes a partially updated state.
    """

    def __init__(self):
        self._cache = [Fraction(0), Fraction(4, 9)]
        self._lock = threading.Lock()

    def __call__(self, n: int) -> Rational:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n >= len(self._cache):
            with self._lock:
                while len(self._cache) <= n:
                    m = len(self._cache) - 1
                    ratio = Fraction(2 * (3 * m + 1) * (3 * m - 1), 9 * (m + 1) * (2 * m + 1))
                    self._cache.append(self._cache[-1] * ratio)
        return self._cache[n]


_series = PhiSeries()


def phi(n: int) -> Rational:
    """Exact coefficient phi_n (phi_0 = 0, phi_1 = 4/9, ...)."""
    return _series(n)
