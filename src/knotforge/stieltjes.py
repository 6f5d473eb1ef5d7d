"""Exact power-series coefficients of phi(u) = 4 sin^2(arcsin(sqrt(u)) / 3).

phi encodes the algebraic relation between the degree-2 and degree-6
cosine polynomials (with u = (T_6 + 2)/4 and v = T_2 + 2 one has
v = phi(u), equivalently 4u = v (v - 3)^2).  Its coefficients phi_n obey
the two-term ratio recursion

    phi_1 = 4/9,   phi_{n+1} = (2/9) (3n+1)(3n-1) / ((n+1)(2n+1)) phi_n,

are totally monotone, and form a Stieltjes series: every Hankel
determinant of the coefficient sequence is positive.  Those facts are
exactly what makes the downstream rational approximations behave, so
this module exposes them as checkable, exact predicates.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .exactpoly import Rational, bareiss_det


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


def phi_closed(u: float) -> float:
    """Closed form 4 sin^2(arcsin(sqrt(u)) / 3) in double precision.

    This is the oracle the exact series is tested against; it is never
    used to produce coefficients.
    """
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"phi_closed needs u in [0, 1], got {u}")
    return 4.0 * math.sin(math.asin(math.sqrt(u)) / 3.0) ** 2


def ode_residual(u: float, terms: int = 80, coeffs: Sequence[Rational] | None = None) -> float:
    """Residual of -4 + 2 f + 9 (1 - 2u) f' + 18 (u - u^2) f'' at u.

    f and its derivatives are truncated power series; by default f is
    phi, for which the residual should vanish up to the truncation tail.
    Passing explicit `coeffs` evaluates the same differential operator on
    another series (index = power of u).
    """
    if coeffs is None:
        cs = [float(phi(n)) for n in range(terms + 1)]
    else:
        cs = [float(c) for c in coeffs]
    f = fp = fpp = 0.0
    for n, c in enumerate(cs):
        if c == 0.0:
            continue
        f += c * u**n
        if n >= 1:
            fp += c * n * u ** (n - 1)
        if n >= 2:
            fpp += c * n * (n - 1) * u ** (n - 2)
    return -4.0 + 2.0 * f + 9.0 * (1.0 - 2.0 * u) * fp + 18.0 * (u - u * u) * fpp


def difference(k: int, n: int) -> Rational:
    """Exact k-th forward difference (Delta^k phi)_n via the binomial formula."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(
        ((-1) ** (k - j) * math.comb(k, j) * phi(n + j) for j in range(k + 1)),
        Fraction(0),
    )


def hankel_det(n: int, m: int) -> Rational:
    """Exact determinant of the (m+1)x(m+1) Hankel matrix [phi_{n+i+j}].

    Positive for every n >= 1, m >= 0; that positivity is the Stieltjes
    property the rational-approximation layer relies on.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    matrix = [[phi(n + i + j) for j in range(m + 1)] for i in range(m + 1)]
    return bareiss_det(matrix)
