"""Test references for the phi series and its [n/m] approximants.

The package computes only the coefficients phi_n and the approximants;
the facts the tests check on them are computed here: sums of the series,
its closed form and differential equation, forward differences, Hankel
determinants (by the Fraction Gaussian elimination that `solve_linear`
is also checked against), and the expansion and poles of an approximant.
"""

import math
from fractions import Fraction
from itertools import islice

from knotforge.errors import SingularSystem
from knotforge.exactpoly import _primitive_ints, locate_roots
from knotforge.stieltjes import phi, phi_coefficients


def series_sum(u: float, terms: int = 120) -> float:
    """Truncated series sum_{n<=terms} phi_n u^n in double precision."""
    acc = 0.0
    up = 1.0
    for c in islice(phi_coefficients(), terms):
        up *= u
        acc += float(c) * up
    return acc


def partial_sum(k: int) -> Fraction:
    """Exact partial sum of phi_1 + ... + phi_k."""
    return sum(islice(phi_coefficients(), k), Fraction(0))


def phi_closed(u: float) -> float:
    """Closed form 4 sin^2(arcsin(sqrt(u)) / 3) of phi, in double precision, for 0 <= u <= 1."""
    return 4.0 * math.sin(math.asin(math.sqrt(u)) / 3.0) ** 2


def ode_residual(u: float, terms: int = 80) -> float:
    """Residual at u of -4 + 2 f + 9 (1 - 2u) f' + 18 (u - u^2) f'', for f the
    phi series truncated after `terms`; it vanishes up to the truncation tail."""
    f = fp = fpp = 0.0
    for n, c in enumerate(map(float, islice(phi_coefficients(), terms)), 1):
        f += c * u**n
        fp += c * n * u ** (n - 1)
        if n >= 2:
            fpp += c * n * (n - 1) * u ** (n - 2)
    return -4.0 + 2.0 * f + 9.0 * (1.0 - 2.0 * u) * fp + 18.0 * (u - u * u) * fpp


def difference(k: int, n: int) -> Fraction:
    """Exact k-th forward difference (Delta^k phi)_n by the binomial formula."""
    return sum(((-1) ** (k - j) * math.comb(k, j) * phi(n + j) for j in range(k + 1)), Fraction(0))


def gauss_reference(matrix, rhs):
    """Fraction Gaussian elimination with largest-magnitude pivots: (solution, det)."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            raise SingularSystem(f"singular at column {col}")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n + 1):
                a[r][c] -= f * a[col][c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (a[r][n] - sum(a[r][c] * x[c] for c in range(r + 1, n))) / a[r][r]
    return x, det


def hankel_det(n: int, m: int) -> Fraction:
    """Exact determinant of the (m+1)x(m+1) Hankel matrix [phi_{n+i+j}]."""
    matrix = [[phi(n + i + j) for j in range(m + 1)] for i in range(m + 1)]
    return gauss_reference(matrix, [0] * (m + 1))[1]


def expand(a, k: int) -> tuple:
    """First k Taylor coefficients (from x^1) of the approximant p/q, by exact
    series division (q(0) = 1 makes it a forward recurrence)."""
    out = [Fraction(0)] * (k + 1)
    for j in range(min(k, a.p.degree) + 1):
        out[j] = a.p.coeff(j)
    for i in range(k + 1):
        for j in range(1, min(i, a.q.degree) + 1):
            out[i] -= a.q.coeff(j) * out[i - j]
    return tuple(out[1:])


def cauchy_root_bound(q) -> Fraction:
    """Exact bound H = 1 + max |q_i| / |q_m|: every root of q has |root| < H."""
    rest = [abs(c) for c in q.coeffs[:-1]]
    return 1 + (max(rest) / abs(q.leading) if rest else Fraction(0))


def check_pole_locations(a, r) -> bool:
    """True iff the denominator has exactly m real roots in (r, infinity), by an
    exact root count up to the Cauchy bound of q."""
    if a.m == 0:
        return True
    bound = cauchy_root_bound(a.q)
    return bound > r and len(locate_roots(_primitive_ints(a.q), Fraction(r), bound)) == a.m
