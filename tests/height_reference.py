"""The height interpolant built in `Fraction` arithmetic, as a reference.

`knots.solve_height` builds L B_0, the Newton interpolant of
B(u_i) = (-1)^i in v = t^2 scaled to integers, by an integer Horner in v
that `chebyshev.ints_on_V` puts on the V basis.  `reference_height_series`
builds B_0 itself with `Fraction` Newton divided differences and a
`Fraction` Horner on the V basis, and P_2 = t P by node factors on the V
basis, then runs the same fit; the two must return the same B.
"""

from fractions import Fraction

from knotforge import chebyshev as cb
from knotforge.chebyshev import _times_t
from knotforge.knots import _fit


def newton_interpolant(nodes):
    """B_0 on the V basis: the interpolant of (-1)^(n+1+i) at v = 0, d_1^2, ..., d_n^2."""
    n = nodes.n
    v = [Fraction(0)] + [d * d for d in nodes.delta]
    coeffs = [Fraction((-1) ** (n + 1 + i)) for i in range(n + 1)]
    for j in range(1, n + 1):  # Newton divided differences in v
        for i in range(n, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (v[i] - v[i - j])
    known = [coeffs[n]]
    for i in range(n - 1, -1, -1):  # Horner on the Newton form, on the V basis
        known = [a - v[i] * b for a, b in zip(_times_t(_times_t(known)), [*known, 0, 0])]
        known[0] += coeffs[i]
    return known


def reference_height_series(nodes) -> cb.ChebV:
    """B = B_0 + P_2 H on the V basis, with B_0 from `newton_interpolant`."""
    m = (nodes.n + 1) // 2
    planted = _times_t(_times_t([1]))  # P_2 = t P
    for d in nodes.delta:  # times q^2 t^2 - p^2 on the V basis, for d = p/q
        p2, q2 = d.numerator ** 2, d.denominator ** 2
        planted = [q2 * a - p2 * b for a, b in zip(_times_t(_times_t(planted)), [*planted, 0, 0])]
    return _fit(newton_interpolant(nodes) + [0] * (2 * m), planted, m, 2, 1)
