"""The parameter ordering proved on enclosures alone: the reference for
`knotforge.knots._certify_ordering`.

`certify_ordering` compares every neighbouring pair of
s_1 < ... < s_N < t_1 < ... < t_N on the enclosures of
`knots._parameter_bounds`, all 2N built up front, with no monotonicity
shortcut.  The library's routine lets the monotonicity of s and t decide
the pairs whose roots lie in [-1, 1] and runs this same loop on the rest,
so the two pass or fail together, with the same message, except on two
distinct roots in [-1, 1] too close to part at width 2^-200, which only
the library passes.
"""

from typing import Sequence

from knotforge.errors import CertificationFailed
from knotforge.exactpoly import LocatedRoots
from knotforge.knots import _parameter_bounds


def certify_ordering(located: LocatedRoots, depths: Sequence[int],
                     cells: Sequence[tuple[int, int, int]]) -> None:
    """Prove s_1 < ... < s_N < t_1 < ... < t_N on the enclosures of `_parameter_bounds`.

    Root i starts in its cell cells[i], its `LocatedRoots.ends` at
    depths[i].  When two neighboring enclosures overlap, their cells are
    taken one level deeper and the pair compared again, down to width
    2^-200.  Disjoint enclosures in the wrong order, or a pair still
    overlapping at that width, raise CertificationFailed(..., "ordering").
    """
    n = len(depths)
    ks = list(depths)
    seq = [(i, -1) for i in range(n)] + [(i, 1) for i in range(n)]  # s_1..s_N, t_1..t_N
    bounds = [_parameter_bounds(cells[i], ks[i], sign) for i, sign in seq]
    for pos in range(2 * n - 1):
        (i, si), (j, sj) = seq[pos], seq[pos + 1]
        while True:
            (ea, a_lo, a_hi), (eb, b_lo, b_hi) = bounds[pos], bounds[pos + 1]
            if a_hi << eb < b_lo << ea:
                break
            pair = f"{'st'[si > 0]}_{i + 1} and {'st'[sj > 0]}_{j + 1}"
            if a_lo << eb > b_hi << ea:
                raise CertificationFailed(f"parameters {pair} are out of order", "ordering")
            for r in {i, j}:
                low, high, den = located.ends(r, ks[r])
                if (high - low) << 200 <= den:
                    raise CertificationFailed(f"parameters {pair} not separated at width 2^-200",
                                              "ordering")
                ks[r] += 1
                bounds[r::n] = [_parameter_bounds(located.ends(r, ks[r]), ks[r], s)
                                for s in (-1, 1)]
