"""Synthesis and certification of the (2,N) torus-knot curves.

For odd N = 2n+1 the pipeline produces a space curve

    x(t) = T_3(t),  deg y = N + 2*floor(N/4) + 1,  deg z = N + 2*floor((N+1)/4)

whose plane projection has exactly N transverse double points with
parameters s_1 < ... < s_N < t_1 < ... < t_N and alternating over/under
signs (-1)^i.  The steps:

1.  The odd triangular basis C_0..C_n of span(W_0..W_n), where
    C_j = t^{2j+1} F_j and F_j has no root in [-2, 2], comes from the
    [k/l] rational approximants of phi (v Q(u) - P(u) with v = t^2,
    u = t^2(t^2-3)^2/4), for `cn-table`; the tests build it a second way,
    by triangular elimination against the W rows, and check that the two
    agree.  Synthesis does not build it.
2.  Plant double-point abscissae {0, +-d_1, ..., +-d_n}: the unique
    A = C_n + sum a_k C_k vanishing there is P G, with
    P = t prod (q_i^2 t^2 - p_i^2) for d_i = p_i/q_i and G even, so the
    floor(n/2) lower coefficients of G are solved for instead
    (`solve_deformation`).
3.  Lift A through the divided-difference map to get y; crossing
    parameters come from u_i = 2 cos(alpha_i) via s, t = 2 cos(alpha -+ pi/3).
4.  Interpolate B(u_i) = (-1)^i in span(Ct_0..Ct_n), solved as
    B = B_0 + t P H (`solve_height`), and lift to the height z, making the
    crossing signs alternate exactly.
5.  `certify` checks the finished curve.  The crossings of (T_3, y) are
    the roots of R = dd(y) in (-2, 2), so one routine serves `gen` (where
    R = A) and `verify` (where R is recomputed from a stored y), on integer
    coefficients and dyadic cells.  With nodes, R's cofactor over P with
    no root in [-2, 2] (`exactpoly.root_free`) proves that R's roots in
    (-2, 2) are the planted ones, all simple.
    `certify` is the only gate of `gen`: one loop in `synthesize` halves
    the node scale epsilon until both systems are solvable and `certify`
    accepts the curve.

Every certificate is exact rational or integer arithmetic; floats appear
only in reports and rendering, and decimals only in `crossing_oracle`,
the brute-force reference the tests compare against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import NamedTuple, Optional, Sequence

from . import chebyshev as cb
from .errors import (
    CertificationFailed,
    EpsilonExhausted,
    InternalInconsistency,
    SingularSystem,
)
from .exactpoly import (
    DEEP_BITS,
    LocatedRoots,
    Poly,
    Rational,
    _content_free,
    _horner,
    _primitive_ints,
    exact_quotient,
    locate_roots,
    rat_str,
    root_free,
    signs_at_roots,
    solve_linear,
)
from .pade import pade
from .stieltjes import phi_coefficients

ROOT_DEPTH = 50  # `crossings`' cells on (-2, 2): 2^-48 wide
# The stages of `certify`, in the order it runs them.
CERTIFY_STAGES = ("count", "nodes", "ordering", "space")
MAX_HALVINGS = 40


def plane_degree(n_crossings: int) -> int:
    """Degree of y for N crossings: N + 2*floor(N/4) + 1."""
    return n_crossings + 2 * (n_crossings // 4) + 1


def height_degree(n_crossings: int) -> int:
    """Degree of z for N crossings: N + 2*floor((N+1)/4)."""
    return n_crossings + 2 * ((n_crossings + 1) // 4)


# -- domain types ---------------------------------------------------------------


class CnBasis(NamedTuple):
    """The odd triangular basis C_0..C_n_max, stored monic.

    `cn[j] = t^{2j+1} F_j` with F_j root-free on [-2, 2]; `cn_w[j]` are
    the coordinates of C_j on W_0..W_j (last entry always 1).
    """

    n_max: int
    cn: tuple[Poly, ...]
    cn_w: tuple[tuple[Fraction, ...], ...]


class _NodeFields(NamedTuple):
    n: int
    delta: tuple[Fraction, ...]
    epsilon: Optional[Fraction] = None  # scale that produced the nodes, if any


class NodeSet(_NodeFields):
    """Planted positive double-point abscissae 0 < d_1 < ... < d_n < 1."""

    __slots__ = ()

    def __new__(cls, n: int, delta: tuple[Fraction, ...], epsilon: Optional[Fraction] = None):
        if len(delta) != n:
            raise ValueError("need exactly n nodes")
        prev = Fraction(0)
        for d in delta:
            if not prev < d < 1:
                raise ValueError("nodes must satisfy 0 < d_1 < ... < d_n < 1")
            prev = d
        return tuple.__new__(cls, (n, delta, epsilon))

    def all_roots(self) -> tuple[Fraction, ...]:
        """The full planted root set {-d_n, ..., -d_1, 0, d_1, ..., d_n}, sorted."""
        return (*(-d for d in reversed(self.delta)), Fraction(0), *self.delta)


class PlaneCurve(NamedTuple):
    x: Poly
    y: cb.ChebT


class SpaceCurve(NamedTuple):
    plane: PlaneCurve
    z: cb.ChebT


class Crossing(NamedTuple):
    u_lo: Fraction
    u_hi: Fraction
    u: float
    alpha: float
    s: float
    t: float
    sign: Optional[int] = None


class CrossingReport(NamedTuple):
    """Crossing i as `crossings` finds it: its integer cell (low / den, high / den] at
    depth depths[i] of `LocatedRoots.cells`, and its floats (u, alpha, s, t).  The
    property `crossings` builds the Crossing objects at each read, signed (-1)^i once
    certified."""

    n_crossings: int
    cells: tuple[tuple[int, int, int], ...]
    floats: tuple[tuple[float, float, float, float], ...]
    depths: tuple[int, ...]
    ordering_margin: float  # diagnostic: smallest gap of s_1, ..., t_N in floats
    signs_alternate: Optional[bool] = None
    epsilon: Optional[Fraction] = None
    nodes: Optional[tuple[Fraction, ...]] = None

    @property
    def crossings(self) -> tuple[Crossing, ...]:
        return tuple(Crossing(Fraction(low, den), Fraction(high, den), *f,
                              (-1) ** i if self.signs_alternate else None)
                     for i, ((low, high, den), f) in enumerate(zip(self.cells, self.floats), 1))


# -- the C bases ------------------------------------------------------------------


def _validate_cn(j: int, c: Poly) -> tuple[Fraction, ...]:
    """Check C_j = t^{2j+1} F_j, F_j root-free on [-2, 2], and C_j = W_j + a combination
    of W_0..W_{j-1}, which fixes its parity and degree; returns its W-coordinates."""
    if any(c.coeffs[:2 * j + 1]):
        raise InternalInconsistency(f"t^{2*j+1} does not divide C_{j}")
    cofactor = _primitive_ints(Poly(c.coeffs[2 * j + 1:]))
    if not root_free(cofactor, -2, 2):
        raise InternalInconsistency(f"cofactor of C_{j} has a root in [-2, 2]")
    windex = {cb.w_index(i): i for i in range(j + 1)}
    coords = [Fraction(0)] * (j + 1)
    for k, coeff in cb.to_V(c).items:
        if k not in windex:
            raise InternalInconsistency(f"C_{j} has a V_{k} component outside W_0..W_{j}")
        coords[windex[k]] = coeff
    if coords[j] != 1:
        raise InternalInconsistency(f"C_{j} has W_{j} coordinate {rat_str(coords[j])}, expected 1")
    return tuple(coords)


def build_cn(n_max: int) -> CnBasis:
    """Build C_0..C_n_max from the rational approximants of phi.

    C_{2k+1} = t (v Q_k(u) - P_k(u)) and C_{2k} = t (v Q_{k-1}(u) - P_k(u))
    with the exact substitutions v = t^2, u = t^2 (t^2 - 3)^2 / 4, then
    normalized monic.  Every structural invariant is re-checked on the
    result; a failure raises InternalInconsistency rather than passing a
    bad basis downstream.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    t = Poly([0, 1])
    v_sub = t * t
    w = v_sub - Poly([3])
    u_sub = (v_sub * w * w).scale(Fraction(1, 4))
    series = [Fraction(0), *islice(phi_coefficients(), max(n_max - 1, 0))]  # f_0..f_{n_max-1}
    cns: list[Poly] = []
    coords: list[tuple[Fraction, ...]] = []
    for j in range(n_max + 1):
        if j == 0:
            c = t
        else:
            k, l = ((j - 1) // 2, (j - 1) // 2) if j % 2 else (j // 2, j // 2 - 1)
            approx = pade(series.__getitem__, k, l)
            c = t * (v_sub * approx.q.compose(u_sub) - approx.p.compose(u_sub))
            c = c.monic()
        coords.append(_validate_cn(j, c))
        cns.append(c)
    return CnBasis(n_max, tuple(cns), tuple(coords))


# -- deformation and height, with the planted roots factored out -----------------


def _fit(known: Optional[list], first: Sequence, count: int, residue: int, den: int) -> cb.ChebV:
    """X / den on the V basis, for X = known + sum_{j<count} x_j t^{2j} first with the
    x_j that clear its V-coefficients at k = residue (mod 6); known None is t^{2 count} first."""
    cols = []
    for _ in range(count + (known is None)):
        cols.append(cb._times_t(cb._times_t(cols[-1])) if cols else list(first))
    known = cols.pop() if known is None else known
    cols = [col + [0] * (len(known) - len(col)) for col in cols]
    rows = range(residue, len(known), 6)
    nums, lcm = solve_linear([[col[k] for col in cols] for k in rows], [-known[k] for k in rows])
    out = [lcm * c for c in known]
    for v, col in zip(nums, cols):
        out = [a + v * b for a, b in zip(out, col)]
    return cb.ChebV(tuple((k, Fraction(c, lcm * den)) for k, c in enumerate(out) if c))


def planted_factor(nodes: NodeSet) -> tuple[int, ...]:
    """P = t prod (q_i^2 t^2 - p_i^2) for d_i = p_i/q_i in primitive monomial integers,
    with simple roots exactly at the planted roots, and positive beyond the top one."""
    half = [1]  # prod (q_i^2 v - p_i^2) on integer lists, in v = t^2
    for d in nodes.delta:
        p2, q2 = d.numerator ** 2, d.denominator ** 2
        half = [q2 * a - p2 * b for a, b in zip([0, *half], [*half, 0])]
    return tuple(c for h in half for c in (0, h))


@lru_cache(maxsize=1)
def _planted_on_V(nodes: NodeSet) -> tuple[int, ...]:
    """P = `planted_factor(nodes)`, the product `certify` divides by, on the V basis
    by the integer Horner `cb.ints_on_V`; built once per node set for both solves."""
    return tuple(cb.ints_on_V(planted_factor(nodes)))


def solve_deformation(nodes: NodeSet) -> cb.ChebV:
    """Find the unique A = C_n + sum_{k<n} a_k C_k vanishing at the nodes, as A = P G.

    A is odd and vanishes at the planted roots, so A = P G with P from
    `planted_factor` and G even of degree 2m, m = floor(n/2).  A lies in
    span(C_0..C_n) = span(W_0..W_n) exactly when its V-coefficients at
    k = 5 (mod 6) vanish (W_{2j} = V_{6j+1}, W_{2j+1} = V_{6j+3}): m
    equations for the lower coefficients of G.  This system is singular
    (SingularSystem) exactly when the n x n one in the C basis is, as both
    describe the same set of A.

    Returns A on the V basis.
    """
    planted = _planted_on_V(nodes)
    return _fit(None, planted, nodes.n // 2, 5, planted[-1])  # lc(P): every V_k is monic


def default_nodes(n: int, epsilon: Fraction) -> NodeSet:
    """Uniformly spaced nodes d_i = epsilon * i / (n + 1)."""
    return NodeSet(n, tuple(epsilon * Fraction(i, n + 1) for i in range(1, n + 1)), epsilon)


# -- crossings ----------------------------------------------------------------------


def _parameter_bounds(cell: tuple[int, int, int], depth: int, sign: int) -> tuple[int, int, int]:
    """Enclosure of (u + sign sqrt(12 - 3u^2)) / 2, s for sign -1 and t for +1, on [l/d, h/d].

    Returns (e, low, high) in units of 2^-e, at most a quarter of the
    width.  s has its only minimum -2 at u = -1, and t its only maximum 2
    at u = 1, so the endpoint values and, when inside, that extreme bound
    them.  At u = p/d, f = floor(2^b u) and r = floor(2^b sqrt(12 - 3u^2))
    put 2^(b+1) s in (f - r - 1, f - r + 1) and 2^(b+1) t in [f + r, f + r + 2),
    all in integers, for the cell (l, h, d) of `LocatedRoots.ends` at depth b - 1.
    """
    low, high, den = cell
    b = depth + 1
    vals = [sign << (b + 2)] if low < sign * den < high else []
    for p in (low, high):
        f = (p << b) // den
        r = math.isqrt(((12 * den * den - 3 * p * p) << 2 * b) // (den * den))
        vals += [f + r, f + r + 2] if sign > 0 else [f - r - 1, f - r + 1]
    return b + 1, min(vals), max(vals)


def _certify_ordering(located: LocatedRoots, depths: Sequence[int],
                      cells: Sequence[tuple[int, int, int]]) -> None:
    """Prove s_1 < ... < s_N < t_1 < ... < t_N, by monotonicity where it decides.

    Root i starts in its cell (l_i / d_i, h_i / d_i] = cells[i], `LocatedRoots.ends`
    at depths[i].  s rises strictly on [-1, 2) and t on (-2, 1], and s <= -1
    on [-2, 1] and t >= 1 on [-1, 2].  So (s_i, s_{i+1}) is ordered when
    l_i >= -d_i, (t_i, t_{i+1}) when h_{i+1} <= d_{i+1}, and (s_N, t_1) when
    h_N <= d_N and l_1 >= -d_1: every pair of a `gen` curve, whose roots lie
    in (-1, 1).  Any other pair is compared on the enclosures of
    `_parameter_bounds`, built when first asked for; overlapping ones are
    taken one level deeper and compared again, down to width 2^-DEEP_BITS.
    Disjoint enclosures in the wrong order, or a pair still overlapping at
    that width, fail the ordering stage: CertificationFailed(..., "ordering").
    """
    n = len(depths)
    ks = list(depths)
    # (u_i > -1, u_i <= 1): a root of a pair needs [0] if the other member is an s, [1] if a t
    inside = [(low >= -den, high <= den) for low, high, den in cells]
    seq = [(i, -1) for i in range(n)] + [(i, 1) for i in range(n)]  # s_1..s_N, t_1..t_N
    bounds: list = [None] * (2 * n)
    for pos in range(2 * n - 1):
        (i, si), (j, sj) = seq[pos], seq[pos + 1]
        if inside[i][sj > 0] and inside[j][si > 0]:
            continue
        while True:
            for p in (pos, pos + 1):
                r, sign = seq[p]
                bounds[p] = bounds[p] or _parameter_bounds(located.ends(r, ks[r]), ks[r], sign)
            (ea, a_lo, a_hi), (eb, b_lo, b_hi) = bounds[pos], bounds[pos + 1]
            if a_hi << eb < b_lo << ea:
                break
            pair = f"{'st'[si > 0]}_{i + 1} and {'st'[sj > 0]}_{j + 1}"
            if a_lo << eb > b_hi << ea:
                raise CertificationFailed(f"parameters {pair} are out of order", "ordering")
            for r in {i, j}:
                low, high, den = located.ends(r, ks[r])
                if (high - low) << DEEP_BITS <= den:
                    raise CertificationFailed(
                        f"parameters {pair} not separated at width 2^-{DEEP_BITS}", "ordering")
                ks[r] += 1
                bounds[r::n] = [None, None]


def crossings(located: LocatedRoots) -> CrossingReport:
    """The crossings at the N = len(located) roots of R in (-2, 2) that `certify` counted.

    The report keeps the cells of `LocatedRoots.cells(ROOT_DEPTH)`, at most
    2^-48 wide, their depths and ends (l, h, d), and no Fraction: the double
    nearest each midpoint (l + h) / (2 d) is mapped through u = 2 cos(alpha),
    s = 2 cos(alpha + pi/3), t = 2 cos(alpha - pi/3) in floats.  The
    2N-way ordering s_1 < ... < s_N < t_1 < ... < t_N is proved by the
    monotonicity of s and t on [-1, 1], on rational enclosures only for pairs
    outside it (`_certify_ordering`), else the "ordering" stage fails; the
    float `ordering_margin`, the smallest gap of that sequence, is a diagnostic.
    """
    depths = located.cells(ROOT_DEPTH)
    cells = tuple(map(located.ends, range(len(located)), depths))
    _certify_ordering(located, depths, cells)
    out = []
    for low, high, den in cells:
        u = (low + high) / (2 * den)  # integer true division rounds correctly
        alpha = math.acos(max(-1.0, min(1.0, u / 2.0)))
        out.append((u, alpha, 2.0 * math.cos(alpha + math.pi / 3.0),
                    2.0 * math.cos(alpha - math.pi / 3.0)))
    seq = [s for _, _, s, _ in out] + [t for _, _, _, t in out]
    margin = min((b - a for a, b in zip(seq, seq[1:])), default=math.inf)
    return CrossingReport(len(located), cells, tuple(out), tuple(depths), margin)


def solve_height(nodes: NodeSet) -> cb.ChebV:
    """Interpolate B(u_i) = (-1)^i at the planted roots in span(Ct_0..Ct_n), as B = B_0 + P_2 H.

    B is even: the conditions are n + 1 values at v = t^2 in
    {0, d_1^2, ..., d_n^2}.  With Q the lcm of the node denominators and
    a_i = Q d_i, B_0 is their Newton interpolant in W = Q^2 v, at the
    integer abscissas W_i = a_i^2: sum c_i prod_{j<i} (Q^2 t^2 - a_j^2).
    The divided differences c_i are reduced integer pairs num/den, and
    L B_0, for L the lcm of their denominators, is an integer Horner in v
    that `cb.ints_on_V` puts on the V basis; the fit divides L back out.
    Every even interpolant is B_0 + P_2 H with P_2 = t P and H even.  B lies in
    span(Ct_0..Ct_n) = span(Wt_0..Wt_n) (Wt_{2j} = V_{6j},
    Wt_{2j+1} = V_{6j+4}) exactly when deg B <= deg Ct_n and its
    V-coefficients at k = 2 (mod 6) vanish: floor((n-1)/2) + 1 equations.
    This system is singular (SingularSystem) exactly when the one in the
    Ct basis is, as both describe the same interpolants.

    Returns B on the V basis.
    """
    n, m = nodes.n, (nodes.n + 1) // 2
    big_q = math.lcm(*(d.denominator for d in nodes.delta))
    w = [0] + [(d.numerator * (big_q // d.denominator)) ** 2 for d in nodes.delta]
    num, den = [(-1) ** (n + 1 + i) for i in range(n + 1)], [1] * (n + 1)
    for j in range(1, n + 1):  # Newton divided differences in W
        for i in range(n, j - 1, -1):
            top = num[i] * den[i - 1] - num[i - 1] * den[i]
            bottom = den[i] * den[i - 1] * (w[i] - w[i - j])
            g = math.gcd(top, bottom)
            num[i], den[i] = top // g, bottom // g
    lcm, q2 = math.lcm(*den), big_q * big_q
    half = [num[n] * (lcm // den[n])]
    for i in range(n - 1, -1, -1):  # L B_0 by Horner on the Newton form, in v = t^2
        half = [q2 * x - w[i] * y for x, y in zip([0, *half], [*half, 0])]
        half[0] += num[i] * (lcm // den[i])
    known = cb.ints_on_V([c for h in half for c in (h, 0)][:-1])
    return _fit(known + [0] * (2 * m), cb._times_t(_planted_on_V(nodes)), m, 2, lcm)


# -- verification -----------------------------------------------------------------


def certify(
    y: cb.ChebT,
    z: Optional[cb.ChebT],
    n_crossings: int,
    nodes: Optional[NodeSet] = None,
) -> CrossingReport:
    """Certify the N crossings of the curve (T_3, y, z); `gen` and `verify` share it.

    The crossings are the roots of R = dd(y) in (-2, 2).  The stages, in
    CERTIFY_STAGES order:

    - count: R is nonzero and has exactly N roots in (-2, 2), none
      repeated (a tangency, not a transverse crossing); an N above deg R,
      R's top V index, fails at once, before R is expanded or isolated;
    - nodes: when planted nodes are given, 2n + 1 = N and every planted
      root is an exact root of R;
    - ordering: `crossings` locates the N counted roots and proves their
      parameters ordered, raising this stage's CertificationFailed itself;
    - space: when z is present, z(t) - z(s) = (t - s) dd(z)(u) with
      t - s = sqrt(12 - 3u^2) > 0, so the sign at a crossing is that of
      dd(z) at its root u, which must be (-1)^i: decided by
      `signs_at_roots` on the roots that the count stage certified, at the
      report's depths, with or without nodes; a root shared with dd(z)
      (z(t) = z(s)) fails.  With nodes a failure names the node.

    R and dd(z) are read once each through their integer forms
    (`integer_form`), and every stage runs on those integers and on the
    dyadic cells of `LocatedRoots`: no `Poly` is built.  With nodes, R's
    primitive integers are divided by `planted_factor(nodes)`, each step
    checked exact (by Gauss's lemma an inexact step means P does not
    divide R over Q).  A quotient G with no root in [-2, 2] (`root_free`)
    proves the count and nodes stages at once: R = P G has exactly the
    2n + 1 planted roots there, all simple, so an N that differs fails the
    count with no isolation of R.  Every other case is decided by
    `locate_roots` on R itself, which finds R's distinct roots in (-2, 2)
    and flags a repeated one, and by one integer Horner of R at each node.
    R of a `gen` curve is odd, R = u S(u^2), so `locate_roots` isolates S
    on (0, 4) at half the degree and mirrors its roots; an R with no
    parity (a perturbed y) or with S(0) = 0 (a root of R at 0 that is not
    simple) is isolated on (-2, 2) itself.  The cells are the same on
    every path.
    `signs_at_roots` reads dd(z)'s integer form: at the exact planted roots
    +-d_i through its even and odd halves at d_i^2, one Horner of half the
    degree per node pair for an even dd(z) = E(u^2), and at R's roots
    found through S on S's roots, mirrored to the rest.

    Every certificate is exact.  The x/y coincidences are identities: s, t
    are the roots of X^2 - uX + (u^2 - 3), so T_3(s) = T_3(t), and
    y(t) - y(s) = (t - s) R(u) = 0.

    Returns the report with signs_alternate set, its crossings signed (-1)^i; a
    failed stage raises CertificationFailed carrying it and the unsigned report so far.
    """
    r_series = cb.divided_difference(y)
    if not r_series.items:
        raise CertificationFailed("divided-difference image of y is zero", "count")
    if n_crossings > r_series.degree:
        raise CertificationFailed(f"R has degree {r_series.degree}, fewer than {n_crossings} "
                                  "roots in (-2, 2)", "count")
    r = _content_free(r_series.integer_form()[0])
    roots = nodes.all_roots() if nodes is not None else ()
    cofactor = exact_quotient(r, planted_factor(nodes)) if nodes is not None else None
    planted = cofactor is not None and root_free(cofactor, -2, 2)
    located = LocatedRoots(roots, -2, 2) if planted else locate_roots(r, -2, 2)
    if len(located) != n_crossings:
        raise CertificationFailed(f"R has {len(located)} roots in (-2, 2), expected {n_crossings}",
                                  "count")
    if located.repeated:
        raise CertificationFailed("R has a repeated root in (-2, 2): a crossing is not transverse",
                                  "count")
    if nodes is not None and not planted:
        if 2 * nodes.n + 1 != n_crossings:
            raise CertificationFailed(
                f"{nodes.n} stored nodes give {2 * nodes.n + 1} planted roots, "
                f"expected {n_crossings}", "nodes"
            )
        for u in roots:
            if _horner(r, u.numerator, u.denominator):
                raise CertificationFailed(f"stored node {rat_str(u)} is not a root of R", "nodes")

    report = crossings(located)
    if z is None:
        return report

    z_ints, _ = cb.divided_difference(z).integer_form()
    for i, sign in enumerate(signs_at_roots(located, z_ints, report.depths), 1):
        if sign != (-1) ** i:
            raise CertificationFailed(
                f"dd(z)({rat_str(roots[i - 1])}) != {(-1) ** i}" if roots
                else f"crossing {i}: z(t)-z(s) has sign {sign}, expected {(-1) ** i}" if sign
                else f"z(t) = z(s) at crossing {i}", "space", report,
            )
    return report._replace(signs_alternate=True)  # every sign is certified to be (-1)^i


# -- the full pipeline --------------------------------------------------------------


def synthesize(
    n_crossings: int,
    epsilon: Optional[Rational] = None,
    nodes: Optional[Sequence[Rational]] = None,
) -> tuple[SpaceCurve, CrossingReport]:
    """Produce a fully certified space curve with N alternating crossings.

    Parameters
    ----------
    n_crossings : odd N >= 1
    epsilon : starting node scale for the automatic search (default 1/4), in
        0 < epsilon < (n + 1) / n, where every node lies in (0, 1); else ValueError
    nodes : explicit positive abscissae, given without epsilon (else ValueError);
        skips the automatic search, and a failure then propagates instead of retrying

    Each candidate node set runs one pass: the deformation and height
    solves, the y and z lifts, then `certify`, the gate `verify` runs too.
    Explicit nodes are the only candidate.  The automatic search tries
    d_i = epsilon * i / (n + 1) for epsilon / 2^k, k = 0..40: a singular
    system or a failed certificate moves on to the next scale.  Every
    accepted scale so far has been the first one tried; the loop exists
    because the underlying existence result is only an 'epsilon small
    enough' statement.

    Returns the curve and its report from `certify`.  EpsilonExhausted is
    the only expected failure of the automatic path.
    """
    if n_crossings < 1 or n_crossings % 2 == 0:
        raise ValueError("N must be an odd positive integer")
    n = (n_crossings - 1) // 2
    if nodes is not None:
        if epsilon is not None:
            raise ValueError("explicit nodes take no epsilon")
        candidates = [NodeSet(n, tuple(sorted(Fraction(d) for d in nodes)))]
    else:
        eps_val = Fraction(epsilon) if epsilon is not None else Fraction(1, 4)
        bound = f" < {rat_str(Fraction(n + 1, n))}" if n else ""  # d_n = epsilon n / (n + 1) < 1
        if eps_val <= 0 or n and eps_val >= Fraction(n + 1, n):
            raise ValueError(f"epsilon must satisfy 0 < epsilon{bound} for N = {n_crossings}, "
                             f"got {rat_str(eps_val)}")
        candidates = (default_nodes(n, eps_val / 2**k) for k in range(MAX_HALVINGS + 1))

    for node_set in candidates:
        try:
            y, z = (cb.lift_from_V(solve(node_set)) for solve in (solve_deformation, solve_height))
            for name, f, expected in (("y", y, plane_degree(n_crossings)),
                                      ("z", z, height_degree(n_crossings))):
                if f.degree != expected:
                    raise InternalInconsistency(f"deg {name} = {f.degree}, expected {expected}")
            report = certify(y, z, n_crossings, node_set)
        except (SingularSystem, CertificationFailed):
            if nodes is not None:
                raise
            continue
        return (SpaceCurve(PlaneCurve(cb.t_poly(3), y), z),
                report._replace(epsilon=node_set.epsilon, nodes=node_set.delta))
    raise EpsilonExhausted(f"no certified node set for n={n} after {MAX_HALVINGS} halvings")


# -- independent crossing oracle ------------------------------------------------------


def crossing_oracle(x: Poly, y: Poly, grid: int = 800, box: float = 2.2) -> int:
    """Count plane double points by brute force, independent of the theory.

    For cubic x, x(s) = x(t) with s != t reduces to a quadratic in t, so
    the solution set splits into two branches t(s).  The oracle sweeps a
    dense s-grid along both branches, locates sign changes of
    g(s) = y(s) - y(t(s)), refines each by bisection with a final secant
    (Newton-type) polish, and deduplicates the ordered pairs at 1e-6.

    Evaluation runs in decimal arithmetic with precision scaled to the
    coefficient size: the deformed curves hide their coincidences at
    magnitudes far below double-precision noise.
    """
    from decimal import Decimal, localcontext

    if x.degree != 3:
        raise ValueError("oracle requires deg x = 3")
    mag = sum(abs(float(c)) * (box + 0.1) ** k for k, c in enumerate(y.coeffs)) + 2.0
    prec = 60 + int(math.log10(mag))
    with localcontext() as ctx:
        ctx.prec = prec
        c3 = Decimal(x.coeff(3).numerator) / Decimal(x.coeff(3).denominator)
        c2 = Decimal(x.coeff(2).numerator) / Decimal(x.coeff(2).denominator)
        c1 = Decimal(x.coeff(1).numerator) / Decimal(x.coeff(1).denominator)
        yd = [Decimal(c.numerator) / Decimal(c.denominator) for c in y.coeffs]

        def eval_y(v: Decimal) -> Decimal:
            acc = Decimal(0)
            for c in reversed(yd):
                acc = acc * v + c
            return acc

        def branch_t(s: Decimal, sgn: int) -> Optional[Decimal]:
            disc = (c3 * s + c2) ** 2 - 4 * c3 * (c3 * s * s + c2 * s + c1)
            if disc < 0:
                return None
            return (-(c3 * s + c2) + sgn * disc.sqrt()) / (2 * c3)

        # s-range where the divided difference of x has real solutions:
        # between the roots of the discriminant (a downward parabola)
        aa = -3 * c3 * c3
        bb = -2 * c3 * c2
        cc = c2 * c2 - 4 * c3 * c1
        par = bb * bb - 4 * aa * cc
        if par <= 0:
            return 0
        fold_lo, fold_hi = sorted(((-bb - par.sqrt()) / (2 * aa), (-bb + par.sqrt()) / (2 * aa)))
        lo = max(Decimal(-box), fold_lo)
        hi = min(Decimal(box), fold_hi)
        if lo >= hi:
            return 0
        samples = [lo + (hi - lo) * k / grid for k in range(grid + 1)]

        found: list[tuple[float, float]] = []
        for sgn in (1, -1):
            prev: Optional[tuple[Decimal, Decimal]] = None
            for s in samples:
                t = branch_t(s, sgn)
                if t is None:
                    prev = None
                    continue
                g = eval_y(s) - eval_y(t)
                if g == 0:
                    found.append((float(s), float(t)))
                    prev = (s, g)
                    continue
                if prev is not None and (prev[1] < 0) != (g < 0):
                    a, ga, bnd, gb = prev[0], prev[1], s, g
                    for _ in range(140):
                        if bnd - a < Decimal(10) ** (-30):
                            break
                        m = (a + bnd) / 2
                        tm = branch_t(m, sgn)
                        if tm is None:
                            break
                        gm = eval_y(m) - eval_y(tm)
                        if gm == 0:
                            a = bnd = m
                            break
                        if (gm < 0) == (ga < 0):
                            a, ga = m, gm
                        else:
                            bnd, gb = m, gm
                    root = (a + bnd) / 2
                    if gb != ga:
                        # one secant polish; keep it only if it stays bracketed
                        sec = (a * gb - bnd * ga) / (gb - ga)
                        if a <= sec <= bnd:
                            root = sec
                    t_root = branch_t(root, sgn)
                    if t_root is not None:
                        found.append((float(root), float(t_root)))
                prev = (s, g)

    pairs = []
    for s, t in found:
        if abs(s - t) <= 1e-6 or abs(s) > box or abs(t) > box:
            continue
        pairs.append((min(s, t), max(s, t)))
    pairs.sort()
    count = 0
    last: Optional[tuple[float, float]] = None
    for p in pairs:
        if last is None or abs(p[0] - last[0]) > 1e-6 or abs(p[1] - last[1]) > 1e-6:
            count += 1
            last = p
    return count
