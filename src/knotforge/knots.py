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
    coefficients and dyadic cells.  With nodes, one Descartes test on R's
    cofactor over P (`certify_cofactor`) can prove that R's roots in
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
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

from . import chebyshev as cb
from .errors import (
    CertificationFailed,
    EpsilonExhausted,
    InternalInconsistency,
    OrderingViolation,
    SingularSystem,
)
from .exactpoly import (
    LocatedRoots,
    Poly,
    Rational,
    _content_free,
    _horner,
    _primitive_ints,
    count_roots,
    descartes_bound,
    exact_quotient,
    locate_roots,
    rat_str,
    signs_at_roots,
    solve_linear,
    squarefree,
)
from .pade import pade
from .stieltjes import phi

ROOT_WIDTH = Fraction(1, 2**48)
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


@dataclass(frozen=True)
class CnBasis:
    """The odd triangular basis C_0..C_n_max, stored monic.

    `cn[j] = t^{2j+1} F_j` with F_j root-free on [-2, 2]; `cn_w[j]` are
    the coordinates of C_j on W_0..W_j (last entry always 1).
    """

    n_max: int
    cn: tuple[Poly, ...]
    cn_w: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class NodeSet:
    """Planted positive double-point abscissae 0 < d_1 < ... < d_n < 1."""

    n: int
    delta: tuple[Fraction, ...]
    epsilon: Optional[Fraction] = None  # scale that produced the nodes, if any

    def __post_init__(self):
        if len(self.delta) != self.n:
            raise ValueError("need exactly n nodes")
        prev = Fraction(0)
        for d in self.delta:
            if not prev < d < 1:
                raise ValueError("nodes must satisfy 0 < d_1 < ... < d_n < 1")
            prev = d

    def all_roots(self) -> tuple[Fraction, ...]:
        """The full planted root set {-d_n, ..., -d_1, 0, d_1, ..., d_n}, sorted."""
        return (*(-d for d in reversed(self.delta)), Fraction(0), *self.delta)


@dataclass(frozen=True)
class PlaneCurve:
    x: Poly
    y: cb.ChebT


@dataclass(frozen=True)
class SpaceCurve:
    plane: PlaneCurve
    z: cb.ChebT


@dataclass(frozen=True)
class Crossing:
    u_lo: Fraction
    u_hi: Fraction
    u: float
    alpha: float
    s: float
    t: float
    sign: Optional[int] = None


@dataclass(frozen=True)
class CrossingReport:
    n_crossings: int
    crossings: tuple[Crossing, ...]
    ordering_margin: float  # diagnostic: smallest gap of s_1, ..., t_N in floats
    signs_alternate: Optional[bool] = None
    epsilon: Optional[Fraction] = None
    nodes: Optional[tuple[Fraction, ...]] = None


# -- the C bases ------------------------------------------------------------------


def _validate_cn(j: int, c: Poly) -> tuple[Fraction, ...]:
    """Structural checks for a candidate C_j; returns its W-coordinates."""
    expected_deg = 2 * j + 2 * (j // 2) + 1
    if c.degree != expected_deg:
        raise InternalInconsistency(f"C_{j} has degree {c.degree}, expected {expected_deg}")
    if not c.is_odd():
        raise InternalInconsistency(f"C_{j} is not odd")
    if any(c.coeff(i) != 0 for i in range(2 * j + 1)):
        raise InternalInconsistency(f"t^{2*j+1} does not divide C_{j}")
    cofactor = _primitive_ints(Poly(c.coeffs[2 * j + 1:]))
    if count_roots(cofactor, -2, 2) or not _horner(cofactor, -2, 1) or not _horner(cofactor, 2, 1):
        raise InternalInconsistency(f"cofactor of C_{j} has a root in [-2, 2]")
    windex = {cb.w_index(i): i for i in range(j + 1)}
    coords = [Fraction(0)] * (j + 1)
    for k, coeff in cb.to_V(c).items:
        if k % 3 == 2:
            raise InternalInconsistency(f"C_{j} has a V_{k} component (index = 2 mod 3)")
        if k not in windex:
            raise InternalInconsistency(f"C_{j} has a V_{k} component outside W_0..W_{j}")
        coords[windex[k]] = coeff
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
    cns: list[Poly] = []
    coords: list[tuple[Fraction, ...]] = []
    for j in range(n_max + 1):
        if j == 0:
            c = t
        else:
            k, l = ((j - 1) // 2, (j - 1) // 2) if j % 2 else (j // 2, j // 2 - 1)
            approx = pade(phi, k, l)
            c = t * (v_sub * approx.q.compose(u_sub) - approx.p.compose(u_sub))
            c = c.monic()
        coords.append(_validate_cn(j, c))
        cns.append(c)
    return CnBasis(n_max, tuple(cns), tuple(coords))


# -- deformation and height, with the planted roots factored out -----------------


def _times_t(c: Sequence[int]) -> list[int]:
    """t * sum c_k V_k on the V basis: t V_0 = V_1, t V_k = V_{k+1} + V_{k-1}."""
    return list(map(add, [0, *c], [*c[1:], 0, 0]))


def _times_node(c: Sequence[int], p: int, q: int) -> list[int]:
    """(q^2 t^2 - p^2) * sum c_k V_k on the V basis."""
    p2, q2 = p * p, q * q
    return [q2 * a - p2 * b for a, b in zip(_times_t(_times_t(c)), [*c, 0, 0])]


def _fit(known: list, first: list[int], count: int, residue: int, den: int) -> cb.ChebV:
    """X / den on the V basis, for X = known + sum_{j<count} x_j t^{2j} first
    with the x_j that clear its V-coefficients at k = residue (mod 6)."""
    cols = []
    for _ in range(count):
        cols.append(first + [0] * (len(known) - len(first)))
        first = _times_t(_times_t(first))
    rows = range(residue, len(known), 6)
    x = solve_linear([[col[k] for col in cols] for k in rows], [-known[k] for k in rows])
    lcm = math.lcm(*(v.denominator for v in x))
    out = [lcm * c for c in known]
    for v, col in zip(x, cols):
        w = v.numerator * (lcm // v.denominator)
        out = [a + w * b for a, b in zip(out, col)]
    return cb.ChebV(tuple((k, Fraction(c, lcm * den)) for k, c in enumerate(out) if c))


def planted_factor(nodes: NodeSet) -> tuple[int, ...]:
    """P = t prod (q_i^2 t^2 - p_i^2) for d_i = p_i/q_i in primitive monomial integers,
    with simple roots exactly at the planted roots, and positive beyond the top one."""
    half = [1]  # prod (q_i^2 v - p_i^2) on integer lists, in v = t^2
    for d in nodes.delta:
        p2, q2 = d.numerator ** 2, d.denominator ** 2
        half = [q2 * a - p2 * b for a, b in zip([0, *half], [*half, 0])]
    return tuple(c for h in half for c in (0, h))


def _planted_on_V(nodes: NodeSet) -> list[int]:
    """P = t prod (q_i^2 t^2 - p_i^2) on the V basis, by `_times_node` from t = V_1."""
    planted = [0, 1]
    for d in nodes.delta:
        planted = _times_node(planted, d.numerator, d.denominator)
    return planted


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
    m = nodes.n // 2
    planted = _planted_on_V(nodes)
    lead = planted[-1]  # lc(P): every V_k is monic
    top = planted
    for _ in range(m):
        top = _times_t(_times_t(top))
    return _fit(top, planted, m, 5, lead)


def certify_cofactor(cofactor: Sequence[int]) -> bool:
    """One-sided test that the even cofactor G of R = P G has no root in (-2, 2).

    True proves it, and with it that the roots of R in (-2, 2) are exactly
    the N planted ones, all simple: the hypothesis under which the curve
    has exactly N transverse crossings.  With g(v) = G(sqrt v), for G in
    integers, True means g(0) != 0 and Descartes' rule shows no root of g
    in (0, 4) (`descartes_bound` 0).  False proves nothing: a G that is not
    even, or whose bound is positive, is left to the isolation of R.
    """
    if not cofactor or any(cofactor[1::2]):
        return False
    return cofactor[0] != 0 and descartes_bound(cofactor[::2], 0, 4) == 0


def default_nodes(n: int, epsilon: Fraction) -> NodeSet:
    """Uniformly spaced nodes d_i = epsilon * i / (n + 1)."""
    return NodeSet(n, tuple(epsilon * Fraction(i, n + 1) for i in range(1, n + 1)), epsilon)


# -- lifting to the curve -----------------------------------------------------------


def lift_plane(a_series: cb.ChebV, n_crossings: int) -> PlaneCurve:
    """Lift a certified deformation, on the V basis, to the plane curve (T_3(t), y(t))."""
    y = cb.lift_from_V(a_series)
    expected = plane_degree(n_crossings)
    if y.degree != expected:
        raise InternalInconsistency(f"deg y = {y.degree}, expected {expected}")
    return PlaneCurve(cb.t_poly(3), y)


def _parameter_bounds(cell: tuple[int, int, int], sign: int) -> tuple[int, int, int]:
    """Enclosure of (u + sign sqrt(12 - 3u^2)) / 2, s for sign -1 and t for +1, on [l/d, h/d].

    Returns (e, low, high) in units of 2^-e, at most a quarter of the
    width.  s has its only minimum -2 at u = -1, and t its only maximum 2
    at u = 1, so the endpoint values and, when inside, that extreme bound
    them.  At u = p/d, f = floor(2^b u) and r = floor(2^b sqrt(12 - 3u^2))
    put 2^(b+1) s in (f - r - 1, f - r + 1) and 2^(b+1) t in [f + r, f + r + 2),
    all in integers, for the cell (l, h, d) of `LocatedRoots.ends`.
    """
    low, high, den = cell
    b = (4 * den // (high - low)).bit_length()  # of floor(4 / width)
    vals = [sign << (b + 2)] if low < sign * den < high else []
    for p in (low, high):
        f = (p << b) // den
        r = math.isqrt(((12 * den * den - 3 * p * p) << 2 * b) // (den * den))
        vals += [f + r, f + r + 2] if sign > 0 else [f - r - 1, f - r + 1]
    return b + 1, min(vals), max(vals)


def _certify_ordering(located: LocatedRoots, depths: Sequence[int]) -> None:
    """Prove s_1 < ... < s_N < t_1 < ... < t_N on the enclosures of `_parameter_bounds`.

    The roots start in their cells at `depths`.  When two neighboring
    enclosures overlap, their cells are taken one level deeper and the pair
    compared again, down to `exactpoly.DEEP_WIDTH`.  Disjoint enclosures in
    the wrong order, or a pair still overlapping at that width, raise
    OrderingViolation.
    """
    n = len(depths)
    ks = list(depths)
    seq = [(i, -1) for i in range(n)] + [(i, 1) for i in range(n)]  # s_1..s_N, t_1..t_N
    bounds = [_parameter_bounds(located.ends(i, ks[i]), sign) for i, sign in seq]
    for pos in range(2 * n - 1):
        (i, si), (j, sj) = seq[pos], seq[pos + 1]
        while True:
            (ea, a_lo, a_hi), (eb, b_lo, b_hi) = bounds[pos], bounds[pos + 1]
            if a_hi << eb < b_lo << ea:
                break
            pair = f"{'st'[si > 0]}_{i + 1} and {'st'[sj > 0]}_{j + 1}"
            if a_lo << eb > b_hi << ea:
                raise OrderingViolation(f"parameters {pair} are out of order")
            for r in {i, j}:
                low, high, den = located.ends(r, ks[r])
                if (high - low) << 200 <= den:
                    raise OrderingViolation(f"parameters {pair} not separated at width 2^-200")
                ks[r] += 1
                bounds[r::n] = [_parameter_bounds(located.ends(r, ks[r]), s) for s in (-1, 1)]


def crossings(located: LocatedRoots, n_crossings: int) -> CrossingReport:
    """Locate the N crossings of the lifted curve from the roots of R in (-2, 2).

    The report's intervals are the 2^-48 cells of `LocatedRoots.cells`,
    each mapped from its midpoint, the double nearest (l + h) / (2 d) for
    the integer ends (l, h, d), through u = 2 cos(alpha),
    s = 2 cos(alpha + pi/3), t = 2 cos(alpha - pi/3) in floats.  The
    2N-way ordering s_1 < ... < s_N < t_1 < ... < t_N is proved on
    rational enclosures (`_certify_ordering`), else OrderingViolation; the
    float `ordering_margin`, the smallest gap of that sequence, is a
    diagnostic.
    """
    depths = located.cells(ROOT_WIDTH)
    if len(depths) != n_crossings:
        raise OrderingViolation(f"found {len(depths)} crossings, expected {n_crossings}")
    _certify_ordering(located, depths)
    out = []
    for i, k in enumerate(depths):
        low, high, den = located.ends(i, k)
        u = (low + high) / (2 * den)  # integer true division rounds correctly
        alpha = math.acos(max(-1.0, min(1.0, u / 2.0)))
        s = 2.0 * math.cos(alpha + math.pi / 3.0)
        t = 2.0 * math.cos(alpha - math.pi / 3.0)
        out.append(Crossing(Fraction(low, den), Fraction(high, den), u, alpha, s, t))
    seq = [c.s for c in out] + [c.t for c in out]
    margin = min((b - a for a, b in zip(seq, seq[1:])), default=math.inf)
    return CrossingReport(n_crossings=n_crossings, crossings=tuple(out), ordering_margin=margin)


def solve_height(nodes: NodeSet) -> cb.ChebV:
    """Interpolate B(u_i) = (-1)^i at the planted roots in span(Ct_0..Ct_n), as B = B_0 + P_2 H.

    B is even: the conditions are n + 1 values at v = t^2 in
    {0, d_1^2, ..., d_n^2}.  With Q the lcm of the node denominators and
    a_i = Q d_i, B_0 is their Newton interpolant in W = Q^2 v, at the
    integer abscissas W_i = a_i^2: sum c_i prod_{j<i} (Q^2 t^2 - a_j^2).
    The divided differences c_i are reduced integer pairs num/den, and
    L B_0, for L the lcm of their denominators, is an integer Horner on
    the V basis (`_times_node`); the fit divides L back out.  Every even
    interpolant is B_0 + P_2 H with P_2 = t P and H even.  B lies in
    span(Ct_0..Ct_n) = span(Wt_0..Wt_n) (Wt_{2j} = V_{6j},
    Wt_{2j+1} = V_{6j+4}) exactly when deg B <= deg Ct_n and its
    V-coefficients at k = 2 (mod 6) vanish: floor((n-1)/2) + 1 equations.
    This system is singular (SingularSystem) exactly when the one in the
    Ct basis is, as both describe the same interpolants.

    Returns B on the V basis.
    """
    n, m = nodes.n, (nodes.n + 1) // 2
    big_q = math.lcm(*(d.denominator for d in nodes.delta))
    a = [0] + [d.numerator * (big_q // d.denominator) for d in nodes.delta]
    w = [x * x for x in a]
    num, den = [(-1) ** (n + 1 + i) for i in range(n + 1)], [1] * (n + 1)
    for j in range(1, n + 1):  # Newton divided differences in W
        for i in range(n, j - 1, -1):
            top = num[i] * den[i - 1] - num[i - 1] * den[i]
            bottom = den[i] * den[i - 1] * (w[i] - w[i - j])
            g = math.gcd(top, bottom)
            num[i], den[i] = top // g, bottom // g
    lcm = math.lcm(*den)
    known = [num[n] * (lcm // den[n])]
    for i in range(n - 1, -1, -1):  # L B_0 by Horner on the Newton form
        known = _times_node(known, a[i], big_q)
        known[0] += num[i] * (lcm // den[i])
    return _fit(known + [0] * (2 * m), _times_t(_planted_on_V(nodes)), m, 2, lcm)


# -- verification -----------------------------------------------------------------


def _values_at_planted(ints: Sequence[int], delta: Sequence[Fraction]) -> list[tuple[int, int]]:
    """[(q^D f(u), q^D) for u = p/q in -d_n, ..., -d_1, 0, d_1, ..., d_n], for the
    integer polynomial f = ints of degree D >= 0.

    The homogeneous Horner sum q^D f(+-p/q) splits into its even and odd
    terms, E +- O, with E = q^(D mod 2) e(p^2, q^2) and
    O = p q^((D+1) mod 2) o(p^2, q^2) for the even and odd coefficients e
    and o: two Horners at half the degree give the values at d and -d.
    """
    deg, even, odd = len(ints) - 1, ints[::2], ints[1::2]
    plus, minus = [], []
    for d in delta:
        p, q = d.numerator, d.denominator
        e = _horner(even, p * p, q * q) * q ** (deg % 2)
        o = _horner(odd, p * p, q * q) * p * q ** ((deg + 1) % 2) if odd else 0
        plus.append((e + o, q ** deg))
        minus.append((e - o, q ** deg))
    return [*reversed(minus), (ints[0], 1), *plus]


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
      repeated (a tangency, not a transverse crossing);
    - nodes: when planted nodes are given, 2n + 1 = N and every planted
      root is an exact root of R;
    - ordering: the crossings are located and their parameters proved
      ordered (see `crossings`);
    - space: when z is present, z(t) - z(s) = (t - s) dd(z)(u) with
      t - s = sqrt(12 - 3u^2) > 0, so the sign at a crossing is that of
      dd(z) at its root u: exactly (-1)^i at planted nodes, and otherwise
      `signs_at_roots` on R's located roots, where a root shared with
      dd(z) (z(t) = z(s)) fails.

    R and dd(z) are read once each through their integer forms
    (`integer_form`), and every stage runs on those integers and on the
    dyadic cells of `LocatedRoots`: no `Poly` is built.  With nodes, R's
    primitive integers are divided by `planted_factor(nodes)`, each step
    checked exact (by Gauss's lemma an inexact step means P does not
    divide R over Q).  An exact quotient nonzero at 2 that passes
    `certify_cofactor` proves the count and nodes stages at once: the
    2n + 1 planted roots are R's roots, all simple, so an N that differs
    fails the count with no isolation.  That test is one-sided, and every
    other case, a failed test included, is decided exactly below: a finished
    Descartes isolation of the same integers (`locate_roots`) proves the
    count, every root simple, and R is evaluated at the nodes in integers
    (`_values_at_planted`).  An unfinished one (a multiple root, or roots
    closer than DEEP_WIDTH) splits R into its squarefree part s = R / g
    and g = gcd(R, R') (`squarefree`): s has R's roots, all simple, so its
    isolation with no depth limit finishes and counts them, and R has a
    repeated root in (-2, 2) exactly when g has a root there.  The cells
    are the same on every path.  The signs at the nodes are checked in
    integers on dd(z)'s form, q^D dd(z)(p/q) = (-1)^i den q^D at each
    planted root p/q, by `_values_at_planted`; without nodes
    `signs_at_roots` decides them on the same form.

    Every certificate is exact.  The x/y coincidences are identities: s, t
    are the roots of X^2 - uX + (u^2 - 3), so T_3(s) = T_3(t), and
    y(t) - y(s) = (t - s) R(u) = 0.

    Returns the completed report; a failed stage raises
    CertificationFailed carrying the stage and the report so far.
    """
    r_ints, _ = cb.divided_difference(y).integer_form()
    if not r_ints:
        raise CertificationFailed("divided-difference image of y is zero", "count")
    r = _content_free(r_ints)
    roots = nodes.all_roots() if nodes is not None else ()
    planted = repeated = False
    if nodes is not None:
        cofactor = exact_quotient(r, planted_factor(nodes))
        # a certified cofactor is even: nonzero at 2, it keeps R's roots off both ends
        planted = bool(cofactor and sum(c << i for i, c in enumerate(cofactor))
                       and certify_cofactor(cofactor))
    located = LocatedRoots(roots, -2, 2) if planted else locate_roots(r, -2, 2)
    if located is None:
        s, g = squarefree(r)
        located = locate_roots(s, -2, 2, None)
        repeated = count_roots(g, -2, 2) > 0
    if len(located) != n_crossings:
        raise CertificationFailed(f"R has {len(located)} roots in (-2, 2), expected {n_crossings}",
                                  "count")
    if repeated:
        raise CertificationFailed("R has a repeated root in (-2, 2): a crossing is not transverse",
                                  "count")
    if nodes is not None and not planted:
        if 2 * nodes.n + 1 != n_crossings:
            raise CertificationFailed(
                f"{nodes.n} stored nodes give {2 * nodes.n + 1} planted roots, "
                f"expected {n_crossings}", "nodes"
            )
        for u, (value, _) in zip(roots, _values_at_planted(r, nodes.delta)):
            if value:
                raise CertificationFailed(f"stored node {rat_str(u)} is not a root of R", "nodes")

    try:
        report = crossings(located, n_crossings)
    except OrderingViolation as exc:
        raise CertificationFailed(str(exc), "ordering") from exc
    if z is None:
        return report

    z_ints, z_den = cb.divided_difference(z).integer_form()
    if nodes is not None:
        values = _values_at_planted(z_ints, nodes.delta) if z_ints else [(0, 1)] * len(roots)
        for i, (u, (value, scale)) in enumerate(zip(roots, values), start=1):
            if value != (-1) ** i * z_den * scale:  # dd(z)(u) = value / (den scale)
                raise CertificationFailed(f"dd(z)({rat_str(u)}) != {(-1) ** i}", "space", report)
    else:
        for i, sign in enumerate(signs_at_roots(located, z_ints, located.cells(ROOT_WIDTH)), 1):
            if sign != (-1) ** i:
                raise CertificationFailed(
                    f"crossing {i}: z(t)-z(s) has sign {sign}, expected {(-1) ** i}" if sign
                    else f"z(t) = z(s) at crossing {i}", "space", report,
                )
    # every sign is now certified to be (-1)^i
    completed = tuple(Crossing(c.u_lo, c.u_hi, c.u, c.alpha, c.s, c.t, (-1) ** i)
                      for i, c in enumerate(report.crossings, start=1))
    return replace(report, crossings=completed, signs_alternate=True)


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
    epsilon : starting node scale for the automatic search (default 1/4)
    nodes : explicit positive abscissae; skips the automatic search, and
        a failure then propagates instead of retrying

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
        candidates = [NodeSet(n, tuple(sorted(Fraction(d) for d in nodes)),
                              Fraction(epsilon) if epsilon is not None else None)]
    else:
        eps_val = Fraction(epsilon) if epsilon is not None else Fraction(1, 4)
        candidates = (default_nodes(n, eps_val / 2**k) for k in range(MAX_HALVINGS + 1))

    for node_set in candidates:
        try:
            a_series, b_series = solve_deformation(node_set), solve_height(node_set)
            plane = lift_plane(a_series, n_crossings)
            z = cb.lift_from_V(b_series)
            if z.degree != height_degree(n_crossings):
                raise InternalInconsistency(
                    f"deg z = {z.degree}, expected {height_degree(n_crossings)}"
                )
            report = certify(plane.y, z, n_crossings, node_set)
        except (SingularSystem, CertificationFailed):
            if nodes is not None:
                raise
            continue
        return SpaceCurve(plane, z), replace(report, epsilon=node_set.epsilon, nodes=node_set.delta)
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
