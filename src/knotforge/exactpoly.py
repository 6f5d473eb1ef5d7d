"""Exact rational polynomial arithmetic and certified real-root counting.

Everything in this module is exact: scalars are `fractions.Fraction`
(aliased `Rational`), polynomials are immutable coefficient tuples, and
root counting goes through Sturm chains so that every count is a proof,
not an approximation.  Floating-point evaluation exists only as a
convenience for plotting and diagnostics.

Root counting runs on integers alone.  A `SturmChain` is built once per
polynomial by integer pseudo-division; its last remainder is
gcd(p, p'), so the same sequence also gives the squarefree part, which
counting, isolation and refinement of that polynomial then share.  Each
element is kept as its primitive integer form, a positive multiple of
the rational remainder, and its sign at n/d is the sign of the integer
sum c_i n^i d^(D-i) (homogeneous Horner): no `Fraction` and no gcd.
`Poly.values_at` runs the same Horner on the coefficients brought to
their common denominator once, so each exact value costs one gcd.

When every root of a polynomial in an interval is already known and
certified, `PlantedRoots` holds them and gives, in closed form and with
no chain built, the intervals that `isolate_roots` and `refine` would
find by bisection (`cells`) and the half of one that a further halving
keeps (`halve`).  `signs_at_roots` gives the exact sign
of a second polynomial at each isolated root, from a slope bound, in
integers.  Linear systems are solved, and determinants taken, by one
fraction-free (Bareiss) elimination on integer rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import SingularSystem, ZeroPolynomial

Rational = Fraction

_RationalLike = Union[Fraction, int]

# Bisection depth at which `signs_at_roots` asks the gcd, and at which
# `knots.crossings` stops trying to separate two crossing parameters.
DEEP_WIDTH = Fraction(1, 2**200)


def rat_str(x: Rational) -> str:
    """Serialize a rational as ``p/q``, or ``p`` when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Rational:
    """Inverse of :func:`rat_str`."""
    return Fraction(s.strip())


def signed_sum(terms: Iterable[tuple[Rational, str]]) -> str:
    """``c*name + ...`` over the nonzero terms, as in ``t^3 - 1/64*t``; a unit
    coefficient is left out, and an empty name makes a constant term."""
    parts = []
    for c, name in terms:
        if c:
            mag = abs(c)
            body = rat_str(mag) if not name else name if mag == 1 else f"{rat_str(mag)}*{name}"
            sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
            parts.append(sign + body)
    return " ".join(parts)


class Poly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored densely, index = monomial degree, with no
    trailing zeros; the zero polynomial has an empty coefficient tuple
    and degree -1.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[_RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def monomial(cls, degree: int, coeff: _RationalLike = 1) -> "Poly":
        return cls([0] * degree + [coeff])

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Rational:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Rational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_odd(self) -> bool:
        return all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 0)

    def is_even(self) -> bool:
        return all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 1)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", _RationalLike]) -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other: _RationalLike) -> "Poly":
        return self.scale(other)

    def scale(self, s: _RationalLike) -> "Poly":
        s = Fraction(s)
        return Poly([c * s for c in self.coeffs])

    def __pow__(self, n: int) -> "Poly":
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def compose(self, inner: "Poly") -> "Poly":
        """Return self(inner(t)), expanded exactly (Horner over polynomials)."""
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * inner + Poly([c])
        return out

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x: _RationalLike) -> Rational:
        """Exact value at a rational (or int) point, by one integer Horner."""
        return self.values_at([x])[0]

    def values_at(self, xs: Sequence[_RationalLike]) -> list[Rational]:
        """Exact values at rational (or int) points, from one integer form.

        With L the lcm of the coefficient denominators, taken once, and
        x = num/den, p(x) = sum(L c_i num^i den^(D-i)) / (L den^D): the sum
        is integer homogeneous Horner (see `_horner`), and normalizing each
        returned Fraction is its only gcd.
        """
        cs = self.coeffs
        if not cs:
            return [Fraction(0)] * len(xs)
        lcm = math.lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (lcm // c.denominator) for c in cs]
        return [Fraction(_horner(ints, x.numerator, x.denominator),
                         lcm * x.denominator ** (len(cs) - 1)) for x in xs]

    def eval_float(self, xs: Sequence[float]) -> list[float]:
        """Double-precision Horner at every point of a grid, each coefficient
        converted once; for plotting only, never certification."""
        coeffs = [float(c) for c in reversed(self.coeffs)]
        out = []
        for x in xs:
            acc = 0.0
            for c in coeffs:
                acc = acc * x + c
            out.append(acc)
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroPolynomial("division by the zero polynomial")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        lead = other.coeffs[-1]
        nb = len(other.coeffs)
        while len(r) >= nb:
            if r[-1] == 0:
                r.pop()
                continue
            k = len(r) - nb
            c = r[-1] / lead
            q[k] = c
            for i in range(nb - 1):
                r[k + i] -= c * other.coeffs[i]
            r.pop()
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def monic(self) -> "Poly":
        return self.scale(1 / self.leading)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        names = ["", "t", *(f"t^{i}" for i in range(2, len(self.coeffs)))][:len(self.coeffs)]
        return signed_sum(zip(reversed(self.coeffs), reversed(names)))


# -- integer kernel -------------------------------------------------------------


def _content_free(ints: Sequence[int]) -> tuple[int, ...]:
    """Divide integer coefficients by their (positive) gcd."""
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def _primitive_ints(p: Poly) -> tuple[int, ...]:
    """Primitive form of p: coprime integers, a positive multiple of p."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return _content_free([c.numerator * (den // c.denominator) for c in p.coeffs])


def _horner(cs: Sequence[int], num: int, den: int) -> int:
    """den^D * p(num/den) = sum c_i num^i den^(D-i) for integer coefficients cs.

    Homogeneous Horner: integer products and sums only, no division or gcd.
    """
    acc, den_k = 0, 1
    for c in reversed(cs):
        acc *= num
        if c:
            acc += c * den_k
        den_k *= den
    return acc


def _sign_at(cs: Sequence[int], num: int, den: int) -> int:
    """Exact sign of the integer polynomial cs at num/den, for den > 0."""
    acc = _horner(cs, num, den)
    return (acc > 0) - (acc < 0)


def _neg_remainder(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Primitive form of -(a mod b); empty when b divides a.

    Integer pseudo-division: each step multiplies the running remainder by
    |lc(b)| / g, a positive factor, so the result is a positive multiple
    of the rational remainder and keeps its signs.
    """
    r = list(a)
    nb = len(b)
    lead = b[-1]
    lead_sign = 1 if lead > 0 else -1
    while len(r) >= nb:
        top = r.pop()
        if not top:
            continue
        g = math.gcd(top, lead)
        scale, f = abs(lead) // g, lead_sign * top // g
        if scale != 1:
            r = [scale * v for v in r]
        k = len(r) + 1 - nb
        for i in range(nb - 1):
            r[k + i] -= f * b[i]
    while r and not r[-1]:
        r.pop()
    return _content_free([-v for v in r])


def _remainder_sequence(a: tuple[int, ...], b: tuple[int, ...]) -> list[tuple[int, ...]]:
    """a, b, then the primitive forms of -(a mod b), ... (b nonzero).

    The last element is gcd(a, b) up to a nonzero constant.
    """
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _neg_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(r)
    return seq


def exact_quotient(a: Sequence[int], b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """a / b for integer polynomials with b primitive; None when b does not divide a over Q.

    By Gauss's lemma a quotient over Q has integer coefficients, so every
    step of the long division must divide exactly and leave remainder 0;
    the first step that does not proves that b does not divide a.
    """
    r = list(a)
    nb = len(b)
    low = [(i, v) for i, v in enumerate(b[:-1]) if v]
    q = [0] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c, rest = divmod(r[k + nb - 1], b[-1])
        if rest:
            return None
        q[k] = c
        if c:
            for i, v in low:
                r[k + i] -= c * v
    return None if any(r[:nb - 1]) or not q else tuple(q)


def _sturm_sequence(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Remainder sequence of a and a'; just [a] for a constant."""
    if len(a) < 2:
        return [a]
    return _remainder_sequence(a, _content_free([i * c for i, c in enumerate(a)][1:]))


# -- gcd ------------------------------------------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (primitive integer remainder sequence)."""
    if b.is_zero:
        return a if a.is_zero else a.monic()
    g = _remainder_sequence(_primitive_ints(a), _primitive_ints(b))[-1]
    return Poly(g).monic()


# -- Sturm chains and root isolation ------------------------------------------


class SturmChain:
    """Sturm chain of the squarefree part of p, in exact integer arithmetic.

    One remainder sequence p, p', -(p mod p'), ... serves both purposes:
    its last element is gcd(p, p'), kept as `gcd`.  When that is a
    constant, p is its own squarefree part and the sequence is the chain.
    Otherwise p is divided by it and the chain of the quotient is built
    instead, so `chain[0]` is always the squarefree part (up to a positive
    factor) and is shared by every count, isolation and refinement made
    with this object.  The roots of `gcd` are the repeated roots of p.

    Every element is kept as its primitive form (see `_primitive_ints`),
    a positive multiple of the remainder, so signs are exact integer signs
    from homogeneous Horner; no `Fraction` arithmetic is involved.
    `chain` holds the same elements as polynomials, the first two as p
    and p' when p is squarefree.

    `count(a, b)` returns the number of distinct real roots of p in the
    half-open interval (a, b].  This is exact for any rational endpoints,
    including endpoints where p or a chain element vanishes: the
    sign-variation count ignores zeros, which makes it right-continuous.
    """

    def __init__(self, p: Poly):
        if p.is_zero:
            raise ZeroPolynomial("Sturm chain of the zero polynomial")
        a = _primitive_ints(p)
        seq = _sturm_sequence(a)
        gcd = seq[-1]
        if len(gcd) > 1:
            # p / gcd(p, p'), with gcd's sign chosen so that the quotient is
            # a positive multiple of p / gcd(p, p') over Q; Gauss's lemma
            # makes it primitive
            if gcd[-1] < 0:
                gcd = tuple(-c for c in gcd)
            a = exact_quotient(a, gcd)
            p = Poly(a)
            seq = _sturm_sequence(a)
        self.gcd = Poly(gcd)
        self._ints: tuple[tuple[int, ...], ...] = tuple(seq)
        self.chain: tuple[Poly, ...] = (p, p.derivative(), *map(Poly, seq[2:]))[:len(seq)]

    @classmethod
    def of(cls, p: Union[Poly, SturmChain]) -> SturmChain:
        """The chain of p for a polynomial; p itself when it is already a chain."""
        return cls(p) if isinstance(p, Poly) else p

    def sign(self, x: Rational) -> int:
        """Exact sign of the squarefree part chain[0] at x."""
        return _sign_at(self._ints[0], x.numerator, x.denominator)

    def variations(self, x: Rational) -> int:
        num, den = x.numerator, x.denominator
        count = last = 0
        for cs in self._ints:
            s = _sign_at(cs, num, den)
            if s:
                if last and s != last:
                    count += 1
                last = s
        return count

    def count(self, a: Rational, b: Rational) -> int:
        """Distinct roots of chain[0] in (a, b]."""
        if not a < b:
            raise ValueError("need a < b")
        return self.variations(a) - self.variations(b)

    def deflated(self, x: Rational) -> SturmChain:
        """Chain of chain[0] / (t - x), for an exact root x of chain[0]."""
        return SturmChain(Poly(exact_quotient(self._ints[0], (-x.numerator, x.denominator))))


class PlantedRoots:
    """The certified roots of a polynomial in (lo, hi), with their bisection cells in closed form.

    `roots` must be every root of the polynomial in [lo, hi], all simple;
    the caller certifies that (in `knots.certify`, by the cofactor
    certificate).  The constructor checks the rest of the contract: the
    roots are sorted, distinct and strictly inside (lo, hi), else
    ValueError.  No chain is built.  `cells` gives the intervals that
    `isolate_roots` and `refine` give on a chain of the polynomial, and
    `halve` the half that `refine` keeps of one of them.
    """

    def __init__(self, roots: Sequence[Rational], lo: Rational, hi: Rational):
        self._roots = tuple(roots)
        self._lo, self._hi = Fraction(lo), Fraction(hi)
        ends = (self._lo, *self._roots, self._hi)
        if not all(a < b for a, b in zip(ends, ends[1:])):
            raise ValueError("planted roots must be sorted, distinct and strictly inside (lo, hi)")

    def halve(self, i: int, iv: IsolatingInterval) -> IsolatingInterval:
        """The half of iv that holds root i: (lo, m] if it is at most the midpoint m, else (m, hi].

        For the half-open dyadic cells of `cells` and of halving, this is
        `refine(chain, iv, iv.width / 2)` on a chain of the polynomial.
        """
        m = iv.midpoint
        return IsolatingInterval(iv.lo, m) if self._roots[i] <= m else IsolatingInterval(m, iv.hi)

    def cells(self, width: Rational) -> list[IsolatingInterval]:
        """`[refine(chain, iv, width) for iv in isolate_roots(chain, lo, hi)]`, with no bisection.

        For a chain of the polynomial and width = (hi - lo) / 2^depth.
        Bisection of (lo, hi] makes only the cells (lo + j w, lo + (j + 1) w]
        with w = (hi - lo) / 2^k; a root r = lo + x (hi - lo) lies in the
        one with j = ceil(x 2^k) - 1.  Its interval is that cell at
        k = max(depth, the first depth at which no neighbouring root shares
        its cell): isolation splits down to there, refinement on to `depth`.
        Integer shifts and floor divisions give j.
        """
        span = self._hi - self._lo
        steps = span / width
        depth = steps.numerator.bit_length() - 1
        if steps != 1 << depth:
            raise ValueError("width must be (hi - lo) / 2^depth")
        xs = [((r - self._lo) / span).as_integer_ratio() for r in self._roots]

        def cell(x: tuple[int, int], k: int) -> int:
            return ((x[0] << k) - 1) // x[1]

        ks = [depth] * len(xs)
        for i in range(len(xs) - 1):
            k = depth  # once parted, two roots stay in different cells
            while cell(xs[i], k) == cell(xs[i + 1], k):
                k += 1
            ks[i], ks[i + 1] = max(ks[i], k), k
        out = []
        for x, k in zip(xs, ks):
            j = cell(x, k)
            out.append(IsolatingInterval(self._lo + span * Fraction(j, 1 << k),
                                         self._lo + span * Fraction(j + 1, 1 << k)))
        return out


@dataclass(frozen=True)
class IsolatingInterval:
    """Half-open interval (lo, hi] certified to contain exactly one root."""

    lo: Rational
    hi: Rational

    @property
    def width(self) -> Rational:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Rational:
        return (self.lo + self.hi) / 2


def count_roots(p: Union[Poly, SturmChain], lo: Rational, hi: Rational) -> int:
    """Exact number of distinct real roots of p in the open interval (lo, hi).

    p is a polynomial or its SturmChain.  Roots exactly at either endpoint
    are excluded; no endpoint perturbation is needed because the
    half-open Sturm count (lo, hi] is already exact and a root at hi is
    detected by its exact sign.
    """
    chain = SturmChain.of(p)
    lo, hi = Fraction(lo), Fraction(hi)
    n = chain.count(lo, hi)
    if chain.sign(hi) == 0:
        n -= 1
    return n


def isolate_roots(
    p: Union[Poly, SturmChain], lo: Rational, hi: Rational
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals, one per distinct root of p in (lo, hi).

    p is a polynomial or its SturmChain.  Bisection on half-open Sturm
    counts; returned intervals (a, b] are sorted and each contains
    exactly one root.
    """
    chain = SturmChain.of(p)
    lo, hi = Fraction(lo), Fraction(hi)
    deflated_hi = chain.sign(hi) == 0
    if deflated_hi:
        # exclude the root at hi: it is not in the open interval
        chain = chain.deflated(hi)
    out: list[IsolatingInterval] = []
    stack = [(lo, hi, chain.variations(lo), chain.variations(hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1:
            out.append(IsolatingInterval(a, b))
            continue
        m = (a + b) / 2
        vm = chain.variations(m)
        stack.append((a, m, va, vm))
        stack.append((m, b, vm, vb))
    out.sort(key=lambda iv: iv.lo)
    if deflated_hi and out and out[-1].hi == hi:
        # the top interval must not also contain the deflated endpoint root,
        # or it would hold two roots of p; bisect until its ceiling drops
        a, b = out[-1].lo, out[-1].hi
        va = chain.variations(a)
        while b == hi:
            m = (a + b) / 2
            vm = chain.variations(m)
            if va - vm == 1:
                b = m
            else:
                a, va = m, vm
        out[-1] = IsolatingInterval(a, b)
    return out


def refine(p: Union[Poly, SturmChain], iv: IsolatingInterval, width: Rational) -> IsolatingInterval:
    """Shrink an isolating interval by bisection until hi - lo <= width.

    p is a polynomial or its SturmChain; passing the chain lets every
    root of one polynomial share its squarefree part.
    After the first step that pins nonzero endpoint signs, plain sign
    bisection takes over, which needs one exact integer sign per step
    instead of a full chain evaluation.
    """
    chain = SturmChain.of(p)
    lo, hi = Fraction(iv.lo), Fraction(iv.hi)
    width = Fraction(width)
    if hi - lo <= width:
        return IsolatingInterval(lo, hi)
    s_hi = chain.sign(hi)
    if s_hi == 0:
        # the isolated root is exactly hi
        lo = max(lo, hi - width)
        return IsolatingInterval(lo, hi)
    if chain.sign(lo) == 0:
        # lo can sit exactly on the neighboring root (a bisection midpoint);
        # chain-counted bisection until a clean sign bracket appears.
        while hi - lo > width:
            m = (lo + hi) / 2
            s_m = chain.sign(m)
            if s_m != 0 and s_m != s_hi:
                lo = m
                break
            if chain.count(lo, m) == 1:
                hi, s_hi = m, s_m
            else:
                lo = m
            if s_hi == 0:
                return IsolatingInterval(max(lo, hi - width), hi)
        if hi - lo <= width:
            return IsolatingInterval(lo, hi)
    while hi - lo > width:
        m = (lo + hi) / 2
        s_m = chain.sign(m)
        if s_m == 0:
            return IsolatingInterval(max(lo, m - width), m)
        if s_m == s_hi:
            hi = m
        else:
            lo = m
    return IsolatingInterval(lo, hi)


def signs_at_roots(
    chain: SturmChain, q: Poly, intervals: Sequence[IsolatingInterval]
) -> list[int]:
    """Exact sign of q at the root of chain[0] that each interval isolates, 0 if q vanishes there.

    With c_k the primitive integer coefficients of q and m = max(|lo|, |hi|),
    L2 = sum k (k-1) |c_k| m^(k-2) bounds |q''| on the interval, so
    |q'(lo)| + L2 (hi - lo) bounds |q'| there, and
    |q(lo)| > (|q'(lo)| + L2 (hi - lo)) (hi - lo) leaves q no root in
    [lo, hi]: q has the sign of q(lo) at the root.  Otherwise the interval
    is narrowed on the chain and tested again, in cross-multiplied
    integers.  The test never passes where q vanishes, so below DEEP_WIDTH
    the gcd of chain[0] and q (built once) is asked for a root in the
    interval; if it has none, bisection goes on.
    """
    if q.is_zero:
        return [0] * len(intervals)
    cs = _primitive_ints(q)
    deg = len(cs) - 1
    slope = [k * c for k, c in enumerate(cs)][1:]
    curve = [k * (k - 1) * abs(c) for k, c in enumerate(cs)][2:]
    common = None  # Sturm chain of gcd(chain[0], q), or False when it is constant
    out = []
    for iv in intervals:
        m = max(abs(iv.lo), abs(iv.hi))
        # L2 = l2_num / l2_den, and 0 for q of degree below 2
        l2_num, l2_den = _horner(curve, m.numerator, m.denominator), m.denominator ** max(deg - 2, 0)
        asked = False
        while True:
            lo, (w_num, w_den) = iv.lo, (iv.width.numerator, iv.width.denominator)
            den = lo.denominator
            val = _horner(cs, lo.numerator, den)          # den^deg q(lo)
            d1 = abs(_horner(slope, lo.numerator, den))   # den^(deg-1) |q'(lo)|
            # |q(lo)| and the bound above, times den^deg l2_den w_den^2
            gap = abs(val) * l2_den * w_den * w_den
            bound = (d1 * den * l2_den * w_den + l2_num * den ** deg * w_num) * w_num
            if gap > bound:
                out.append(1 if val > 0 else -1)
                break
            if iv.width <= DEEP_WIDTH and not asked:
                asked = True
                if common is None:
                    g = poly_gcd(chain.chain[0], q)
                    common = SturmChain(g) if g.degree > 0 else False
                if common and common.count(iv.lo, iv.hi):
                    out.append(0)
                    break
            # enough halvings to bring the bound below about |q(lo)| / 2
            halvings = min(max(1, bound.bit_length() - gap.bit_length() + 2), 64)
            iv = refine(chain, iv, iv.width / 2**halvings)
    return out


# -- exact linear algebra ------------------------------------------------------


def _eliminate(rows: Sequence[Sequence[Rational]], n: int) -> tuple[list[list[int]], Fraction]:
    """Bareiss fraction-free elimination of the first n columns of rational rows.

    Each row is first multiplied by the lcm of its denominators.  Step k
    makes every entry below and right of the pivot a minor of order
    k + 2 of those integer rows, so each division by the previous pivot is
    exact (Sylvester's identity).  Returns the eliminated rows and the
    factor f with det = f * (last pivot).  The pivot is the first nonzero
    entry of its column; a column with none depends on the columns before
    it, whatever pivots were chosen, and raises SingularSystem naming it.
    """
    a, factor = [], Fraction(1)
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        a.append([v.numerator * (den // v.denominator) for v in row])
        factor /= den
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise SingularSystem(f"singular at column {k}")
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            factor = -factor
        top = a[k]
        pk, tail = top[k], top[k + 1:]
        for r in range(k + 1, n):
            row, f = a[r], a[r][k]
            a[r] = row[:k] + [0] + [(v * pk - f * w) // prev for v, w in zip(row[k + 1:], tail)]
        prev = pk
    return a, factor


def solve_linear(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Rational]:
    """Solve an exact rational linear system by fraction-free elimination.

    [matrix | rhs] is eliminated by `_eliminate`; with D the last pivot,
    the integers D x_r, which Cramer's rule makes integral, come out of
    back-substitution by exact division.  A singular matrix raises
    SingularSystem, naming the first column that depends on the ones
    before it.
    """
    n = len(matrix)
    a, _ = _eliminate([[*row, rhs[i]] for i, row in enumerate(matrix)], n)
    if not n:
        return []
    det = a[-1][n - 1]
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        y[r] = (det * row[n] - sum(row[c] * y[c] for c in range(r + 1, n))) // row[r]
    return [Fraction(v, det) for v in y]


def bareiss_det(matrix: Sequence[Sequence[Rational]]) -> Rational:
    """Determinant by the fraction-free elimination of `solve_linear`; every
    intermediate entry is a minor, so entry growth stays polynomial."""
    n = len(matrix)
    try:
        a, factor = _eliminate(matrix, n)
    except SingularSystem:
        return Fraction(0)
    return factor * a[-1][-1] if n else Fraction(1)
