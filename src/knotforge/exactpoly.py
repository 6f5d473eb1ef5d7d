"""Exact rational polynomial arithmetic and certified real roots.

Everything in this module is exact: scalars are `fractions.Fraction`
(aliased `Rational`), polynomials are immutable coefficient tuples, and
every root count is a proof, not an approximation.  Floating-point
evaluation exists only as a convenience for plotting and diagnostics.

The root layer takes integer coefficients (`_primitive_ints` adapts a
`Poly`).  `locate_roots` isolates, in order, the roots of p in an
interval by Descartes bisection in the Bernstein basis: sign variations
(`_variations`, the one Descartes test) and integer de Casteljau splits,
with no remainder sequence.  A finished run proves the count, every
root simple.  Its `LocatedRoots`, or planted roots already certified,
give the dyadic cells of Sturm bisection and refinement as a depth per
root (`cells`) and integers (`ends`), narrowed on exact values of p at
dyadic points.  The one root counter, `count_roots`, isolates the
squarefree part p / gcd(p, p') (`squarefree`, by an integer remainder
sequence and exact division), so its isolation always finishes.  A
value at n/d is the integer sum c_i n^i d^(D-i) (homogeneous Horner,
shifts for d = 2^s), which also evaluates a `Poly` on its coefficients
brought to one denominator.  `signs_at_roots` gives the exact sign of a
second polynomial at each located root, from a slope bound.  Linear
systems are solved by fraction-free (Bareiss) elimination on integer
rows (`solve_linear`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, ne
from typing import Iterable, Optional, Sequence, Union

from .errors import SingularSystem, ZeroPolynomial

Rational = Fraction

_RationalLike = Union[Fraction, int]

# Cell width, (h - l) << 200 <= d for (l / d, h / d], at which `signs_at_roots`
# asks the gcd and `knots.crossings` stops separating two crossing parameters.
DEEP_WIDTH = Fraction(1, 2**200)


def rat_str(x: Rational) -> str:
    """Serialize a rational as ``p/q``, or ``p`` when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


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
        """Exact value at a rational (or int) point, by one integer Horner.

        With L the lcm of the coefficient denominators and x = num/den,
        p(x) = sum(L c_i num^i den^(D-i)) / (L den^D): the sum is integer
        homogeneous Horner (see `_horner`), and normalizing the returned
        Fraction is its only gcd.
        """
        cs = self.coeffs
        if not cs:
            return Fraction(0)
        lcm = math.lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (lcm // c.denominator) for c in cs]
        return Fraction(_horner(ints, x.numerator, x.denominator),
                        lcm * x.denominator ** (len(cs) - 1))

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

    Homogeneous Horner: integer products and sums only, no division or gcd;
    at a dyadic point the powers of den are shifts.
    """
    acc = 0
    if den > 0 and not den & (den - 1):  # den = 2^s: den^k is a shift by s k
        s = den.bit_length() - 1
        for k, c in enumerate(reversed(cs)):
            acc = acc * num + (c << s * k)
        return acc
    den_k = 1
    for c in reversed(cs):
        acc *= num
        if c:
            acc += c * den_k
        den_k *= den
    return acc


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


# -- squarefree part ------------------------------------------------------------


def squarefree(p: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(s, g) for integer coefficients p: g = gcd(p, p') and s = p / g, both
    primitive, g with a positive leading coefficient.

    s is the squarefree part of p, a positive multiple of it: every root of
    p, each one simple.  The roots of g are the repeated roots of p.  By
    Gauss's lemma the quotient of the primitive integers is exact.
    """
    if not p:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    a, g = _content_free(p), (1,)
    if len(a) > 1:
        g = _remainder_sequence(a, _content_free([i * c for i, c in enumerate(a)][1:]))[-1]
        if g[-1] < 0:
            g = tuple(-v for v in g)
    return exact_quotient(a, g), g


@dataclass(frozen=True)
class IsolatingInterval:
    """Half-open interval (lo, hi] certified to contain exactly one root."""

    lo: Rational
    hi: Rational

    @property
    def width(self) -> Rational:
        return self.hi - self.lo


# -- Descartes root isolation ----------------------------------------------------


def _moved(cs: Sequence[int], lo: Rational, hi: Rational) -> tuple[int, ...]:
    """Primitive integers of a positive multiple of p(lo + (hi - lo) x), for p = cs.

    With lo = a / c and hi - lo = b / c, that is sum cs_i c^(d-i) y^i at
    y = a + b x: a Taylor shift by a, then coefficient i times b^i.
    """
    span = hi - lo
    c = lo.denominator * span.denominator
    a, b = lo.numerator * span.denominator, span.numerator * lo.denominator
    r = [v * c ** i for i, v in enumerate(reversed(cs))]  # r[i] is coefficient d - i
    for m in range(len(r) if a else 0, 1, -1):
        r[:m] = accumulate(r[:m], lambda acc, v: acc * a + v)
    return _content_free([v * b ** i for i, v in enumerate(reversed(r))])


def _bernstein(q: Sequence[int]) -> tuple[list[int], int]:
    """(B, L): B_i = L b_i, L = lcm_i C(d, i), for q(x) = sum b_i C(d, i) x^i (1 - x)^(d - i).

    The Taylor shift by 1 of q reversed, (1 + y)^d q(1 / (1 + y)), has the
    coefficients C(d, i) b_i; each prefix-sum pass fixes one of them."""
    r = list(q)
    for m in range(len(r), 1, -1):
        r[:m] = accumulate(r[:m])
    binom = [math.comb(len(r) - 1, i) for i in range(len(r))]
    scale = math.lcm(*binom)
    return [v * (scale // c) for v, c in zip(r, binom)], scale


def _variations(b: Sequence[int]) -> int:
    """Sign variations of b, zeros skipped, capped at 2.

    For q's Bernstein coefficients on a cell, by Descartes' rule they bound
    q's roots inside it, counted with multiplicity, and have their parity:
    0 proves there are none, 1 that there is exactly one, simple.
    """
    signs = [v > 0 for v in b if v]
    return min(2, sum(map(ne, signs, signs[1:])))


def descartes_bound(p: Sequence[int], lo: Rational, hi: Rational) -> int:
    """Descartes' bound (`_variations`), capped at 2, on the roots of the integer
    polynomial p in (lo, hi) counted with multiplicity; 0 proves there are none."""
    return _variations(_bernstein(_moved(p, Fraction(lo), Fraction(hi)))[0])


class LocatedRoots:
    """The roots of a polynomial in (lo, hi), each exact or held in an open dyadic cell.

    In x = (u - lo) / (hi - lo), a root is exact, (num, den), or an open
    cell (see `_narrow`) j / 2^e < x < (j + 1) / 2^e that holds no other
    root; `locate_roots` makes both.  Planted roots, given to the
    constructor, are exact and must be every root in [lo, hi], all simple
    (`knots.certify` proves it); they are checked to be sorted, distinct
    and strictly inside (lo, hi), else ValueError.  `poly`, the primitive
    integers of the polynomial, is None for them.  A cell is a root and a
    depth k (`cells`, `ends`); a deeper cell is the same root at a larger
    k.  Open cells are narrowed on exact values at dyadic points.
    """

    def __init__(self, roots: Sequence[Rational], lo: Rational, hi: Rational):
        self._lo, self._hi = Fraction(lo), Fraction(hi)
        self._span = self._hi - self._lo
        ends = (self._lo, *roots, self._hi)
        if not all(a < b for a, b in zip(ends, ends[1:])):
            raise ValueError("planted roots must be sorted, distinct and strictly inside (lo, hi)")
        # lo = a / c and hi - lo = b / c, so the cell j / 2^k of x is lo + b j / (c 2^k)
        (ln, ld), (sn, sd) = self._lo.as_integer_ratio(), self._span.as_integer_ratio()
        self._frame = a, b, c = ln * sd, sn * ld, ld * sd
        self._x: list = []  # root p / q is x = (c p - a q) / (b q), a reduced pair
        for num, den in ((c * r.numerator - a * r.denominator, b * r.denominator) for r in roots):
            g = math.gcd(num, den)
            self._x.append((num // g, den // g))
        self.poly: Optional[tuple[int, ...]] = None
        self._moved: tuple[int, ...] = ()  # q(x), as `locate_roots` made it
        self._root_at_hi = False

    def __len__(self) -> int:
        return len(self._x)

    def _index(self, i: int, k: int) -> int:
        """j with root i in the half-open cell (j / 2^k, (j + 1) / 2^k] of x."""
        x = self._x[i]
        while isinstance(x, list) and x[1] < k:
            x = self._x[i] = self._narrow(x, k - x[1])
        if isinstance(x, list):
            return x[0] >> (x[1] - k)  # the ancestor of the open cell
        return ((x[0] << k) - 1) // x[1]

    def _narrow(self, cell: list, most: int) -> Union[list, tuple[int, int]]:
        """One step, at most `most` levels deep, of quadratic interval refinement (Abbott 2006).

        In the cell [j, e, s, fa, fb, t], q has the sign s just right of
        j / 2^e, and fa, fb are 2^(e d) q at its ends.  The secant picks one
        of 2^t subcells, kept if q has the signs s and -s at its ends; t
        then doubles, else halves.  At t = 1, or with an end value 0 (a
        neighbouring root), the cell is bisected on its midpoint's sign.  A
        point where q vanishes is the root, returned exact.
        """
        j, e, s, fa, fb, t = cell
        d, t = len(self._moved) - 1, min(t, most)
        if t > 1 and fa and fb:
            m = (fa << t) // (fa - fb)
            a, b = (j << t) + m, (j << t) + m + 1
            va = fa << t * d if m == 0 else _horner(self._moved, a, 1 << (e + t))
            vb = fb << t * d if b == (j + 1) << t else _horner(self._moved, b, 1 << (e + t))
            if not va or not vb:
                return (a if not va else b, 1 << (e + t))
            if (va > 0) == (s > 0) != (vb > 0):
                return [a, e + t, s, va, vb, 2 * t]
            return [j, e, s, fa, fb, t // 2]
        m = 2 * j + 1
        vm = _horner(self._moved, m, 2 << e)
        if not vm:
            return (m, 2 << e)
        if (vm > 0) == (s > 0):
            return [m, e + 1, s, vm, fb << d, 2]
        return [m - 1, e + 1, s, fa << d, vm, 2]

    def ends(self, i: int, k: int) -> tuple[int, int, int]:
        """Root i's cell (l / d, h / d] after k halvings of (lo, hi]: (a 2^k + b j, l + b,
        c 2^k) for j = `_index(i, k)`, with lo = a / c and hi - lo = b / c."""
        a, b, c = self._frame
        low = (a << k) + b * self._index(i, k)
        return low, low + b, c << k

    def interval(self, i: int, k: int) -> IsolatingInterval:
        """The cell `ends(i, k)` in `Fraction`s, for the report."""
        low, high, den = self.ends(i, k)
        return IsolatingInterval(Fraction(low, den), Fraction(high, den))

    def cells(self, width: Rational) -> list[int]:
        """The depth of each root's cell when (lo, hi] is bisected until every cell
        holds one root and then every root's cell is halved down to `width`.

        For width = (hi - lo) / 2^depth.  Root i gets its cell at
        k = max(depth, the first depth at which no neighbouring root shares
        its cell), a root at hi counting as a neighbour of the top one: the
        cells of Sturm isolation and refinement, with no chain.
        """
        steps = self._span / width
        depth = steps.numerator.bit_length() - 1
        if steps != 1 << depth:
            raise ValueError("width must be (hi - lo) / 2^depth")
        n = len(self._x)
        ks = [depth] * n
        for i in range(n - 1):
            k = depth  # once parted, two roots stay in different cells
            while self._index(i, k) == self._index(i + 1, k):
                k += 1
            ks[i], ks[i + 1] = max(ks[i], k), k
        while n and self._root_at_hi and self._index(n - 1, ks[-1]) == (1 << ks[-1]) - 1:
            ks[-1] += 1
        return ks


def locate_roots(p: Sequence[int], lo: Rational, hi: Rational,
                 deep: Optional[Rational] = DEEP_WIDTH) -> Optional[LocatedRoots]:
    """The roots of the integer polynomial p in (lo, hi), in order, by Descartes bisection.

    Bisection in the Bernstein basis (Rouillier-Zimmermann 2004) of
    q(x) = p(lo + (hi - lo) x) on (0, 1): a cell is tested by `_variations`
    and split by one integer de Casteljau pass, each child scaled by 2^d.
    A midpoint where q vanishes is an exact root, simple where q' does
    not.  A finished run proves the count, every root simple.  It is
    unfinished (None) when a midpoint root is multiple or a cell at most
    `deep` wide still has bound 2; with deep None it ends when the roots
    in (lo, hi) are simple.
    """
    if not p:
        raise ZeroPolynomial("roots of the zero polynomial")
    lo, hi = Fraction(lo), Fraction(hi)
    ints = _content_free(p)
    q = _moved(ints, lo, hi)
    d = len(q) - 1
    ratio = (hi - lo) / (deep or 1)  # the first depth whose cells are at most `deep` wide:
    last = (-(-ratio.numerator // ratio.denominator) - 1).bit_length() if deep else math.inf
    top, scale = _bernstein(q)  # a cell's coefficients are scale 2^(k d) times q's there
    found = []
    stack = [(top, 0, 0)]  # left subtrees on top, so roots are found in order
    while stack:
        b, j, k = stack.pop()
        if b is None:  # the exact root j / k
            found.append((j, k))
            continue
        bound = _variations(b)
        if bound == 1:
            s = next(v for v in b if v)  # q just right of j / 2^k
            found.append([j, k, 1 if s > 0 else -1, b[0] // scale, b[-1] // scale, 2])
        elif bound:
            if k >= last:
                return None
            left, right, row = [b[0]], [b[-1]], b
            for _ in range(d):
                row = list(map(add, row, row[1:]))
                left.append(row[0])
                right.append(row[-1])
            right = [v << i for i, v in enumerate(reversed(right))]
            stack.append((right, 2 * j + 1, k + 1))
            if not right[0]:  # q vanishes at the midpoint, and q' with right[1]
                if not right[1]:
                    return None
                stack.append((None, 2 * j + 1, 2 << k))
            stack.append(([v << (d - i) for i, v in enumerate(left)], 2 * j, k + 1))
    located = LocatedRoots((), lo, hi)
    located._x = found
    located.poly, located._moved, located._root_at_hi = ints, q, not top[-1]
    return located


def count_roots(p: Sequence[int], lo: Rational, hi: Rational) -> int:
    """Exact number of distinct real roots of the integer polynomial p in (lo, hi).

    They are the roots that `locate_roots` isolates for the squarefree
    part of p (`squarefree`): all simple, so the isolation, with no depth
    limit, always finishes.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    return len(locate_roots(squarefree(p)[0], lo, hi, None))


def signs_at_roots(located: LocatedRoots, q: Sequence[int], depths: Sequence[int]) -> list[int]:
    """Exact sign of q at each root of `locate_roots`' polynomial p, 0 if q vanishes there.

    q is integers, a positive multiple of the polynomial.  A root held
    exact, a dyadic point, takes the sign of one `_horner` there.  Open
    root i starts in its cell (lo, hi] at depth depths[i]
    (`LocatedRoots.cells`).  With c_k the primitive integers of q and
    m = max(|lo|, |hi|), L2 = sum k (k-1) |c_k| m^(k-2) bounds |q''| on the
    cell, so |q(lo)| > (|q'(lo)| + L2 (hi - lo)) (hi - lo), in
    cross-multiplied integers, leaves q no root in [lo, hi]: q has the sign
    of q(lo) at the root.  Otherwise the cell is taken deeper and tested
    again.  The test never passes where q vanishes, so below DEEP_WIDTH
    the gcd of p and q (built once) is asked for a root in (lo, hi], which
    a root of p found exact while deepening ends; if none, deepening goes on.
    """
    cs = _content_free(q)
    if not cs:
        return [0] * len(depths)
    deg = len(cs) - 1
    slope = [k * c for k, c in enumerate(cs)][1:]
    curve = [k * (k - 1) * abs(c) for k, c in enumerate(cs)][2:]
    common = None  # gcd(p, q)
    out = []
    a, b, c = located._frame
    for i, k in enumerate(depths):
        if isinstance(x := located._x[i], tuple):  # the root lo + b num / (c den) itself
            val = _horner(cs, a * x[1] + b * x[0], c * x[1])
            out.append((val > 0) - (val < 0))
            continue
        low, high, den = located.ends(i, k)
        # L2 = l2_num / l2_den, and 0 for q of degree below 2
        l2_num, l2_den = _horner(curve, max(abs(low), abs(high)), den), den ** max(deg - 2, 0)
        asked = False
        while True:
            low, high, den = located.ends(i, k)
            w = high - low                        # the cell is w / den wide
            val = _horner(cs, low, den)           # den^deg q(lo)
            d1 = abs(_horner(slope, low, den))    # den^(deg-1) |q'(lo)|
            # |q(lo)| and the bound above, times den^(deg+2) l2_den
            gap = abs(val) * l2_den * den * den
            bound = (d1 * den * l2_den * den + l2_num * den ** deg * w) * w
            if gap > bound:
                out.append(1 if val > 0 else -1)
                break
            if w << 200 <= den and not asked:  # at most DEEP_WIDTH wide
                asked = True
                if common is None:
                    common = _remainder_sequence(located.poly, cs)[-1]
                if not _horner(common, high, den) or count_roots(
                        common, Fraction(low, den), Fraction(high, den)):
                    out.append(0)
                    break
            # enough levels to bring the bound below about |q(lo)| / 2
            k += min(max(1, bound.bit_length() - gap.bit_length() + 2), 64)
    return out


# -- exact linear algebra ------------------------------------------------------


def solve_linear(matrix: Sequence[Sequence[Rational]], rhs: Sequence[Rational]) -> list[Rational]:
    """Solve an exact rational linear system by Bareiss fraction-free elimination.

    Each row of [matrix | rhs] is multiplied by the lcm of its denominators
    and divided by its content (an all-zero row stays), and the rows are
    eliminated smallest first, by the bit length of their largest entry,
    which keeps the minors short.  Step k makes every entry below and right
    of the pivot a minor of order k + 2 of those integer rows, so each
    division by the previous pivot is exact (Sylvester's identity).  The
    pivot is the first nonzero entry of its column; a column with none
    depends on the columns before it, which no row scaling, row order or
    pivot choice changes, and raises SingularSystem naming it.  With D the
    last pivot, the integers D x_r, which Cramer's rule makes integral,
    come out of back-substitution by exact division.
    """
    n = len(matrix)
    a = []
    for i, row in enumerate(matrix):
        row = [*row, rhs[i]]
        den = math.lcm(*(v.denominator for v in row))
        row = [v.numerator * (den // v.denominator) for v in row]
        g = math.gcd(*row)
        a.append([v // g for v in row] if g > 1 else row)
    a.sort(key=lambda row: max(map(abs, row)).bit_length())
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            raise SingularSystem(f"singular at column {k}")
        a[k], a[piv] = a[piv], a[k]
        top = a[k]
        pk, tail = top[k], top[k + 1:]
        for r in range(k + 1, n):
            row, f = a[r], a[r][k]
            a[r] = row[:k] + [0] + [(v * pk - f * w) // prev for v, w in zip(row[k + 1:], tail)]
        prev = pk
    y = [0] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        y[r] = (prev * row[n] - sum(row[c] * y[c] for c in range(r + 1, n))) // row[r]
    return [Fraction(v, prev) for v in y]
