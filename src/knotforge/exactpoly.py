"""Exact rational polynomial arithmetic and certified real roots.

Everything in this module is exact: scalars are `fractions.Fraction`
(aliased `Rational`), polynomials are immutable coefficient tuples, and
every root count is a proof, not an approximation.  Floating-point
evaluation exists only as a convenience for plotting and diagnostics.

The root layer takes integer coefficients (`_primitive_ints` adapts a
`Poly`) and reads an interval (lo, hi) of ints or Fractions as integers
a, b, c with lo = a / c and hi - lo = b / c (`_frame`).  `locate_roots`,
the one isolator, finds in order the roots of p in an interval by
Descartes bisection in the Bernstein basis: sign variations
(`_variations`, the one Descartes test) and integer de Casteljau splits.
A run unfinished at the depth limit, or stalled about a multiple root,
isolates the squarefree part p / gcd(p, p') (`squarefree`) instead, which
always finishes;
`root_free` proves with it that p has no root in [lo, hi].
Its `LocatedRoots`, or planted roots already certified, give the dyadic
cells of Sturm bisection and refinement: `cells(depth)` a depth k per
root, and `ends` its cell in the frame, (a 2^k + b j, ... + b, c 2^k),
narrowed on exact values of p at dyadic points.
An even or odd p on a symmetric interval is isolated and narrowed
through its half-degree part E, p = u^rho E(u^2) alone: each root v of
E is +-sqrt(v), its cells read off E's.
The one polynomial gcd, `poly_gcd`, is Brown's modular gcd: Euclid mod
61-bit primes, combined by CRT and checked by exact division.  A value
at n/d is the integer sum c_i n^i d^(D-i) (homogeneous Horner, shifts
for d = 2^s), which also evaluates a `Poly` on its coefficients brought
to one denominator.
`signs_at_roots` gives the exact sign of a second polynomial at each
located root, by a slope bound, or 0 by the gcd's signs at the root's cell
ends.  `solve_linear` (elimination that divides each row by its content)
returns integers over their least denominator, (nums, den).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, count
from operator import add, mul, ne
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import SingularSystem, ZeroPolynomial

Rational = Fraction

_RationalLike = Union[Fraction, int]

# Cells at most 2^-DEEP_BITS wide, (h - l) << DEEP_BITS <= d for (l / d, h / d], end
# `locate_roots`' limited run, make `signs_at_roots` ask the gcd, and stop
# `knots.crossings` separating two crossing parameters.
DEEP_BITS = 200
# A cell that still has bound 2 this many halvings below the last split of its line
# into two cells with variations ends `locate_roots`' limited run too: about a
# multiple root the bound never falls, and the squarefree part finishes at once.
STALL_LEVELS = 32


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

    def scale(self, s: _RationalLike) -> "Poly":
        s = Fraction(s)
        return Poly([c * s for c in self.coeffs])

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


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the prime bases up to 41, exact for odd n < 3.3 * 10^24."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, (n - 1) >> s, n)  # 0 when n is the base itself
        if x not in (0, 1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def _primes() -> Iterator[int]:
    """The primes from the Mersenne prime 2^61 - 1 upward, in order."""
    return filter(_is_prime, count((1 << 61) - 1, 2))


def _gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd of a and b mod the prime p, by Euclid in GF(p); p divides neither lc."""
    a, b = [v % p for v in a], [v % p for v in b]
    while b:
        inv, nb = pow(b[-1], -1, p), len(b) - 1
        while len(a) > nb:  # a mod b, which drops a's top term
            f, top = a.pop() * inv % p, len(a) - nb
            a[top:] = [(v - f * w) % p for v, w in zip(a[top:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [v * inv % p for v in a]


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """gcd of the nonzero integer polynomials a and b: primitive, leading coefficient > 0.

    Brown's modular gcd.  For a prime p dividing neither leading coefficient,
    g = gcd(a, b) keeps its degree mod p and divides both images, so their
    gcd in GF(p) (`_gcd_mod`) has degree >= deg g, and a common divisor of
    degree deg g is g.  An image of degree 0 proves g = 1.  The candidates
    are b, the shorter input, and then the CRT combination of the images
    of least degree below b's, each times l = gcd(lc a, lc b), which lc g
    divides, once a further prime leaves it unchanged; a candidate's
    primitive part is returned only when `exact_quotient` divides both
    inputs by it, and otherwise more primes are taken.
    """
    a, b = sorted((_content_free(a), _content_free(b)), key=len, reverse=True)
    lead = math.gcd(a[-1], b[-1])
    g, least, image, modulus = b, len(b) - 1, None, 1  # CRT of l times the images of least length
    for p in _primes():
        if g and exact_quotient(a, g) is not None and exact_quotient(b, g) is not None:
            return g if g[-1] > 0 else tuple(-v for v in g)
        g = None
        if not a[-1] % p or not b[-1] % p:
            continue
        h = _gcd_mod(a, b, p)
        if len(h) == 1:
            return (1,)
        if len(h) > least:
            continue
        if image is None or len(h) < least:
            least, image, modulus = len(h), [0] * len(h), 1
        m, inv, modulus = modulus, pow(modulus, -1, p), modulus * p
        steps = [(w * lead - v) * inv % p for v, w in zip(image, h)]
        # each coefficient in (-modulus / 2, modulus / 2]: stable once it is the true one
        image = [(v + m * t + modulus // 2) % modulus - modulus // 2 for v, t in zip(image, steps)]
        if not any(steps):
            g = _content_free(image)


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


def squarefree(p: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(s, g) for integer coefficients p: g = gcd(p, p') and s = p / g, both
    primitive, g with a positive leading coefficient.

    s is the squarefree part of p, a positive multiple of it: every root of
    p, each one simple.  The roots of g (`poly_gcd`) are the repeated roots
    of p.  By Gauss's lemma the quotient of the primitive integers is exact.
    """
    if not p:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    a = _content_free(p)
    g = poly_gcd(a, [i * c for i, c in enumerate(a)][1:] or [1])
    return exact_quotient(a, g), g


# -- Descartes root isolation ----------------------------------------------------


def _frame(lo: Rational, hi: Rational) -> tuple[int, int, int]:
    """(a, b, c) with lo = a / c and hi - lo = b / c: a = ln sd, b = sn ld and
    c = ld sd for lo = ln / ld and hi - lo = sn / sd in lowest terms, from the
    ends' integer ratios and one gcd; the one reader of an interval."""
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    sn, sd = hn * ld - ln * hd, hd * ld
    g = math.gcd(sn, sd)
    return ln * (sd // g), sn // g * ld, ld * (sd // g)


def _moved(cs: Sequence[int], lo: Rational, hi: Rational) -> tuple[int, ...]:
    """Primitive integers of a positive multiple of p(lo + (hi - lo) x), for p = cs.

    With lo = a / c and hi - lo = b / c (`_frame`), that is sum cs_i c^(d-i)
    y^i at y = a + b x: a Taylor shift by a, then coefficient i times b^i.
    """
    a, b, c = _frame(lo, hi)
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


class LocatedRoots:
    """The roots of a polynomial in (lo, hi), each exact or held in an open dyadic cell.

    In x = (u - lo) / (hi - lo), a root is exact, (num, den), or an open
    cell (see `_narrow`) j / 2^e < x < (j + 1) / 2^e that holds no other
    root; `locate_roots` makes both.  Planted roots, given to the
    constructor, are exact and must be every root in [lo, hi], all simple
    (`knots.certify` proves it); they are checked in integers to be sorted,
    distinct and strictly inside (lo, hi), else ValueError.  `poly`, the
    primitive integers of the polynomial, is None for them.  (lo, hi) is
    kept only as its integer frame (`_frame`).  A cell is a root and a
    depth k (`cells`, `ends`); a deeper cell is the same root at a larger
    k.  Open cells are narrowed on exact values at dyadic points.
    When `locate_roots` found p's roots through E, p = u^rho E(u^2), `_half`
    holds E's roots on (0, hi^2) and `_x` only the root 0 of rho = 1: every
    other root's cell is read off E's, narrowed in E (`_half_index`).
    `repeated` is True when p has a multiple root in (lo, hi); its roots are
    then those of p's squarefree part, which `poly` holds.
    """

    def __init__(self, roots: Sequence[Rational], lo: Rational, hi: Rational):
        # lo = a / c and hi - lo = b / c, so the cell j / 2^k of x is lo + b j / (c 2^k)
        self._frame = a, b, c = _frame(lo, hi)
        pairs = [(r.numerator, r.denominator) for r in roots]
        self._x: list = [(c * p - a * q, b * q) for p, q in pairs]  # x = (c p - a q) / (b q)
        ends = [(0, 1), *self._x, (1, 1)]
        if not (b > 0 and all(m * t < s * n for (m, n), (s, t) in zip(ends, ends[1:]))):
            raise ValueError("planted roots must be sorted, distinct and strictly inside (lo, hi)")
        self.poly: Optional[tuple[int, ...]] = None
        self._moved: tuple[int, ...] = ()  # q(x), as `locate_roots` made it
        self._root_at_hi = self.repeated = False
        self._half: Optional[LocatedRoots] = None  # E's roots, for p = u^rho E(u^2)

    def __len__(self) -> int:
        return len(self._x)

    def _index(self, i: int, k: int) -> int:
        """j with root i in the half-open cell (j / 2^k, (j + 1) / 2^k] of x."""
        x = self._x[i]
        if self._half is not None and not isinstance(x, tuple):
            return self._half_index(i, k)
        while isinstance(x, list) and x[1] < k:
            x = self._x[i] = self._narrow(x, k - x[1])
        if isinstance(x, list):
            return x[0] >> (x[1] - k)  # the ancestor of the open cell
        return ((x[0] << k) - 1) // x[1]

    def _half_index(self, i: int, k: int) -> int:
        """`_index` of root i = +-sqrt(v) from the root v of E, its cells narrowed in E:
        the one map from E's roots to p's cells.

        E's frame is y = v / hi^2 on (0, hi^2), so y = (2x - 1)^2 and 2^k x is
        2^(k-1) + w or 2^(k-1) - w for w = 2^(k-1) sqrt(y).  E's open cell at
        depth e keeps y off every point of depth e or less, so at a depth
        D <= e, in y's cell J there, w^2 is strictly inside (J, J + 1) 2^s,
        s = 2k - 2 - D.  When n = isqrt(floor(J 2^s)) has (J + 1) 2^s <=
        (n + 1)^2, w is in (n, n + 1): j = 2^(k-1) + n for +sqrt(v) and
        2^(k-1) - 1 - n for -sqrt(v).  Otherwise E's cell is taken deeper.  A
        y that E holds exact decides at once, from ceil(w^2) or floor(w^2);
        a dyadic x is an exact y, which narrowing reaches.
        """
        half = self._half
        m = i - len(self._x) + len(half)
        mirror = m < 0
        if mirror:
            m = len(half) - 1 - i
        if not k:
            return 0
        y = half._x[m]
        depth = y[1] if isinstance(y, list) else 0
        while True:
            j = half._index(m, depth)
            y = half._x[m]
            if isinstance(y, tuple):  # w^2 = 4^(k-1) y exactly
                num = y[0] << 2 * (k - 1)
                n = math.isqrt(num // y[1] if mirror else -(-num // y[1]) - 1)
                break
            shift = 2 * (k - 1) - depth  # w^2 in (j 2^shift, (j + 1) 2^shift]
            n = math.isqrt(j << shift if shift >= 0 else j >> -shift)
            if (j + 1) << max(0, shift) <= (n + 1) ** 2 << max(0, -shift):
                break
            # about the depth at which the span of w falls below 1/4
            depth = max(depth + 1, 2 * k + 1 - ((j + 1).bit_length() + shift) // 2)
        return (1 << (k - 1)) - 1 - n if mirror else (1 << (k - 1)) + n

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

    def cells(self, depth: int) -> list[int]:
        """The depth of each root's cell when (lo, hi] is bisected until every cell
        holds one root and is at least `depth` halvings deep.

        Root i gets its cell at k = max(depth, the first depth at which no
        neighbouring root shares its cell), a root at hi counting as a
        neighbour of the top one: the cells of Sturm isolation and refinement
        to width (hi - lo) / 2^depth, with no chain.
        """
        n = len(self._x)
        ks = [depth] * n
        at_depth = [self._index(i, depth) for i in range(n)]  # each root indexed once there
        for i in range(n - 1):
            k, a, b = depth, at_depth[i], at_depth[i + 1]
            while a == b:  # once parted, two roots stay in different cells
                k += 1
                a, b = self._index(i, k), self._index(i + 1, k)
            ks[i], ks[i + 1] = max(ks[i], k), k
        while n and self._root_at_hi and self._index(n - 1, ks[-1]) == (1 << ks[-1]) - 1:
            ks[-1] += 1
        return ks


def locate_roots(p: Sequence[int], lo: Rational, hi: Rational) -> LocatedRoots:
    """The roots of the integer polynomial p in (lo, hi), in order, by Descartes bisection.

    lo and hi are ints or Fractions, read only as their integer frame
    (`_frame`).  Bisection in the Bernstein basis (Rouillier-Zimmermann
    2004) of q(x) = p(lo + (hi - lo) x) on (0, 1) (`_isolate`): a cell is
    tested by `_variations` and split by one integer de Casteljau pass,
    each child scaled by 2^d.  A midpoint where q vanishes is an exact root, simple
    where q' does not.  A finished run proves the count, every root simple.
    It is unfinished when a midpoint root is multiple or a cell still has
    bound 2 at most 2^-DEEP_BITS wide, or STALL_LEVELS halvings below the
    last split of its line into two cells that both have variations (about
    a multiple root the bound never falls).  Only then is p split into
    s = p / g and g = gcd(p, p') (`squarefree`): s has p's roots, all
    simple, so its bisection with no depth limit finishes, and `repeated`
    is set when g, the repeated roots of p, has a root in (lo, hi).

    On a symmetric interval, lo = -hi, a p whose integers have one parity
    is u^rho E(u^2), rho in {0, 1}.  With E(0) != 0 its roots are those of
    E on (0, hi^2), isolated by the same bisection at half the degree,
    each root v giving +-sqrt(v), and 0 for rho = 1, with no step at full
    degree (`LocatedRoots._half_index`): a finished isolation of E proves
    them simple, and an unfinished one leaves p's unfinished.  Every other
    p takes the path above, which gives the same roots and cells.
    """
    if not p:
        raise ZeroPolynomial("roots of the zero polynomial")
    if not lo < hi:
        raise ValueError("need lo < hi")
    located = _isolate(_content_free(p), lo, hi, True)
    if located is None:
        s, g = squarefree(p)
        located = _isolate(s, lo, hi, False)
        located.repeated = len(locate_roots(g, lo, hi)) > 0
    return located


def root_free(p: Sequence[int], lo: Rational, hi: Rational) -> bool:
    """True exactly when the integer polynomial p has no root in [lo, hi]: it is
    nonzero at both ends, and `locate_roots` finds no root between them."""
    return (all(_horner(p, x.numerator, x.denominator) for x in (lo, hi))
            and not len(locate_roots(p, lo, hi)))


def _isolate(ints: tuple[int, ...], lo: Rational, hi: Rational,
             limited: bool) -> Optional[LocatedRoots]:
    """`locate_roots`' bisection of the primitive integers ints; None when a limited
    run is unfinished: a cell at most 2^-DEEP_BITS wide, or STALL_LEVELS below the
    last split of its line into two cells with variations, still has bound 2."""
    located = LocatedRoots((), lo, hi)
    if lo == -hi:  # p = u^rho E(u^2) with E(0) != 0: the roots of E on (0, hi^2)
        rho = 1 if not any(ints[::2]) else 0 if not any(ints[1::2]) else None
        if rho is not None and ints[rho]:
            if (half := _isolate(ints[rho::2], 0, hi * hi, limited)) is None:
                return None
            located.poly, located._root_at_hi, located._half = ints, half._root_at_hi, half
            # -sqrt(v), 0 (x = 1/2) for rho = 1, +sqrt(v)
            located._x = [None] * len(half) + [(1, 2)] * rho + [None] * len(half)
            return located
    q = located._moved = _moved(ints, lo, hi)
    d = len(q) - 1
    _, w, c = located._frame  # hi - lo = w / c: the first depth of cells at most 2^-DEEP_BITS wide
    last = (-(-(w << DEEP_BITS) // c) - 1).bit_length() if limited else math.inf
    stall = STALL_LEVELS if limited else math.inf
    top, scale = _bernstein(q)  # a cell's coefficients are scale 2^(k d) times q's there
    found = []
    # (coefficients, bound, j, k, the depth where the cell's line last split into two cells
    # that both have variations); left subtrees on top, so roots are found in order
    stack = [(top, _variations(top), 0, 0, 0)]
    while stack:
        b, bound, j, k, split = stack.pop()
        if b is None:  # the exact root j / k
            found.append((j, k))
        elif bound == 1:
            s = next(v for v in b if v)  # q just right of j / 2^k
            found.append([j, k, 1 if s > 0 else -1, b[0] // scale, b[-1] // scale, 2])
        elif bound:
            if k >= last or k - split >= stall:
                return None
            left, right, row = [b[0]], [b[-1]], b
            for _ in range(d):
                row = list(map(add, row, row[1:]))
                left.append(row[0])
                right.append(row[-1])
            left = [v << (d - i) for i, v in enumerate(left)]
            right = [v << i for i, v in enumerate(reversed(right))]
            lb, rb = _variations(left), _variations(right)
            split = k + 1 if lb and rb else split
            stack.append((right, rb, 2 * j + 1, k + 1, split))
            if not right[0]:  # q vanishes at the midpoint, and q' with right[1]
                if not right[1]:
                    return None
                stack.append((None, 0, 2 * j + 1, 2 << k, split))
            stack.append((left, lb, 2 * j, k + 1, split))
    located.poly, located._x, located._root_at_hi = ints, found, not top[-1]
    return located


def signs_at_roots(located: LocatedRoots, q: Sequence[int], depths: Sequence[int]) -> list[int]:
    """Exact sign of q at each root of a polynomial p held by `located`, 0 if q vanishes there.

    q is integers, a positive multiple of the polynomial.  A root u held
    exact, planted or dyadic, takes one `_horner` of each nonzero half of
    q = Q0(u^2) + u Q1(u^2) at u^2, shared by +-u.  Open root i starts in
    its cell (lo, hi] at depth depths[i] (`LocatedRoots.cells`, kept in
    `knots.certify`'s crossing report).  With c_k the primitive integers of
    q and m = max(|lo|, |hi|), L2 = sum k (k-1) |c_k| m^(k-2) bounds |q''|
    on the cell, so |q(lo)| > (|q'(lo)| + L2 (hi - lo)) (hi - lo), in
    cross-multiplied integers, leaves q no root in [lo, hi]: q has the sign
    of q(lo) at the root.  Otherwise the cell is taken deeper and tested
    again.  The test never passes where q vanishes, so once a cell below
    2^-DEEP_BITS fails it, the gcd G of p and q (`poly_gcd`) is built and a
    zero test runs first at every later step, of any root: G divides p, and
    a cell at depth depths[i] or more holds no root of p but root i in
    (lo, hi], so q vanishes there exactly when G(hi) = 0 or G changes sign
    on it.  G(lo) = 0, a neighbouring root, decides nothing: it goes deeper.

    When `located._half` holds E's roots and q is even or odd,
    q = u^sigma Q(u^2), the test runs on Q at E's roots, from E's cells at
    depth min(depths) (`cells`): sign q(+sqrt(v)) = sign Q(v),
    sign q(-sqrt(v)) = (-1)^sigma sign Q(v), and q(0) = Q(0) or 0.  Any
    other q is decided on p's cells as above.
    """
    cs = _content_free(q)
    if not cs:
        return [0] * len(depths)
    even, odd = (h if any(h) else () for h in (cs[::2], cs[1::2]))  # q = Q0(u^2) + u Q1(u^2)
    half = located._half
    if half is not None and depths and not (even and odd):
        sigma = 0 if even else 1  # q = u^sigma Q(u^2)
        signs = signs_at_roots(half, even or odd, half.cells(min(depths)))
        mirrored = [-v for v in reversed(signs)] if sigma else signs[::-1]
        zero = [0 if sigma else (cs[0] > 0) - (cs[0] < 0)] * (len(depths) - 2 * len(signs))
        return mirrored + zero + signs
    deg = len(cs) - 1
    slope = curve = common = None  # q', L2's terms and gcd(p, q), built when first needed
    out = []
    a, b, c = located._frame
    squares = {}  # (|num|, den): den^deg Q0(u^2) and den^(deg-1) Q1(u^2) at u = +-num / den
    for i, k in enumerate(depths):
        if isinstance(x := located._x[i], tuple):  # the root u = lo + b num / (c den) itself
            num, den = a * x[1] + b * x[0], c * x[1]
            g = math.gcd(num, den)
            num, den = num // g, den // g
            if (key := (abs(num), den)) not in squares:
                sq, dsq = num * num, den * den
                squares[key] = (_horner(even, sq, dsq) * den ** (deg % 2) if even else 0,
                                _horner(odd, sq, dsq) * den ** (1 - deg % 2) if odd else 0)
            val = squares[key][0] + num * squares[key][1]  # den^deg q(u)
            out.append((val > 0) - (val < 0))
            continue
        if slope is None:
            slope = [k * c for k, c in enumerate(cs)][1:]
            curve = [k * (k - 1) * abs(c) for k, c in enumerate(cs)][2:]
        low, high, den = located.ends(i, k)
        # L2 = l2_num / l2_den, and 0 for q of degree below 2
        l2_num, l2_den = _horner(curve, max(abs(low), abs(high)), den), den ** max(deg - 2, 0)
        while True:
            low, high, den = located.ends(i, k)
            w = high - low                        # the cell is w / den wide
            if common is not None:  # its one root in (lo, hi], if any, is root i
                at_high = _horner(common, high, den)
                if not at_high or _horner(common, low, den) * at_high < 0:
                    out.append(0)
                    break
            val = _horner(cs, low, den)           # den^deg q(lo)
            d1 = abs(_horner(slope, low, den))    # den^(deg-1) |q'(lo)|
            # |q(lo)| and the bound above, times den^(deg+2) l2_den
            gap = abs(val) * l2_den * den * den
            bound = (d1 * den * l2_den * den + l2_num * den ** deg * w) * w
            if gap > bound:
                out.append(1 if val > 0 else -1)
                break
            if common is None and w << DEEP_BITS <= den:
                common = poly_gcd(located.poly, cs)
            # enough levels to bring the bound below about |q(lo)| / 2
            k += min(max(1, bound.bit_length() - gap.bit_length() + 2), 64)
    return out


# -- exact linear algebra ------------------------------------------------------


def solve_linear(matrix: Sequence[Sequence[Rational]],
                 rhs: Sequence[Rational]) -> tuple[list[int], int]:
    """Solve an exact rational linear system by content-reducing elimination:
    (nums, den) with x_r = nums[r] / den, den > 0 and gcd(den, *nums) = 1.

    Each row of [matrix | rhs] is multiplied by the lcm of its denominators
    and divided by its content (an all-zero row stays), and the rows are
    eliminated smallest first, by the bit length of their largest entry.
    Step k replaces each row below the pivot p, with f its entry in column
    k and g = gcd(p, f), by (p/g) row - (f/g) pivot row, divided by its
    content.  That row is a nonzero multiple of the one fraction-free
    (Bareiss) elimination holds, whose entries are minors of the integer
    rows, so its zeros are the same; the content division drops the
    factors those minors share, often far larger than the solution.  The
    pivot is the first nonzero entry of its column; a column with none
    depends on the columns before it, which no row scaling, row order or
    pivot choice changes, and raises SingularSystem naming it.
    Back-substitution keeps the solved x_c as integers over one running
    denominator, which each pivot, reduced against its numerator,
    multiplies; one gcd reduces them at the end.
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
    for k in range(n):  # a[k:] hold columns k..n of the rows not yet pivots
        piv = next((r for r in range(k, n) if a[r][0]), None)
        if piv is None:
            raise SingularSystem(f"singular at column {k}")
        a[k], a[piv] = a[piv], a[k]
        pk, tail = a[k][0], a[k][1:]
        for r in range(k + 1, n):
            f, *row = a[r]
            if f:
                g = math.gcd(pk, f)
                p, f = pk // g, f // g
                row = [p * v - f * w for v, w in zip(row, tail)]
                g = math.gcd(*row)
                if g > 1:
                    row = [v // g for v in row]
            a[r] = row
    y, den = [], 1
    for row in reversed(a):  # pivot row r, columns r..n; y / den holds x_{r+1}..x_{n-1}
        num, p = den * row[-1] - sum(map(mul, row[1:-1], y)), row[0]
        g = math.gcd(num, p) * (1 if p > 0 else -1)
        num, p = num // g, p // g  # x_r = num / (den p)
        if p != 1:
            y = [v * p for v in y]
            den *= p
        y.insert(0, num)
    g = math.gcd(den, *y)
    return [v // g for v in y], den // g
