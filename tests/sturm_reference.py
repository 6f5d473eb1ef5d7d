"""Sturm chains: the reference root counter, isolation and refinement.

`knotforge.exactpoly.count_roots` counts the roots of the squarefree part
by Descartes isolation, `locate_roots` isolates by Descartes bisection,
and `LocatedRoots.cells` gives the depths at which isolation and
refinement on a Sturm chain stop.  `SturmChain`, its `count_roots`,
`isolate_roots` and `refine` are that reference, on the primitive integer
remainder sequence (`_remainder_sequence`), which also checks the library's
modular gcd; `interval` and `cell_intervals` put the library's cells in
its terms.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from knotforge.errors import ZeroPolynomial
from knotforge.exactpoly import (
    Poly,
    Rational,
    _content_free,
    _horner,
    _primitive_ints,
    exact_quotient,
)


@dataclass(frozen=True)
class IsolatingInterval:
    """Half-open interval (lo, hi] certified to contain exactly one root."""

    lo: Rational
    hi: Rational

    @property
    def width(self) -> Rational:
        return self.hi - self.lo


def interval(located, i: int, k: int) -> IsolatingInterval:
    """Root i's cell `located.ends(i, k)`, in `Fraction`s."""
    low, high, den = located.ends(i, k)
    return IsolatingInterval(Fraction(low, den), Fraction(high, den))


def cell_intervals(located, width: Rational) -> list[IsolatingInterval]:
    """The cells of `located.cells(depth)` for width = (hi - lo) / 2^depth, as intervals."""
    _, b, c = located._frame  # hi - lo = b / c
    steps = Fraction(b, c) / width
    depth = steps.numerator.bit_length() - 1
    assert steps == 1 << depth, "width must be (hi - lo) / 2^depth"
    return [interval(located, i, k) for i, k in enumerate(located.cells(depth))]


def sign_at(cs, num: int, den: int) -> int:
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


def _sturm_sequence(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Remainder sequence of a and a'; just [a] for a constant."""
    if len(a) < 2:
        return [a]
    return _remainder_sequence(a, _content_free([i * c for i, c in enumerate(a)][1:]))


class SturmChain:
    """Sturm chain of the squarefree part of p, in exact integer arithmetic.

    The last element of the remainder sequence p, p', -(p mod p'), ... is
    gcd(p, p'), kept as `gcd`: its roots are the repeated roots of p.  When
    it is not constant, p is divided by it and the chain of the quotient is
    built instead, so `chain[0]` is always the squarefree part (up to a
    positive factor).  Every element is kept as its primitive form, a
    positive multiple of the remainder, so signs are exact integer signs
    from homogeneous Horner; `chain` holds the same elements as
    polynomials, the first two as p and p' when p is squarefree.

    `count(a, b)`, the number of distinct real roots of p in (a, b], is
    exact for any rational endpoints, zeros included: the sign-variation
    count ignores zeros, which makes it right-continuous.
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

    def sign(self, x: Rational) -> int:
        """Exact sign of the squarefree part chain[0] at x."""
        return sign_at(self._ints[0], x.numerator, x.denominator)

    def variations(self, x: Rational) -> int:
        num, den = x.numerator, x.denominator
        count = last = 0
        for cs in self._ints:
            s = sign_at(cs, num, den)
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


def count_roots(p: Union[Poly, SturmChain], lo: Rational, hi: Rational) -> int:
    """Exact number of distinct real roots of p, a polynomial or its SturmChain, in
    the open interval (lo, hi): the half-open Sturm count of (lo, hi], less a root
    at hi, found by its exact sign."""
    chain = chain_of(p)
    lo, hi = Fraction(lo), Fraction(hi)
    n = chain.count(lo, hi)
    if chain.sign(hi) == 0:
        n -= 1
    return n


def chain_of(p: Union[Poly, SturmChain]) -> SturmChain:
    """The chain of p for a polynomial; p itself when it is already a chain."""
    return SturmChain(p) if isinstance(p, Poly) else p


def deflated(chain: SturmChain, x: Rational) -> SturmChain:
    """Chain of chain[0] / (t - x), for an exact root x of chain[0]."""
    return SturmChain(Poly(exact_quotient(chain._ints[0], (-x.numerator, x.denominator))))


def isolate_roots(
    p: Union[Poly, SturmChain], lo: Rational, hi: Rational
) -> list[IsolatingInterval]:
    """Disjoint isolating intervals, one per distinct root of p in (lo, hi).

    p is a polynomial or its SturmChain.  Bisection on half-open Sturm
    counts; returned intervals (a, b] are sorted and each contains
    exactly one root.
    """
    chain = chain_of(p)
    lo, hi = Fraction(lo), Fraction(hi)
    deflated_hi = chain.sign(hi) == 0
    if deflated_hi:
        # exclude the root at hi: it is not in the open interval
        chain = deflated(chain, hi)
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
    chain = chain_of(p)
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
