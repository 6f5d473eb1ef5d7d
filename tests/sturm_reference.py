"""Root isolation and refinement by bisection on Sturm chains.

`knotforge.exactpoly.locate_roots` isolates by Descartes bisection, and
`LocatedRoots.cells` and `LocatedRoots.halve` give the intervals that
isolation and refinement on a Sturm chain give; `isolate_roots` and
`refine` are that reference, on the library's `SturmChain`.
"""

from fractions import Fraction
from typing import Union

from knotforge.exactpoly import (
    IsolatingInterval,
    Poly,
    Rational,
    SturmChain,
    exact_quotient,
)


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
