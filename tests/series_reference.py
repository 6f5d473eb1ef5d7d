"""Sums of the phi series used as test references; the package never sums the series."""

from fractions import Fraction

from knotforge.stieltjes import phi


def series_sum(u: float, terms: int = 120) -> float:
    """Truncated series sum_{n<=terms} phi_n u^n in double precision."""
    acc = 0.0
    up = 1.0
    for n in range(1, terms + 1):
        up *= u
        acc += float(phi(n)) * up
    return acc


def partial_sum(k: int) -> Fraction:
    """Exact partial sum of phi_1 + ... + phi_k."""
    return sum((phi(n) for n in range(1, k + 1)), Fraction(0))
