from fractions import Fraction as F

import pytest

from knotforge.errors import SingularSystem
from knotforge.exactpoly import Poly, _primitive_ints, locate_roots
from knotforge.pade import pade
from knotforge.stieltjes import phi
from series_reference import cauchy_root_bound, check_pole_locations, expand


class TestSmallCases:
    def test_one_one(self):
        a = pade(phi, 1, 1)
        assert a.p == Poly([0, F(4, 9)])
        assert a.q == Poly([1, F(-8, 27)])

    def test_one_one_congruence(self):
        a = pade(phi, 1, 1)
        assert expand(a, 2) == (phi(1), phi(2))

    def test_m_zero_is_taylor(self):
        a = pade(phi, 4, 0)
        assert a.q == Poly([1])
        assert a.p == Poly([phi(k) for k in range(5)])
        assert expand(a, 4) == tuple(phi(k) for k in range(1, 5))

    def test_two_one_matches_then_dominates(self):
        a = pade(phi, 2, 1)
        coeffs = expand(a, 4)
        assert coeffs[:3] == (phi(1), phi(2), phi(3))
        assert 0 <= coeffs[3] < phi(4)

    def test_geometric_tail_of_one_one(self):
        a = pade(phi, 1, 1)
        c3 = expand(a, 3)[2]
        assert c3 == F(4, 9) * F(8, 27) ** 2 == F(256, 6561)
        assert c3 <= phi(3) == F(448, 6561)

    def test_zero_zero_forced_to_zero_numerator(self):
        # the series has no constant term, so p vanishes identically at n = 0
        a = pade(phi, 0, 0)
        assert a.p.is_zero
        assert a.q == Poly([1])

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            pade(phi, 1, 2)


class TestStructureBattery:
    """Exact structural checks for every [n/m] with m <= n <= 6."""

    def _pairs(self):
        return [(n, m) for n in range(7) for m in range(min(n, 6) + 1)]

    def test_normalization_and_degrees(self):
        for n, m in self._pairs():
            a = pade(phi, n, m)
            assert a.q.coeff(0) == 1
            assert a.q.degree == m
            if n >= 1:
                assert a.p.degree == n
            else:
                assert a.p.is_zero

    def test_match_through_order_n_plus_m(self):
        for n, m in self._pairs():
            if n + m == 0:
                continue
            a = pade(phi, n, m)
            assert expand(a, n + m) == tuple(phi(k) for k in range(1, n + m + 1))

    def test_strict_domination_at_next_order(self):
        for n, m in self._pairs():
            a = pade(phi, n, m)
            c = expand(a, n + m + 1)[n + m]
            assert 0 <= c < phi(n + m + 1)

    def test_coefficientwise_domination(self):
        for n, m in self._pairs():
            a = pade(phi, n, m)
            coeffs = expand(a, n + m + 10)
            for k, c in enumerate(coeffs, start=1):
                assert 0 <= c <= phi(k)

    def test_denominator_roots_beyond_radius(self):
        for n, m in self._pairs():
            a = pade(phi, n, m)
            assert check_pole_locations(a, F(1))
            if m:
                assert len(locate_roots(_primitive_ints(a.q), 0, 1)) == 0
                assert a.q(0) == 1 and a.q(1) > 0  # positive on all of [0, 1]


class TestPoleBound:
    def test_cauchy_bound_of_one_one(self):
        a = pade(phi, 1, 1)
        assert cauchy_root_bound(a.q) == F(35, 8)  # covers the root at 27/8
        assert check_pole_locations(a, F(1))

    def test_vacuous_for_m_zero(self):
        assert check_pole_locations(pade(phi, 3, 0), F(1))

    def test_three_three(self):
        assert check_pole_locations(pade(phi, 3, 3), F(1))


class TestNegativeControls:
    def test_tampered_coefficient_breaks_congruence(self):
        tampered = [phi(k) for k in range(1, 5)]
        tampered[3] += F(1, 1000)
        a = pade(lambda k: tampered[k - 1], 2, 2)
        assert expand(a, 4) != tuple(phi(k) for k in range(1, 5))

    def test_rational_series_is_singular(self):
        # f_k = 1 for all k sums to x/(1-x); its Hankel blocks are singular
        with pytest.raises(SingularSystem):
            pade(lambda k: F(1), 2, 2)
