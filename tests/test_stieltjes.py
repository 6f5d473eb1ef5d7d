import math
from fractions import Fraction as F

import pytest

from knotforge.exactpoly import Poly
from knotforge.stieltjes import PhiSeries, phi
from series_reference import (
    difference,
    hankel_det,
    ode_residual,
    partial_sum,
    phi_closed,
    series_sum,
)


def phi_by_algebraic_relation(count: int) -> list[F]:
    """Independent oracle: the unique series S with S^3 - 6 S^2 + 9 S = 4u.

    Matching coefficients order by order never touches the ratio
    recursion, so agreement really is a cross-check.
    """
    coeffs = [F(0), F(4, 9)]
    for n in range(2, count + 1):
        s = Poly(coeffs)
        s2 = s * s
        s3 = s2 * s
        coeffs.append((6 * s2.coeff(n) - s3.coeff(n)) / 9)
    return coeffs


class TestCoefficients:
    def test_first_values(self):
        assert phi(0) == 0
        assert phi(1) == F(4, 9)
        assert phi(2) == F(32, 243)
        assert phi(3) == F(448, 6561)

    def test_against_algebraic_oracle(self):
        oracle = phi_by_algebraic_relation(12)
        for n in range(13):
            assert phi(n) == oracle[n]

    def test_ratio_law(self):
        for n in range(1, 201):
            assert phi(n + 1) / phi(n) == F(2 * (3 * n + 1) * (3 * n - 1), 9 * (n + 1) * (2 * n + 1))

    def test_positive_and_decreasing(self):
        for n in range(1, 101):
            assert phi(n) > 0
            assert phi(n + 1) < phi(n)

    def test_fresh_instance_matches(self):
        series = PhiSeries()
        assert [series(n) for n in range(6)] == [phi(n) for n in range(6)]


class TestClosedForm:
    def test_endpoints(self):
        assert phi_closed(0.0) == 0.0
        assert phi_closed(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_against_series(self):
        assert abs(phi_closed(0.25) - series_sum(0.25, terms=60)) < 1e-12

    def test_agreement_at_five_points(self):
        for u in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert abs(phi_closed(u) - series_sum(u, terms=120)) < 1e-8


class TestOde:
    def test_residual_small_mid(self):
        assert abs(ode_residual(0.5, terms=80)) < 1e-10

    def test_residual_tiny_near_zero(self):
        assert abs(ode_residual(0.1, terms=80)) < 1e-12


class TestDifferences:
    def test_zeroth(self):
        assert difference(0, 1) == F(4, 9)

    def test_first(self):
        assert difference(1, 1) == F(32, 243) - F(4, 9) == F(-76, 243)

    def test_total_monotonicity(self):
        for k in range(9):
            for n in range(1, 31):
                assert (-1) ** k * difference(k, n) > 0


class TestHankel:
    def test_one_by_one(self):
        assert hankel_det(1, 0) == F(4, 9)

    def test_two_by_two_value(self):
        assert hankel_det(1, 1) == phi(1) * phi(3) - phi(2) * phi(2)
        assert hankel_det(1, 1) > 0

    def test_positivity_block(self):
        for n in range(1, 9):
            for m in range(5):
                assert hankel_det(n, m) > 0

    def test_matches_cofactor_expansion_3x3(self):
        def det3(a):
            return (
                a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
            )

        m = [[phi(2 + i + j) for j in range(3)] for i in range(3)]
        assert hankel_det(2, 2) == det3(m)


class TestPartialSums:
    def test_increasing_and_bounded(self):
        prev = F(0)
        for k in range(1, 120):
            cur = partial_sum(k)
            assert cur > prev
            assert cur < 1
            prev = cur

    def test_pinned_value_at_400(self):
        # frozen regression constant: the exact sum is 0.96744044...;
        # the n^(-3/2) coefficient decay makes convergence to 1 this slow
        s = partial_sum(400)
        assert F(967, 1000) < s < F(968, 1000)
        assert math.isclose(float(s), 0.9674404443985616, rel_tol=1e-12)
