import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from knotforge import chebyshev as cb
from knotforge.chebyshev import (
    ChebT,
    ChebV,
    divided_difference,
    eps,
    eval_T_float,
    lift_from_V,
    t_poly,
    to_T,
    to_V,
    v_poly,
    w_index,
    wtilde_index,
)
from knotforge.errors import NotInImage
from knotforge.exactpoly import Poly

from export_reference import eval_T_float_at, poly_eval_float_at


def v_ext(n: int) -> Poly:
    """V at any integer index via the reflection V_{-m} = -V_{m-2}."""
    if n >= 0:
        return v_poly(n)
    if n == -1:
        return Poly()
    return -v_poly(-n - 2)


class TestRecurrences:
    def test_t3(self):
        assert t_poly(3) == Poly([0, -3, 0, 1])

    def test_v3_equals_t1_t2(self):
        assert v_poly(3) == Poly([0, -2, 0, 1])
        assert v_poly(3) == t_poly(1) * t_poly(2)

    def test_t6_is_t2_of_t3(self):
        assert t_poly(6) == t_poly(2).compose(t_poly(3))

    def test_monic(self):
        for n in range(1, 25):
            assert t_poly(n).leading == 1
            assert v_poly(n).leading == 1
            assert t_poly(n).degree == n
            assert v_poly(n).degree == n

    def test_t0_is_two(self):
        assert t_poly(0) == Poly([2])
        assert v_poly(0) == Poly([1])

    def test_product_rule(self):
        # T_a T_b = T_{a+b} + T_{|a-b|}, with T_0 = 2 making a = b work out
        for a in range(21):
            for b in range(21):
                assert t_poly(a) * t_poly(b) == t_poly(a + b) + t_poly(abs(a - b))


class TestLatticeIdentities:
    def test_v_gap_is_t1_t6k(self):
        for k in range(6):
            lhs = v_ext(6 * k + 1) - v_ext(6 * k - 3)
            assert lhs == t_poly(1) * t_poly(6 * k)

    def test_v_sum_is_t3_v(self):
        for k in range(6):
            lhs = v_poly(6 * k + 6) + v_poly(6 * k)
            assert lhs == t_poly(3) * v_poly(6 * k + 3)


class TestConversions:
    def test_t5_in_v(self):
        assert dict(to_V(Poly([0, 0, 0, 0, 0, 1])).items) == {5: F(1), 3: F(4), 1: F(5)}

    def test_t_in_t(self):
        assert dict(to_T(Poly([0, 1])).items) == {1: F(1)}

    def test_one_in_v(self):
        assert dict(to_V(Poly([1])).items) == {0: F(1)}

    def test_constant_in_t_uses_half(self):
        # T_0 is the constant 2
        assert dict(to_T(Poly([1])).items) == {0: F(1, 2)}

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=32),
                    min_size=0, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_roundtrips(self, coeffs):
        p = Poly(coeffs)
        assert to_T(p).to_poly() == p
        assert to_V(p).to_poly() == p

    def test_degree_1600_monomial_round_trips(self):
        # t^n = sum_j C(n, j) T_{n-2j}, T_0's term halved, and
        # sum_j (C(n, j) - C(n, j-1)) V_{n-2j}; both come from one integer Horner
        # in t, where a Fraction back-substitution took seconds
        n, p = 1600, Poly([0] * 1600 + [1])
        cb._family_ints.cache_clear()
        start = time.perf_counter()
        t_series, v_series = to_T(p), to_V(p)
        assert t_series.to_poly() == p and v_series.to_poly() == p
        assert time.perf_counter() - start < 3.0
        assert dict(t_series.items) == {n - 2 * j: F(math.comb(n, j), 2 if 2 * j == n else 1)
                                        for j in range(n // 2 + 1)}
        assert dict(v_series.items) == {
            n - 2 * j: math.comb(n, j) - math.comb(n, j - 1) if j else 1 for j in range(n // 2 + 1)}


class TestEps:
    def test_values(self):
        assert [eps(k) for k in range(1, 13)] == [1, 1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0]

    def test_matches_v_at_one(self):
        for k in range(1, 41):
            assert eps(k) == v_poly(k - 1)(1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            eps(0)


class TestDividedDifference:
    def test_t1_maps_to_v0(self):
        assert dict(divided_difference(ChebT.of({1: 1})).items) == {0: F(1)}

    def test_t3_maps_to_zero(self):
        assert dict(divided_difference(ChebT.of({3: 1})).items) == {}

    def test_termwise_example(self):
        y = ChebT.of({4: -1, 2: F(127, 64)})
        assert dict(divided_difference(y).items) == {3: F(1), 1: F(127, 64)}

    def test_constant_ignored(self):
        y = ChebT.of({0: 7, 2: 1})
        assert dict(divided_difference(y).items) == {1: F(1)}

    def test_numeric_identity(self):
        # independent trig oracle: s, t, u from cosines; the polynomials are
        # evaluated exactly at the float-derived rationals
        rng = random.Random(91125)
        for _ in range(100):
            alpha = rng.uniform(1e-3, math.pi - 1e-3)
            s = F(2 * math.cos(alpha + math.pi / 3))
            t = F(2 * math.cos(alpha - math.pi / 3))
            u = F(2 * math.cos(alpha))
            for k in range(1, 31):
                lhs = (t_poly(k)(t) - t_poly(k)(s)) / (t - s)
                rhs = eps(k) * v_poly(k - 1)(u)
                assert abs(float(lhs - rhs)) < 1e-9


class TestLift:
    def test_v0_lifts_to_t1(self):
        assert dict(lift_from_V(ChebV.of({0: 1})).items) == {1: F(1)}

    def test_example(self):
        r = ChebV.of({3: 1, 1: F(127, 64)})
        assert dict(lift_from_V(r).items) == {4: F(-1), 2: F(127, 64)}

    def test_blocked_by_v2(self):
        with pytest.raises(NotInImage):
            lift_from_V(ChebV.of({2: 1}))

    def test_section_of_divided_difference(self):
        r = ChebV.of({0: F(3, 7), 1: -2, 3: 5, 4: F(1, 3)})
        assert divided_difference(lift_from_V(r)) == r

    @given(st.dictionaries(st.integers(min_value=1, max_value=24),
                           st.fractions(min_value=-4, max_value=4, max_denominator=16),
                           max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_on_complement_of_kernel(self, coeffs):
        coeffs = {k: v for k, v in coeffs.items() if k % 3 != 0 and v != 0}
        y = ChebT.of(coeffs)
        assert lift_from_V(divided_difference(y)) == y


class TestWIndices:
    def test_w_values(self):
        assert w_index(0) == 1
        assert w_index(1) == 3
        assert w_index(2) == 7

    def test_wtilde_values(self):
        assert wtilde_index(0) == 0
        assert wtilde_index(1) == 4
        assert wtilde_index(2) == 6

    def test_degree_formulas(self):
        for k in range(12):
            assert v_poly(w_index(k)).degree == 2 * k + 2 * (k // 2) + 1
            assert v_poly(wtilde_index(k)).degree == 2 * k + 2 * ((k + 1) // 2)


def bits(values: list[float]) -> list[str]:
    # float.hex tells -0.0 from 0.0, and every nan from every number
    return [v.hex() for v in values]


TINY = F(1, 10**400)  # nonzero, but its double is (-)0.0
float_coefficients = st.one_of(
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.sampled_from([TINY, -TINY, F(10**300), F(-3, 7)]),
)
grid_points = st.lists(
    st.one_of(st.sampled_from([-2.2, 2.2, 0.0, -0.0, -2.0]), st.floats(-2.2, 2.2)), max_size=8
)


class TestFloatEval:
    def test_matches_exact(self):
        y = ChebT.of({0: 3, 2: F(1, 4), 7: -2})
        exact = y.to_poly()
        xs = [-1.75, -0.5, 0.0, 1.2]
        assert eval_T_float([y], xs)[0] == pytest.approx(exact.eval_float(xs), abs=1e-12)

    @given(coeffs=st.dictionaries(st.integers(0, 14), float_coefficients, max_size=6),
           xs=grid_points)
    @example(coeffs={}, xs=[-2.2, 0.0, 2.2])
    @example(coeffs={0: F(3), 1: F(-1, 2)}, xs=[-2.2, -0.0, 0.0, 2.2])
    @example(coeffs={1: F(5)}, xs=[0.0, -0.0])
    @example(coeffs={0: F(1), 4: F(2), 9: F(-3)}, xs=[-2.2, 0.0, 2.2])
    # the partial sum is -0.0 at t = -2; the T_2 term, 0.0 as a double, makes it +0.0
    @example(coeffs={0: -TINY, 2: TINY}, xs=[-2.0, -1.0, 0.0])
    @settings(max_examples=150, deadline=None)
    def test_grid_is_bit_equal_to_pointwise(self, coeffs, xs):
        c = ChebT.of(coeffs)
        assert bits(eval_T_float([c], xs)[0]) == bits([eval_T_float_at(c, x) for x in xs])
        p = c.to_poly()
        assert bits(p.eval_float(xs)) == bits([poly_eval_float_at(p, x) for x in xs])

    @given(first=st.dictionaries(st.integers(0, 14), float_coefficients, max_size=6),
           second=st.dictionaries(st.integers(0, 14), float_coefficients, max_size=6),
           xs=grid_points)
    @example(first={0: F(3), 2: F(1, 4), 7: F(-2)}, second={}, xs=[-2.2, 0.0, 2.2])
    @example(first={}, second={1: F(5), 12: F(-3, 7)}, xs=[-2.2, -0.0, 0.0, 2.2])
    @example(first={}, second={}, xs=[-2.0, 0.0])
    @example(first={0: F(1), 4: F(2), 9: F(-3)}, second={1: TINY, 3: F(10**300)}, xs=[-2.2, 2.2])
    # the -0.0 partial sums of test_signed_zero_partial_sum, in either slot
    @example(first={0: -TINY, 2: TINY}, second={0: -TINY}, xs=[-2.0, -1.0, 0.0])
    @example(first={0: -TINY}, second={0: -TINY, 2: TINY, 13: F(1)}, xs=[-2.0, -1.0, 0.0])
    # T_2(-2) = T_3(-1) = 2, so a TINY T_2 or T_3 term turns a -0.0 partial sum into +0.0
    @example(first={0: -TINY, 3: TINY}, second={0: -TINY, 2: TINY, 3: TINY},
             xs=[-2.0, -1.0, -0.0])
    @settings(max_examples=150, deadline=None)
    def test_two_series_share_one_recurrence(self, first, second, xs):
        # different degrees, odd and even tops, an empty series: each output is
        # the one-point recurrence of its own series, bit for bit
        pair = [ChebT.of(first), ChebT.of(second)]
        got = eval_T_float(pair, xs)
        assert [bits(values) for values in got] == [bits([eval_T_float_at(c, x) for x in xs])
                                                    for c in pair]
        assert bits(eval_T_float(pair[1:], xs)[0]) == bits(got[1])

    def test_takes_one_or_two_series(self):
        with pytest.raises(ValueError, match="one or two series"):
            eval_T_float([], [0.0])
        with pytest.raises(ValueError, match="one or two series"):
            eval_T_float([ChebT.of({0: 1})] * 3, [0.0])

    def test_signed_zero_partial_sum(self):
        c = ChebT.of({0: -TINY, 2: TINY})
        assert bits(eval_T_float([c], [-2.0])[0]) == [(0.0).hex()]
        assert bits(eval_T_float([ChebT.of({0: -TINY})], [-2.0])[0]) == [(-0.0).hex()]
        assert bits(Poly([-TINY]).eval_float([-1.0, 1.0])) == [(-0.0).hex(), (0.0).hex()]


@given(
    coeffs=st.dictionaries(st.integers(0, 40), st.fractions(max_denominator=10**9), max_size=8),
    cosine=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_integer_form_is_the_monomial_expansion(coeffs, cosine):
    cls, family = (ChebT, t_poly) if cosine else (ChebV, v_poly)
    c = cls.of(coeffs)
    ints, den = c.integer_form()
    expected = Poly()
    for k, a in c.items:
        expected = expected + family(k).scale(a)
    assert Poly([F(v, den) for v in ints]) == expected == c.to_poly()
    assert den == math.lcm(*(a.denominator for _, a in c.items))
    assert len(ints) == expected.degree + 1  # empty for zero, else a nonzero top
