import random
from fractions import Fraction as F

import pytest

from knotforge.chebyshev import ChebT, divided_difference, t_poly
from knotforge.exactpoly import Poly, locate_roots, squarefree
from knotforge.knots import crossing_oracle, synthesize

X3 = t_poly(3)

# the shipped 9-crossing plane curve (T-basis coefficients; index 0 is T_0 = 2)
FIXTURE_Y = ChebT.of({
    0: F(56), 2: F(-100), 4: F(85), 6: F(-64),
    8: F(42), 10: F(-23), 12: F(10), 14: F(-27, 10),
})


class TestOracleBasics:
    def test_requires_cubic_x(self):
        with pytest.raises(ValueError):
            crossing_oracle(Poly([0, 0, 1]), Poly([0, 1]))

    def test_fixture_has_nine(self):
        assert crossing_oracle(X3, FIXTURE_Y.to_poly()) == 9

    def test_unknot_diagram(self):
        curve, _ = synthesize(1)
        assert crossing_oracle(X3, curve.plane.y.to_poly()) == 1

    def test_trefoil(self):
        curve, _ = synthesize(3)
        assert crossing_oracle(X3, curve.plane.y.to_poly()) == 3

    def test_synthesized_through_eleven(self):
        for n in (5, 7, 9, 11):
            curve, _ = synthesize(n)
            assert crossing_oracle(X3, curve.plane.y.to_poly()) == n


class TestCrossValidation:
    def test_random_deformations_agree_with_sturm(self):
        # 20 seeded quartic-family curves: the oracle count must equal the
        # certified count of the divided-difference image
        rng = random.Random(20240817)
        agreed = tried = 0
        while agreed < 20 and tried < 80:
            tried += 1
            y = ChebT.of({
                4: F(1),
                1: F(rng.randint(-40, 40), rng.randint(200, 400)),
                2: F(rng.randint(-40, 40), rng.randint(200, 400)),
                5: F(rng.randint(-40, 40), rng.randint(200, 400)),
            })
            r_ints, _ = divided_difference(y).integer_form()
            if len(squarefree(r_ints)[0]) != len(r_ints):
                continue
            expected = len(locate_roots(r_ints, -2, 2))
            if expected != len(locate_roots(r_ints, F(-9, 5), F(9, 5))):
                continue  # keep roots clear of the +-2 degeneracy
            assert crossing_oracle(X3, y.to_poly(), grid=400) == expected
            agreed += 1
        assert agreed == 20
