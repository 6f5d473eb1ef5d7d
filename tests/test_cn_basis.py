import re
from fractions import Fraction as F

import pytest

from c_basis_reference import build_cn_tilde, build_cn_triangular
from knotforge.chebyshev import to_V, w_index, wtilde_index
from knotforge.errors import InternalInconsistency
from knotforge.exactpoly import Poly, _primitive_ints, locate_roots
from knotforge.knots import _validate_cn, build_cn

T = Poly([0, 1])


def shifted(coeffs, order):
    """Polynomial t^order * (coeffs as a polynomial)."""
    return Poly([0] * order + list(coeffs))


CN_CLOSED_FORMS = {
    0: Poly([0, 1]),
    1: shifted([1], 3),
    2: shifted([-6, 0, 1], 5),
    3: shifted([F(-9, 2), 0, 1], 7),
    4: shifted([33, 0, -12, 0, 1], 9),
    5: shifted([F(234, 11), 0, F(-102, 11), 0, 1], 11),
}

CN_W_COORDS = {
    0: (F(1),),
    1: (F(2), F(1)),
    2: (F(-16), F(-10), F(1)),
    3: (F(-21), F(-15), F(7, 2), F(1)),
    4: (F(231), F(176), F(-56), F(-22), F(1)),
    5: (F(260), F(208), F(-910, 11), F(-40), F(52, 11), F(1)),
}


class TestTableRegression:
    def test_monomial_forms(self):
        basis = build_cn(5)
        for j, expected in CN_CLOSED_FORMS.items():
            assert basis.cn[j] == expected, f"C_{j}"

    def test_w_coordinates(self):
        basis = build_cn(5)
        for j, expected in CN_W_COORDS.items():
            assert basis.cn_w[j] == expected, f"C_{j}"

    def test_c5_w4_coefficient(self):
        assert build_cn(5).cn_w[5][4] == F(52, 11)


@pytest.fixture(scope="module")
def basis():
    return build_cn(10)


@pytest.fixture(scope="module")
def tilde():
    return build_cn_tilde(10)


class TestStructuralInvariants:

    def test_odd_and_monic(self, basis):
        for j, c in enumerate(basis.cn):
            assert c.is_odd(), f"C_{j}"
            assert c.leading == 1

    def test_degree_formula(self, basis):
        for j, c in enumerate(basis.cn):
            assert c.degree == 2 * j + 2 * (j // 2) + 1

    def test_vanishing_order(self, basis):
        for j, c in enumerate(basis.cn):
            assert all(c.coeff(i) == 0 for i in range(2 * j + 1))
            assert c.coeff(2 * j + 1) != 0

    def test_cofactor_root_free_on_band(self, basis):
        for j, c in enumerate(basis.cn):
            cof = Poly(c.coeffs[2 * j + 1:])
            assert len(locate_roots(_primitive_ints(cof), -2, 2)) == 0
            assert cof(F(-2)) != 0 and cof(F(2)) != 0

    def test_v_support(self, basis):
        for j, c in enumerate(basis.cn):
            allowed = {w_index(i) for i in range(j + 1)}
            for k, coeff in to_V(c).items:
                assert k in allowed, f"C_{j} has V_{k}"

    def test_w_leading_coordinate_is_one(self, basis):
        for j in range(11):
            assert basis.cn_w[j][j] == 1

    # each candidate passes the checks before the one it fails; "a V_k component
    # outside W_0..W_j" follows from the degree, parity and mod-3 checks, so no
    # candidate reaches it
    @pytest.mark.parametrize("j, coeffs, message", [
        pytest.param(1, [0, 0, 0, 0, 1], "C_1 has degree 4, expected 3", id="degree"),
        pytest.param(0, [1, 1], "C_0 is not odd", id="parity"),
        pytest.param(1, [0, 1, 0, 1], "t^3 does not divide C_1", id="vanishing"),
        pytest.param(2, [0, 0, 0, 0, 0, -1, 0, 1], "cofactor of C_2 has a root in [-2, 2]",
                     id="cofactor"),
        pytest.param(2, [0, 0, 0, 0, 0, 1, 0, 1],
                     "C_2 has a V_5 component (index = 2 mod 3)", id="v-support"),
    ])
    def test_self_checks_reject(self, j, coeffs, message):
        with pytest.raises(InternalInconsistency, match=f"^{re.escape(message)}$"):
            _validate_cn(j, Poly(coeffs))


class TestDualPath:
    def test_triangular_equals_approximant_path(self):
        via_pade = build_cn(8)
        via_lu = build_cn_triangular(8)
        for j in range(9):
            assert via_pade.cn[j] == via_lu.cn[j], f"C_{j}"
            assert via_pade.cn_w[j] == via_lu.cn_w[j], f"C_{j}"


class TestTildeBasis:
    def test_first_elements(self, tilde):
        assert tilde.cn[0] == Poly([1])
        assert tilde.cn[1] == Poly([0, 0, 1, 0, F(-1, 3)])
        assert tilde.cn[2] == Poly([0, 0, 0, 0, 1, 0, F(-1, 3)])

    def test_ct1_v_form(self, tilde):
        assert dict(to_V(tilde.cn[1]).items) == {0: F(1, 3), 4: F(-1, 3)}

    def test_recursive_definition(self, tilde):
        basis = build_cn(9)
        t3 = Poly([0, -3, 0, 1])
        for j in range(1, 11):
            assert tilde.cn[j] == (t3 * basis.cn[j - 1]).scale(F(-1, 3))

    def test_even_with_vanishing_order(self, tilde):
        for j, c in enumerate(tilde.cn):
            assert not any(c.coeffs[1::2])
            assert all(c.coeff(i) == 0 for i in range(2 * j))
            assert c.coeff(2 * j) != 0

    def test_cofactor_root_free_on_node_band(self, tilde):
        # the cofactor vanishes at +-sqrt(3) (T_3 divides Ct_j), so the
        # certified root-free band is [-1, 1], which contains every node
        for j in range(1, 11):
            cof = Poly(tilde.cn[j].coeffs[2 * j:])
            assert len(locate_roots(_primitive_ints(cof), -1, 1)) == 0
            assert cof(F(-1)) != 0 and cof(F(1)) != 0
            assert len(locate_roots(_primitive_ints(cof), -2, 2)) == 2  # the sqrt(3) pair, for the record

    def test_v_support(self, tilde):
        for j, c in enumerate(tilde.cn):
            allowed = {wtilde_index(i) for i in range(j + 1)}
            for k, _ in to_V(c).items:
                assert k in allowed, f"Ct_{j} has V_{k}"
