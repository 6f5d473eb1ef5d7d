"""The C and Ct bases, and the deformation and height solved in them, as the paper states them.

`build_cn_triangular` builds the C basis a second way, by triangular
elimination against the W rows, and `build_cn_tilde` the even basis Ct;
synthesis builds neither.  `knots.solve_deformation` and
`knots.solve_height` solve the same problems with the planted roots
factored out; the n x n and (n + 1) x (n + 1) solves here are the
reference they are tested against.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from knotforge import chebyshev as cb
from knotforge.errors import InternalInconsistency
from knotforge.exactpoly import Poly, _primitive_ints, locate_roots, solve_linear
from knotforge.knots import CnBasis, _validate_cn, build_cn


@dataclass(frozen=True)
class CnTildeBasis:
    """The even companions Ct_0 = 1, Ct_j = -(1/3) T_3 C_{j-1}."""

    n_max: int
    cn: tuple[Poly, ...]


def build_cn_triangular(n_max: int) -> CnBasis:
    """Independent construction of the same basis by triangular elimination.

    C_j = W_j + sum_{i<j} c_i W_i with the c_i chosen to kill the
    coefficients of t, t^3, ..., t^{2j-1}.  Uniqueness of the triangular
    basis makes this bit-for-bit equal to `knots.build_cn`; the tests
    cross-check the two paths against each other.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    cns: list[Poly] = []
    coords: list[tuple[Fraction, ...]] = []
    for j in range(n_max + 1):
        wj = cb.v_poly(cb.w_index(j))
        if j == 0:
            c = wj
            sol: list[Fraction] = []
        else:
            matrix = [[cb.v_poly(cb.w_index(i)).coeff(2 * row + 1) for i in range(j)]
                      for row in range(j)]
            rhs = [-wj.coeff(2 * row + 1) for row in range(j)]
            nums, den = solve_linear(matrix, rhs)
            sol = [Fraction(v, den) for v in nums]
            c = wj
            for i, ci in enumerate(sol):
                c = c + cb.v_poly(cb.w_index(i)) * ci
        coords.append(_validate_cn(j, c))
        cns.append(c)
    return CnBasis(n_max, tuple(cns), tuple(coords))


def build_cn_tilde(n_max: int, basis: Optional[CnBasis] = None) -> CnTildeBasis:
    """Build the even basis Ct_0 = 1, Ct_j = -(1/3) T_3 C_{j-1}.

    Ct_j = t^{2j} Ft_j; because T_3 divides every Ct_j with j >= 1, the
    cofactor Ft_j necessarily vanishes at +-sqrt(3), so root-freeness is
    checked on [-1, 1], which covers every admissible node.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if basis is None or basis.n_max < n_max - 1:
        basis = build_cn(max(n_max - 1, 0))
    third = Fraction(-1, 3)
    t3 = cb.t_poly(3)
    cns: list[Poly] = [Poly([1])]
    for j in range(1, n_max + 1):
        c = (t3 * basis.cn[j - 1]).scale(third)
        if any(c.coeffs[1::2]):
            raise InternalInconsistency(f"Ct_{j} is not even")
        if any(c.coeff(i) != 0 for i in range(2 * j)):
            raise InternalInconsistency(f"t^{2*j} does not divide Ct_{j}")
        cofactor = Poly(c.coeffs[2 * j:])
        if (
            len(locate_roots(_primitive_ints(cofactor), -1, 1)) != 0
            or cofactor(Fraction(-1)) == 0
            or cofactor(Fraction(1)) == 0
        ):
            raise InternalInconsistency(f"cofactor of Ct_{j} has a root in [-1, 1]")
        allowed = {cb.wtilde_index(i) for i in range(j + 1)}
        for k, _ in cb.to_V(c).items:
            if k not in allowed:
                raise InternalInconsistency(f"Ct_{j} has a V_{k} component outside Wt_0..Wt_{j}")
        cns.append(c)
    return CnTildeBasis(n_max, tuple(cns))



def reference_deformation(basis, nodes):
    """The unique A = C_n + sum_{k<n} a_k C_k vanishing at the nodes: (a, A)."""
    n = nodes.n
    if n == 0:
        return (), basis.cn[0]
    matrix = [[basis.cn[k](d) for k in range(n)] for d in nodes.delta]
    rhs = [-basis.cn[n](d) for d in nodes.delta]
    nums, den = solve_linear(matrix, rhs)
    a = [Fraction(v, den) for v in nums]
    poly = basis.cn[n]
    for k, ak in enumerate(a):
        poly = poly + basis.cn[k] * ak
    return tuple(a), poly


def reference_height(basis_tilde, nodes):
    """The B = sum b_k Ct_k with B(u_i) = (-1)^i at the planted roots: (b, B)."""
    n = nodes.n
    points = [Fraction(0)] + list(nodes.delta)
    matrix = [[basis_tilde.cn[k](u) for k in range(n + 1)] for u in points]
    rhs = [Fraction((-1) ** (n + 1 + i)) for i in range(n + 1)]
    nums, den = solve_linear(matrix, rhs)
    b = [Fraction(v, den) for v in nums]
    poly = Poly()
    for k, bk in enumerate(b):
        poly = poly + basis_tilde.cn[k] * bk
    return tuple(b), poly


def triangular_coordinates(poly, basis):
    """Coordinates of poly on basis elements whose lowest degrees increase strictly.

    Raises AssertionError when poly is not in their span.
    """
    rest, coords = poly, []
    for element in basis:
        low = next(i for i, c in enumerate(element.coeffs) if c)
        c = rest.coeff(low) / element.coeff(low)
        coords.append(c)
        rest = rest - element * c
    assert rest.is_zero, "not in the span of the basis"
    return tuple(coords)
