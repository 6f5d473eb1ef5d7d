"""The deformation and height solved in the C and Ct bases, as the paper states them.

`knots.solve_deformation` and `knots.solve_height` solve the same problems
with the planted roots factored out; these n x n and (n + 1) x (n + 1)
solves are the reference they are tested against.
"""

from fractions import Fraction

from knotforge.exactpoly import Poly, solve_linear


def reference_deformation(basis, nodes):
    """The unique A = C_n + sum_{k<n} a_k C_k vanishing at the nodes: (a, A)."""
    n = nodes.n
    if n == 0:
        return (), basis.cn[0]
    matrix = [[basis.cn[k](d) for k in range(n)] for d in nodes.delta]
    rhs = [-basis.cn[n](d) for d in nodes.delta]
    a = solve_linear(matrix, rhs)
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
    b = solve_linear(matrix, rhs)
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
