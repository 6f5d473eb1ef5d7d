"""Certified polynomial parametrizations of (2,N) torus knots.

For every odd N the package synthesizes an explicit space curve
(x(t), y(t), z(t)) of degree (3, N + 2*floor(N/4) + 1, N + 2*floor((N+1)/4))
whose plane projection has exactly N double points with torus-knot
crossing structure, and certifies every claim with exact rational
arithmetic (Descartes root isolation and counts, exact linear solves, exact
interpolation identities).  Floats appear only in reports and rendering.
"""

from .chebyshev import (
    ChebT,
    ChebV,
    divided_difference,
    eps,
    lift_from_V,
    t_poly,
    to_T,
    to_V,
    v_poly,
    w_index,
    wtilde_index,
)
from .errors import (
    CertificationFailed,
    EpsilonExhausted,
    InternalInconsistency,
    KnotforgeError,
    NotInImage,
    SingularSystem,
    ZeroPolynomial,
)
from .exactpoly import (
    LocatedRoots,
    Poly,
    Rational,
    locate_roots,
    rat_str,
)
from .knots import (
    CnBasis,
    Crossing,
    CrossingReport,
    NodeSet,
    PlaneCurve,
    SpaceCurve,
    build_cn,
    certify,
    crossing_oracle,
    crossings,
    planted_factor,
    solve_deformation,
    solve_height,
    synthesize,
)
from .pade import PadeApproximant, pade
from .stieltjes import phi, phi_coefficients

__version__ = "0.1.0"

__all__ = [
    "ChebT", "ChebV", "divided_difference", "eps", "lift_from_V", "t_poly",
    "to_T", "to_V", "v_poly", "w_index", "wtilde_index",
    "CertificationFailed", "EpsilonExhausted", "InternalInconsistency", "KnotforgeError",
    "NotInImage", "SingularSystem", "ZeroPolynomial",
    "LocatedRoots", "Poly", "Rational", "locate_roots", "rat_str",
    "CnBasis", "Crossing", "CrossingReport", "NodeSet",
    "PlaneCurve", "SpaceCurve", "build_cn", "certify",
    "crossing_oracle", "crossings",
    "planted_factor", "solve_deformation", "solve_height",
    "synthesize",
    "PadeApproximant", "pade", "phi", "phi_coefficients",
    "__version__",
]
