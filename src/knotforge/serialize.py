"""JSON schema for curves and the re-verification of stored files.

Schema (key order is fixed so output is byte-stable):

    {
      "N": 3,
      "epsilon": "1/4" | null,
      "nodes": ["1/8", ...] | null,
      "x": {"basis": "monomial", "coeffs": ["0", "-3", "0", "1"]},
      "y": {"basis": "T", "coeffs": ["0", "0", "127/64", "0", "-1"]},
      "z": {"basis": "T", ...} | null,
      "crossings": [{"u": "lo..hi", "s": -1.73, "t": 1.73, "sign": -1}, ...],
      "certified": true
    }

Rationals serialize as "p/q" ("p" when q = 1); the crossing abscissa is
an exact isolating interval "lo..hi".  `verify_curve` recomputes every
certificate from the stored x, y (and z, nodes when present) rather than
trusting any stored flags.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional, Union

from . import chebyshev as cb
from .errors import KnotforgeError, NotInImage, OrderingViolation, SignViolation
from .exactpoly import Poly, SturmChain, count_roots, parse_rat, rat_str
from .knots import (
    Crossing,
    CrossingReport,
    NodeSet,
    PlaneCurve,
    SpaceCurve,
    crossings as compute_crossings,
    plane_degree,
    verify_space,
)


class SchemaError(KnotforgeError, ValueError):
    """The JSON document does not match the curve schema."""


def _dense(items: list[tuple[int, Fraction]]) -> list[str]:
    deg = items[-1][0] if items else 0
    row = [Fraction(0)] * (deg + 1)
    for k, c in items:
        row[k] = c
    return [rat_str(c) for c in row]


def basis_to_json(obj: Union[Poly, cb.ChebT, cb.ChebV]) -> dict[str, Any]:
    if isinstance(obj, Poly):
        return {"basis": "monomial", "coeffs": [rat_str(c) for c in obj.coeffs] or ["0"]}
    if isinstance(obj, cb.ChebT):
        return {"basis": "T", "coeffs": _dense(list(obj.items))}
    if isinstance(obj, cb.ChebV):
        return {"basis": "V", "coeffs": _dense(list(obj.items))}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _rat_from_json(s: Any, what: str) -> Fraction:
    """Parse one rational string of a document, or raise SchemaError."""
    if not isinstance(s, str):
        raise SchemaError(f"{what} must be a rational string, got {type(s).__name__}")
    try:
        return parse_rat(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad {what} {s!r}: {exc}") from exc


def basis_from_json(d: Any) -> Union[Poly, cb.ChebT, cb.ChebV]:
    if not isinstance(d, dict) or "basis" not in d or "coeffs" not in d:
        raise SchemaError("coefficient object needs 'basis' and 'coeffs'")
    if not isinstance(d["coeffs"], list):
        raise SchemaError("'coeffs' must be a list of rational strings")
    coeffs = [_rat_from_json(c, "coefficient") for c in d["coeffs"]]
    basis = d["basis"]
    if basis == "monomial":
        return Poly(coeffs)
    if basis == "T":
        return cb.ChebT.of(dict(enumerate(coeffs)))
    if basis == "V":
        return cb.ChebV.of(dict(enumerate(coeffs)))
    raise SchemaError(f"unknown basis tag {basis!r}")


def _crossing_to_json(c: Crossing) -> dict[str, Any]:
    return {
        "u": f"{rat_str(c.u_lo)}..{rat_str(c.u_hi)}",
        "s": c.s,
        "t": c.t,
        "sign": c.sign,
    }


def curve_to_dict(
    n_crossings: int,
    x: Poly,
    y: cb.ChebT,
    z: Optional[cb.ChebT],
    report: Optional[CrossingReport],
    certified: bool,
) -> dict[str, Any]:
    """Assemble the schema dict; key order is part of the contract."""
    return {
        "N": n_crossings,
        "epsilon": rat_str(report.epsilon) if report and report.epsilon is not None else None,
        "nodes": [rat_str(d) for d in report.nodes] if report and report.nodes is not None else None,
        "x": basis_to_json(x),
        "y": basis_to_json(y),
        "z": basis_to_json(z) if z is not None else None,
        "crossings": [_crossing_to_json(c) for c in report.crossings] if report else [],
        "certified": certified,
    }


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def save_curve(path: str, doc: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load_curve(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def verify_curve(doc: dict[str, Any]) -> tuple[bool, list[str]]:
    """Re-derive every certificate of a stored curve from scratch.

    Returns (ok, report lines).  Checks, in order: schema shape, where
    any malformed field (N not an odd integer, a coefficient, node or
    epsilon that is not a rational string, nodes outside 0 < d_1 < ... <
    d_n < 1) raises SchemaError; x is exactly the monic degree-3 cosine
    polynomial; the divided-difference image R of y has exactly N roots
    in (-2, 2) (Sturm); stored nodes number (N - 1) / 2 and are exact
    roots of R; the crossing parameters are ordered with margin > 1e-8
    and the x/y coincidences hold below 1e-9; and when z is present, the
    crossing signs alternate (exactly at stored rational nodes, in
    scaled-precision decimals otherwise).
    """
    lines: list[str] = []

    def fail(msg: str) -> tuple[bool, list[str]]:
        lines.append(f"FAIL {msg}")
        return False, lines

    if not isinstance(doc, dict):
        raise SchemaError("document is not an object")
    for key in ("N", "x", "y"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    n_crossings = doc["N"]
    if (not isinstance(n_crossings, int) or isinstance(n_crossings, bool)
            or n_crossings < 1 or n_crossings % 2 == 0):
        raise SchemaError("N must be an odd positive integer")
    x = basis_from_json(doc["x"])
    if isinstance(x, (cb.ChebT, cb.ChebV)):
        x = x.to_poly()
    y = basis_from_json(doc["y"])
    if isinstance(y, Poly):
        y = cb.to_T(y)
    elif isinstance(y, cb.ChebV):
        raise SchemaError("y must be in the T or monomial basis")
    z = None
    if doc.get("z") is not None:
        z = basis_from_json(doc["z"])
        if isinstance(z, Poly):
            z = cb.to_T(z)
        elif isinstance(z, cb.ChebV):
            raise SchemaError("z must be in the T or monomial basis")
    epsilon = doc.get("epsilon")
    if epsilon is not None:
        epsilon = _rat_from_json(epsilon, "epsilon")
    nodes = None
    if doc.get("nodes") is not None:
        if not isinstance(doc["nodes"], list):
            raise SchemaError("nodes must be a list of rational strings or null")
        delta = tuple(sorted(_rat_from_json(s, "node") for s in doc["nodes"]))
        try:
            nodes = NodeSet(len(delta), delta, epsilon)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc

    if x != cb.t_poly(3):
        return fail("x is not the monic degree-3 cosine polynomial t^3 - 3t")
    lines.append("ok   x = T_3")

    r = cb.divided_difference(y)
    r_poly = cb.from_V(r)
    if r_poly.is_zero:
        return fail("divided-difference image of y is zero")
    chain = SturmChain(r_poly)
    count = count_roots(chain, Fraction(-2), Fraction(2))
    if count != n_crossings:
        return fail(f"R has {count} roots in (-2, 2), expected {n_crossings}")
    lines.append(f"ok   R has exactly {n_crossings} roots in (-2, 2) [Sturm]")

    if nodes is not None:
        if 2 * nodes.n + 1 != n_crossings:
            return fail(f"{nodes.n} stored nodes give {2 * nodes.n + 1} planted roots, "
                        f"expected {n_crossings}")
        for u in nodes.all_roots():
            if r_poly(u) != 0:
                return fail(f"stored node {rat_str(u)} is not a root of R")
        lines.append("ok   all stored nodes are exact roots of R")

    try:
        report = compute_crossings(chain, n_crossings)
    except OrderingViolation as exc:
        return fail(f"ordering: {exc}")
    lines.append(f"ok   parameter ordering holds (margin {report.ordering_margin:.3e})")

    if z is None:
        lines.append("note z absent: plane diagram only, sign checks skipped")
        coincidence = _plane_coincidence(y, report)
        if coincidence >= 1e-9:
            return fail(f"y coincidence residual {coincidence:.3e} >= 1e-9")
        lines.append(f"ok   x/y coincide at all crossings (max residual {coincidence:.3e})")
        return True, lines

    a_coeffs = tuple()
    plane = PlaneCurve(x, y, r, a_coeffs)
    curve = SpaceCurve(plane, z, tuple())
    try:
        completed = verify_space(curve, report, nodes)
    except (SignViolation, NotInImage, KnotforgeError) as exc:
        return fail(f"space verification: {exc}")
    lines.append(
        f"ok   x/y coincide at all crossings "
        f"(residuals x {completed.x_coincidence:.3e}, y {completed.y_coincidence:.3e})"
    )
    lines.append(
        f"ok   crossing signs alternate (-1)^i (margin {completed.sign_margin:.3e})"
        + (" [exact at planted nodes]" if nodes is not None else "")
    )
    if y.degree != plane_degree(n_crossings):
        lines.append(f"note deg y = {y.degree} (canonical synthesized degree is "
                     f"{plane_degree(n_crossings)})")
    return True, lines


def _plane_coincidence(y: cb.ChebT, report: CrossingReport) -> float:
    """Max |y(s_i) - y(t_i)| over the crossings, in scaled-precision decimals."""
    from decimal import Decimal, localcontext

    mag = sum(abs(float(v)) for _, v in y.items) + 1.0
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 40 + len(str(int(mag)))
        for cr in report.crossings:
            u = cr.u_lo / 2 + cr.u_hi / 2
            ud = Decimal(u.numerator) / Decimal(u.denominator)
            disc = (Decimal(12) - 3 * ud * ud).sqrt()
            s, t = (ud - disc) / 2, (ud + disc) / 2
            worst = max(worst, abs(float(cb.eval_T_decimal(y, t) - cb.eval_T_decimal(y, s))))
    return worst
