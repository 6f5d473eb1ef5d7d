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

Rationals serialize as "p/q" ("p" when q = 1), and only that form is read
back; the crossing abscissa is an exact isolating interval "lo..hi".
`parse_curve` is the one reader of documents, for `verify` and `export`.
Integers past Python's string-conversion digit limit are written and read
under `digit_budget(N)`.
`verify_curve` re-certifies a stored x, y (and z, nodes when present)
with `knots.certify`, the routine `gen` runs, and trusts no stored flag.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
from fractions import Fraction
from typing import Any, NamedTuple, Optional, Union

from . import chebyshev as cb
from .errors import CertificationFailed, KnotforgeError
from .exactpoly import Poly, rat_str
from .knots import CERTIFY_STAGES, Crossing, CrossingReport, NodeSet, certify, plane_degree

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_ZERO = re.compile(r"-?0+(?:/0*[1-9][0-9]*)?")  # a rational string of value 0
# The most digits `digit_budget` lets an integer have, whatever N a file claims.
DIGITS_CAP = 100_000


class SchemaError(KnotforgeError, ValueError):
    """The JSON document does not match the curve schema."""


@contextlib.contextmanager
def digit_budget(n_crossings: int):
    """Lift Python's limit on the digits of an int converted to or from a string
    to N^2 / 2, at most DIGITS_CAP, for a curve of N crossings; yield the limit in
    force (0 for none) and restore the old one on exit.

    z's numerators and denominators grow with N (about 1,556 digits at
    N = 101, 3,144 at 151 and 4,201 at 173), past CPython's default limit
    of 4,300 from N = 175.  The limit is only raised, never lowered: at
    small N, or where it is off (0) or absent (a Python without
    `sys.set_int_max_str_digits`), nothing changes.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    old = get() if get is not None else 0
    limit = max(old, min(n_crossings * n_crossings // 2, DIGITS_CAP)) if old else 0
    if old:
        sys.set_int_max_str_digits(limit)
    try:
        yield limit
    finally:
        if old:
            sys.set_int_max_str_digits(old)


def _dense(items: list[tuple[int, Fraction]]) -> list[str]:
    row = ["0"] * ((items[-1][0] if items else 0) + 1)
    for k, c in items:
        row[k] = rat_str(c)
    return row


def basis_to_json(obj: Union[Poly, cb.ChebT, cb.ChebV]) -> dict[str, Any]:
    if isinstance(obj, Poly):
        return {"basis": "monomial", "coeffs": [rat_str(c) for c in obj.coeffs] or ["0"]}
    if isinstance(obj, cb.ChebT):
        return {"basis": "T", "coeffs": _dense(list(obj.items))}
    if isinstance(obj, cb.ChebV):
        return {"basis": "V", "coeffs": _dense(list(obj.items))}
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _clip(value: Any) -> str:
    """repr(value), or, past 64 characters, that of its first 32 characters and its length."""
    text = str(value)
    return repr(value) if len(repr(value)) <= 64 else f"{text[:32]!r}... ({len(text)} characters)"


def _rat_from_json(s: Any, what: str) -> Fraction:
    """Parse one rational string of a document, or raise SchemaError echoing it clipped."""
    if not isinstance(s, str):
        raise SchemaError(f"{what} must be a rational string, got {type(s).__name__}")
    match = _RATIONAL.fullmatch(s)
    if not match:
        raise SchemaError(f"bad {what} {_clip(s)}: expected p or p/q")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except ZeroDivisionError as exc:
        raise SchemaError(f"bad {what} {_clip(s)}: zero denominator") from exc
    except ValueError as exc:  # the only other failure the pattern leaves
        raise SchemaError(f"bad {what} {_clip(s)}: past the integer digit limit") from exc


def basis_from_json(d: Any) -> Union[Poly, cb.ChebT, cb.ChebV]:
    """Read a coefficient object's nonzero coefficients in index order, before its
    basis tag: an entry "0", about two thirds of a `gen` file's, makes no Fraction,
    and any other is read by `_rat_from_json` and dropped if zero."""
    if not isinstance(d, dict) or "basis" not in d or "coeffs" not in d:
        raise SchemaError("coefficient object needs 'basis' and 'coeffs'")
    if not isinstance(d["coeffs"], list):
        raise SchemaError("'coeffs' must be a list of rational strings")
    coeffs = [0 if c == "0" else _rat_from_json(c, "coefficient") for c in d["coeffs"]]
    basis = d["basis"]
    if basis == "monomial":
        return Poly(coeffs)
    items = tuple((k, c) for k, c in enumerate(coeffs) if c)
    if basis == "T":
        return cb.ChebT(items)
    if basis == "V":
        return cb.ChebV(items)
    raise SchemaError(f"unknown basis tag {_clip(basis)}")


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
    report: CrossingReport,
) -> dict[str, Any]:
    """Assemble the schema dict of a certified curve and its report, under
    `digit_budget(N)`; key order is part of the contract.

    An integer with more digits than that budget, which nodes with long
    denominators can give at small N, raises ValueError naming the limit:
    `verify` reads under the same budget, so it could not read the file.
    """
    with digit_budget(n_crossings) as limit:
        try:
            return {
                "N": n_crossings,
                "epsilon": rat_str(report.epsilon) if report.epsilon is not None else None,
                "nodes": [rat_str(d) for d in report.nodes] if report.nodes is not None else None,
                "x": basis_to_json(x),
                "y": basis_to_json(y),
                "z": basis_to_json(z) if z is not None else None,
                "crossings": [_crossing_to_json(c) for c in report.crossings],
                "certified": True,
            }
        except ValueError as exc:  # only int -> str conversion raises it here
            raise ValueError(f"an integer of the curve has more than {limit} digits, "
                             f"the digit limit for N = {n_crossings}") from exc


def dumps(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def load_curve(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class StoredCurve(NamedTuple):
    """The fields of a curve document, parsed and checked."""

    n_crossings: int
    bound: int  # min(N, len(y)): sets the degree cap 4 bound + 64 and `digit_budget`
    x: Poly  # a T or V series x is expanded to monomials
    y: cb.ChebT
    z: Optional[cb.ChebT]
    nodes: Optional[NodeSet]
    crossings: tuple[tuple[float, float, Optional[int]], ...]  # stored (s, t, sign)


def _is_finite_number(v: Any) -> bool:
    """True for a JSON number that converts to a finite float (not a bool, NaN or inf)."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _check_cap(name: str, degree: int, max_degree: int, cap: str) -> None:
    """SchemaError when a coordinate's degree is above max_degree, the cap that `cap` names."""
    if degree > max_degree:
        raise SchemaError(f"{name} has degree {degree}, above the cap {cap} = {max_degree}")


def _space_coordinate(d: Any, name: str, max_degree: int, cap: str) -> cb.ChebT:
    c = basis_from_json(d)
    if isinstance(c, cb.ChebV):
        raise SchemaError(f"{name} must be in the T or monomial basis")
    _check_cap(name, c.degree, max_degree, cap)
    return cb.to_T(c) if isinstance(c, Poly) else c


def parse_curve(doc: Any) -> StoredCurve:
    """Parse a curve document, or raise SchemaError naming the first bad field.

    N must be an odd positive integer; every coefficient, node and epsilon
    a rational string; the nodes satisfy 0 < d_1 < ... < d_n < 1; x, y
    and z have degree at most 4N + 64 (a `gen` curve has 3 and about
    1.5N), which bounds the work of `verify` and `export`; x is given in
    the T, V or monomial basis and expanded to monomials once, here; y
    and z are given in the T or monomial basis; and each stored crossing
    is an object with numeric "s" and "t" and a "sign" of -1, 1 or null.
    N is read first, and the rest under `digit_budget(N)`.  An N above
    len(y), the count of y's coefficients up to its last nonzero one (however
    its zeros are spelled), can only fail the count (R = dd(y) has fewer
    roots), so there len(y) takes its place in the cap and budget.
    """
    if not isinstance(doc, dict):
        raise SchemaError("document is not an object")
    for key in ("N", "x", "y"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    n_crossings = doc["N"]
    if (not isinstance(n_crossings, int) or isinstance(n_crossings, bool)
            or n_crossings < 1 or n_crossings % 2 == 0):
        raise SchemaError("N must be an odd positive integer")
    ys = doc["y"].get("coeffs") if isinstance(doc["y"], dict) else None
    len_y = n_crossings
    if isinstance(ys, list):
        len_y = len(ys)
        while len_y and isinstance(ys[len_y - 1], str) and _ZERO.fullmatch(ys[len_y - 1]):
            len_y -= 1
    bound, cap = (len_y, "4 len(y) + 64") if len_y < n_crossings else (n_crossings, "4N + 64")
    with digit_budget(bound):
        max_degree = 4 * bound + 64
        x = basis_from_json(doc["x"])
        _check_cap("x", x.degree, max_degree, cap)
        x = x if isinstance(x, Poly) else x.to_poly()
        y = _space_coordinate(doc["y"], "y", max_degree, cap)
        z = _space_coordinate(doc["z"], "z", max_degree, cap) if doc.get("z") is not None else None
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
        stored = doc.get("crossings")  # a missing key or null: none stored
        if stored is not None and not isinstance(stored, list):
            raise SchemaError("crossings must be a list of objects")
        crossings = []
        for i, c in enumerate(stored or (), start=1):
            if not isinstance(c, dict):
                raise SchemaError(f"crossing {i} is not an object")
            if not (_is_finite_number(c.get("s")) and _is_finite_number(c.get("t"))):
                raise SchemaError(f"crossing {i} needs finite numeric 's' and 't'")
            sign = c.get("sign")
            if sign is not None and (isinstance(sign, bool) or sign not in (-1, 1)):
                raise SchemaError(f"crossing {i} has sign {_clip(sign)}, expected -1, 1 or null")
            crossings.append((float(c["s"]), float(c["t"]), sign))
        return StoredCurve(n_crossings, bound, x, y, z, nodes, tuple(crossings))


def verify_curve(doc: Any) -> tuple[bool, list[str]]:
    """Re-derive every certificate of a stored curve from scratch.

    Returns (ok, report lines).  `parse_curve` checks the schema first and
    raises SchemaError on any malformed field.  Then x must be exactly the
    monic degree-3 cosine polynomial, and `knots.certify` runs its exact
    stages on the stored y, z and nodes: R = dd(y) has exactly N roots in
    (-2, 2), none repeated (the count line's `[exact]` tag marks an exact
    count, made by Descartes' rule); stored nodes number (N - 1) / 2 and
    are exact roots of R; the crossing parameters are ordered (the
    printed float margin is a diagnostic); and when z is present, the
    crossing signs alternate.
    Each passed stage gives an "ok" line, and the failed one a "FAIL" line
    that ends the report.
    """
    curve = parse_curve(doc)
    if curve.x != cb.t_poly(3):
        return False, ["FAIL x is not the monic degree-3 cosine polynomial t^3 - 3t"]
    lines = ["ok   x = T_3"]
    n_crossings, z = curve.n_crossings, curve.z
    failure = None
    try:
        # a failure may name a node: the budget `parse_curve` read it under
        with digit_budget(curve.bound):
            report = certify(curve.y, z, n_crossings, curve.nodes)
    except CertificationFailed as exc:
        failure, report = exc, exc.report
    passed = CERTIFY_STAGES.index(failure.stage) if failure else len(CERTIFY_STAGES)
    if passed > 0:
        lines.append(f"ok   R has exactly {n_crossings} roots in (-2, 2) [exact]")
    if passed > 1 and curve.nodes is not None:
        lines.append("ok   all stored nodes are exact roots of R")
    if passed > 2:
        lines.append(f"ok   parameter ordering holds (margin {report.ordering_margin:.3e})")
        if z is None:
            lines.append("note z absent: plane diagram only, sign checks skipped")
    if failure is not None:
        prefix = {"ordering": "ordering: ", "space": "space verification: "}
        lines.append(f"FAIL {prefix.get(failure.stage, '')}{failure}")
        return False, lines
    if z is None:
        return True, lines
    lines.append("ok   crossing signs alternate (-1)^i [exact]")
    if curve.y.degree != plane_degree(n_crossings):
        lines.append(f"note deg y = {curve.y.degree} (canonical synthesized degree is "
                     f"{plane_degree(n_crossings)})")
    return True, lines
