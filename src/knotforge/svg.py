"""SVG and CSV rendering of stored curves.

The SVG draws the (x, y) projection as polyline segments; at every
crossing the strand that passes underneath (decided by the stored sign:
+1 means the later parameter t_i runs on top) is interrupted by a small
parameter-space gap, which is the usual knot-diagram convention.  A
curve without height data renders as one unbroken polyline.

Both formats share one sampler: it builds the t grid on T_RANGE once and
evaluates each coordinate over the whole grid in one pass
(`Poly.eval_float`, `chebyshev.eval_T_float`), converting every
coefficient to a double once.  Each sample takes the same double
operations in the same order as a one-point evaluation, so the bytes
written do not depend on the grid form.  A sampled value that is not
finite, or an SVG frame whose span or scale is not, is a `SchemaError`
(exit 1 in the CLI) rather than a `nan`/`inf` in the output.  The gap
test finds the two under-parameters next to each sample by bisection.

Floating-point evaluation is fine here: rendering is diagnostics, and
certification never flows through this module.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import replace
from typing import Any, Optional

from . import chebyshev as cb
from .exactpoly import Poly
from .serialize import SchemaError, StoredCurve, parse_curve

T_RANGE = (-2.2, 2.2)
GAP_HALF_WIDTH = 0.05


def _plottable(doc: Any) -> StoredCurve:
    """`parse_curve` with x on the monomial basis, and every coefficient must convert to a double."""
    curve = parse_curve(doc)
    if not isinstance(curve.x, Poly):
        curve = replace(curve, x=curve.x.to_poly())
    coordinates = {"x": curve.x.coeffs, "y": [c for _, c in curve.y.items]}
    if curve.z is not None:
        coordinates["z"] = [c for _, c in curve.z.items]
    for name, coeffs in coordinates.items():
        try:
            for c in coeffs:
                float(c)
        except OverflowError:
            raise SchemaError(f"a {name} coefficient is beyond the double range") from None
    return curve


def _under_parameters(crossings: tuple[tuple[float, float, Optional[int]], ...]) -> list[float]:
    """Parameter values where the strand goes under (one per signed crossing)."""
    # sign = sgn(z(t) - z(s)); positive means t-strand on top, s-strand under
    return [s if sign > 0 else t for s, t, sign in crossings if sign is not None]


def _sample(curve: StoredCurve, samples: int, heights: bool) -> tuple[list[float], ...]:
    """The t grid and the x, y (and, with `heights`, z) columns, each checked finite."""
    lo, hi = T_RANGE
    ts = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    columns = {"x": curve.x.eval_float(ts), "y": cb.eval_T_float(curve.y, ts)}
    if heights and curve.z is not None:
        columns["z"] = cb.eval_T_float(curve.z, ts)
    for name, values in columns.items():
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"a {name} value is beyond the double range on [{lo}, {hi}]")
    return (ts, *columns.values())


def _axis(name: str, values: list[float], size: float) -> tuple[float, float]:
    """Padded lower end and scale that map `values` onto [0, size]."""
    v0, v1 = min(values), max(values)
    pad = 0.05 * (v1 - v0 or 1.0)
    v0, v1 = v0 - pad, v1 + pad
    scale = size / (v1 - v0)
    if not (math.isfinite(v1 - v0) and math.isfinite(scale)):
        raise SchemaError(f"the {name} range of the curve cannot be scaled in doubles")
    return v0, scale


def render_csv(doc: dict[str, Any], samples: int) -> str:
    curve = _plottable(doc)
    columns = _sample(curve, samples, heights=True)
    header = "t,x,y,z" if curve.z is not None else "t,x,y"
    row = ",".join(["%.12g"] * len(columns))
    return "\n".join([header, *(row % values for values in zip(*columns))]) + "\n"


def render_svg(doc: dict[str, Any], samples: int) -> str:
    """Render the plane projection with over/under gaps at the crossings."""
    curve = _plottable(doc)
    ts, xs, ys = _sample(curve, samples, heights=False)
    unders = sorted(_under_parameters(curve.crossings)) if curve.z is not None else []
    # keep distinct gaps from merging: cap the half-width at a third of
    # the closest spacing between under-parameters
    gap = GAP_HALF_WIDTH
    if len(unders) > 1:
        closest = min(b - a for a, b in zip(unders, unders[1:]))
        gap = min(gap, closest / 3.0)

    def in_gap(t: float) -> bool:
        # |t - u| grows with the distance of u from t on either side, so the
        # two neighbours of t in the sorted list decide
        i = bisect_left(unders, t)
        return ((i < len(unders) and abs(t - unders[i]) < gap)
                or (i > 0 and abs(t - unders[i - 1]) < gap))

    # split the parameter line into segments, cutting a gap around each
    # under-parameter; overlapping gaps merge on their own
    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for t, p in zip(ts, zip(xs, ys)):
        if in_gap(t):
            if len(current) >= 2:
                segments.append(current)
            current = []
        else:
            current.append(p)
    if len(current) >= 2:
        segments.append(current)

    width, height = 800.0, 600.0
    x0, sx = _axis("x", xs, width)
    y0, sy = _axis("y", ys, height)

    def tx(p: tuple[float, float]) -> str:
        # flip y so larger values render upward
        return f"{(p[0] - x0) * sx:.2f},{(height - (p[1] - y0) * sy):.2f}"

    stroke = max(1.0, 0.004 * max(width, height))
    body = "\n".join(
        f'  <polyline fill="none" stroke="black" stroke-width="{stroke:.2f}" '
        f'points="{" ".join(tx(p) for p in seg)}"/>'
        for seg in segments
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f"{body}\n"
        "</svg>\n"
    )
