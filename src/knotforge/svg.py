"""SVG and CSV rendering of stored curves.

The SVG draws the (x, y) projection as polyline segments; at every
crossing the strand that passes underneath (decided by the stored sign:
+1 means the later parameter t_i runs on top) is interrupted by a small
parameter-space gap, which is the usual knot-diagram convention.  A
curve without height data renders as one unbroken polyline.

Floating-point evaluation is fine here: rendering is diagnostics, and
certification never flows through this module.
"""

from __future__ import annotations

from typing import Any, Optional

from . import chebyshev as cb
from .serialize import SchemaError, StoredCurve, parse_curve

T_RANGE = (-2.2, 2.2)
GAP_HALF_WIDTH = 0.05


def _plottable(doc: Any) -> StoredCurve:
    """`parse_curve`, and every coefficient must convert to a double."""
    curve = parse_curve(doc)
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


def render_csv(doc: dict[str, Any], samples: int) -> str:
    curve = _plottable(doc)
    x, y, z = curve.x, curve.y, curve.z
    lo, hi = T_RANGE
    cols = "t,x,y,z" if z is not None else "t,x,y"
    rows = [cols]
    for i in range(samples):
        t = lo + (hi - lo) * i / (samples - 1)
        vals = [t, x.eval_float(t), cb.eval_T_float(y, t)]
        if z is not None:
            vals.append(cb.eval_T_float(z, t))
        rows.append(",".join(f"{v:.12g}" for v in vals))
    return "\n".join(rows) + "\n"


def render_svg(doc: dict[str, Any], samples: int, gap: Optional[float] = None) -> str:
    """Render the plane projection with over/under gaps at the crossings."""
    curve = _plottable(doc)
    x, y, z = curve.x, curve.y, curve.z
    lo, hi = T_RANGE
    ts = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    pts = [(x.eval_float(t), cb.eval_T_float(y, t)) for t in ts]
    unders = _under_parameters(curve.crossings) if z is not None else []
    if gap is None:
        # keep distinct gaps from merging: cap the half-width at a third of
        # the closest spacing between under-parameters
        gap = GAP_HALF_WIDTH
        if len(unders) > 1:
            spaced = sorted(unders)
            closest = min(b - a for a, b in zip(spaced, spaced[1:]))
            gap = min(gap, closest / 3.0)

    # split the parameter line into segments, cutting a gap around each
    # under-parameter; overlapping gaps merge on their own
    segments: list[list[tuple[float, float]]] = []
    current: list[tuple[float, float]] = []
    for t, p in zip(ts, pts):
        if any(abs(t - u) < gap for u in unders):
            if len(current) >= 2:
                segments.append(current)
            current = []
        else:
            current.append(p)
    if len(current) >= 2:
        segments.append(current)

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad_x = 0.05 * (x1 - x0 or 1.0)
    pad_y = 0.05 * (y1 - y0 or 1.0)
    x0, x1 = x0 - pad_x, x1 + pad_x
    y0, y1 = y0 - pad_y, y1 + pad_y
    width, height = 800.0, 600.0
    sx = width / (x1 - x0)
    sy = height / (y1 - y0)

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
