"""SVG and CSV rendering of stored curves.

The SVG draws the (x, y) projection as polyline segments; at every
crossing the strand that passes underneath (decided by the stored sign:
+1 means the later parameter t_i runs on top) is interrupted by a small
parameter-space gap, which is the usual knot-diagram convention.  A
curve without height data renders as one unbroken polyline.

Both formats share one sampler: it builds the t grid on T_RANGE once and
evaluates each coordinate over the whole grid in one pass
(`Poly.eval_float`, `chebyshev.eval_T_float`, where y and z share one
recurrence), converting every coefficient to a double once.  Each sample
takes the same double operations in the same order as a one-point
evaluation, so the bytes written do not depend on the grid form.  A
sampled value that is not finite, or an SVG frame whose span or scale is
not, is a `SchemaError` (exit 1 in the CLI) rather than a `nan`/`inf` in
the output.  The gap test walks the ascending grid and the sorted
under-parameters together.  One `%` formats each CSV body and polyline.

Floating-point evaluation is fine here: rendering is diagnostics, and
certification never flows through this module.
"""

from __future__ import annotations

import math
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


def _sample(curve: StoredCurve, samples: int, heights: bool) -> tuple[list[float], ...]:
    """The t grid and the x, y (and, with `heights`, z) columns, each checked finite."""
    lo, hi = T_RANGE
    span, last = hi - lo, samples - 1
    ts = [lo + span * i / last for i in range(samples)]
    series = (curve.y, curve.z) if heights and curve.z is not None else (curve.y,)
    columns = {"x": curve.x.eval_float(ts)}
    columns.update(zip("yz", cb.eval_T_float(series, ts)))
    for name, values in columns.items():
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"a {name} value is beyond the double range on [{lo}, {hi}]")
    return (ts, *columns.values())


def _axis(name: str, values: list[float], size: float) -> tuple[float, float]:
    """Padded lower end and scale that map `values` onto [0, size]."""
    lo, hi = min(values), max(values)
    pad = 0.05 * (hi - lo or 1.0)
    v0, v1 = lo - pad, hi + pad
    if v1 == v0:  # a flat range far from 0 absorbs that pad in rounding
        pad = 0.05 * abs(lo)
        v0, v1 = lo - pad, hi + pad
    scale = size / (v1 - v0) if v1 > v0 else math.inf
    if not (math.isfinite(v1 - v0) and math.isfinite(scale)):
        raise SchemaError(f"the {name} range of the curve cannot be scaled in doubles")
    return v0, scale


def render_csv(doc: dict[str, Any], samples: int) -> str:
    curve = _plottable(doc)
    columns = _sample(curve, samples, heights=True)
    header = "t,x,y,z" if curve.z is not None else "t,x,y"
    flat = [0.0] * (len(columns) * samples)  # row by row: t, x, y(, z)
    for j, values in enumerate(columns):
        flat[j::len(columns)] = values
    row = ",".join(["%.12g"] * len(columns))
    body = "\n".join([row] * samples) % tuple(flat)
    return f"{header}\n{body}\n"


def _segments(ts: list[float], unders: list[float], gap: float) -> list[tuple[int, int]]:
    """Index ranges [start, stop) of two or more samples, none within `gap` of an
    under-parameter.  The two neighbours of t in `unders` decide, and on the
    ascending grid the first one >= t (`bisect_left`'s index) only moves up."""
    segments = []
    start, i, n = 0, 0, len(unders)
    for j, t in enumerate(ts):
        while i < n and unders[i] < t:
            i += 1
        if (i < n and abs(t - unders[i]) < gap) or (i > 0 and abs(t - unders[i - 1]) < gap):
            if j - start >= 2:
                segments.append((start, j))
            start = j + 1
    if len(ts) - start >= 2:
        segments.append((start, len(ts)))
    return segments


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

    width, height = 800.0, 600.0
    x0, sx = _axis("x", xs, width)
    y0, sy = _axis("y", ys, height)
    pixels = [0.0] * (2 * samples)  # x, y per sample; flip y so larger values render upward
    pixels[0::2] = [(x - x0) * sx for x in xs]
    pixels[1::2] = [height - (y - y0) * sy for y in ys]

    stroke = max(1.0, 0.004 * max(width, height))
    body = "\n".join(
        f'  <polyline fill="none" stroke="black" stroke-width="{stroke:.2f}" points="'
        + " ".join(["%.2f,%.2f"] * (stop - start)) % tuple(pixels[2 * start:2 * stop])
        + '"/>'
        for start, stop in _segments(ts, unders, gap)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f"{body}\n"
        "</svg>\n"
    )
