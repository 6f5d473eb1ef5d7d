"""Row-at-a-time export writers: the reference `knotforge.svg` must reproduce.

`knotforge.svg` evaluates y and z on one shared Chebyshev recurrence,
formats each document with one `%` and finds the SVG gaps by a walk over
the ascending grid.  These are the writers it replaced: one series and one
point at a time, one row or point per format call, and the two
under-parameters next to each sample found by bisection.
"""

import math
from bisect import bisect_left

from knotforge.chebyshev import ChebT
from knotforge.exactpoly import Poly
from knotforge.serialize import SchemaError
from knotforge.svg import GAP_HALF_WIDTH, T_RANGE, _axis, _plottable, _under_parameters


def eval_T_float_at(c: ChebT, x: float) -> float:
    """The one-point recurrence the grid evaluator must reproduce."""
    items = c.items
    if not items:
        return 0.0
    kmax = items[-1][0]
    coeffs = dict(c.items)
    t0, t1 = 2.0, x
    tot = float(coeffs.get(0, 0)) * t0 + float(coeffs.get(1, 0)) * t1
    for k in range(2, kmax + 1):
        t0, t1 = t1, x * t1 - t0
        ck = coeffs.get(k)
        if ck:
            tot += float(ck) * t1
    return tot


def poly_eval_float_at(p: Poly, x: float) -> float:
    """The one-point Horner the grid evaluator must reproduce."""
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + float(c)
    return acc


def sample(curve, samples: int, heights: bool) -> tuple[list[float], ...]:
    lo, hi = T_RANGE
    ts = [lo + (hi - lo) * i / (samples - 1) for i in range(samples)]
    columns = {"x": [poly_eval_float_at(curve.x, t) for t in ts],
               "y": [eval_T_float_at(curve.y, t) for t in ts]}
    if heights and curve.z is not None:
        columns["z"] = [eval_T_float_at(curve.z, t) for t in ts]
    for name, values in columns.items():
        if not all(map(math.isfinite, values)):
            raise SchemaError(f"a {name} value is beyond the double range on [{lo}, {hi}]")
    return (ts, *columns.values())


def segments(ts: list[float], unders: list[float], gap: float) -> list[list[int]]:
    """The sample indices of each polyline, cut around every under-parameter."""

    def in_gap(t: float) -> bool:
        i = bisect_left(unders, t)
        return ((i < len(unders) and abs(t - unders[i]) < gap)
                or (i > 0 and abs(t - unders[i - 1]) < gap))

    out: list[list[int]] = []
    current: list[int] = []
    for j, t in enumerate(ts):
        if in_gap(t):
            if len(current) >= 2:
                out.append(current)
            current = []
        else:
            current.append(j)
    if len(current) >= 2:
        out.append(current)
    return out


def render_csv(doc, samples: int) -> str:
    curve = _plottable(doc)
    columns = sample(curve, samples, heights=True)
    header = "t,x,y,z" if curve.z is not None else "t,x,y"
    row = ",".join(["%.12g"] * len(columns))
    return "\n".join([header, *(row % values for values in zip(*columns))]) + "\n"


def render_svg(doc, samples: int) -> str:
    curve = _plottable(doc)
    ts, xs, ys = sample(curve, samples, heights=False)
    unders = sorted(_under_parameters(curve.crossings)) if curve.z is not None else []
    gap = GAP_HALF_WIDTH
    if len(unders) > 1:
        closest = min(b - a for a, b in zip(unders, unders[1:]))
        gap = min(gap, closest / 3.0)
    cuts = segments(ts, unders, gap)

    width, height = 800.0, 600.0
    x0, sx = _axis("x", xs, width)
    y0, sy = _axis("y", ys, height)

    def tx(j: int) -> str:
        return f"{(xs[j] - x0) * sx:.2f},{(height - (ys[j] - y0) * sy):.2f}"

    stroke = max(1.0, 0.004 * max(width, height))
    body = "\n".join(
        f'  <polyline fill="none" stroke="black" stroke-width="{stroke:.2f}" '
        f'points="{" ".join(tx(j) for j in seg)}"/>'
        for seg in cuts
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f"{body}\n"
        "</svg>\n"
    )
