"""`knotforge.svg` against the row-at-a-time writers of `export_reference`.

The gap walk must cut the same polylines as bisection, and each written
document must be the same string, on random grids and curves.
"""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

import export_reference as ref
from knotforge import svg
from knotforge.serialize import SchemaError

T_LO, T_HI = svg.T_RANGE


def grid(samples: int) -> list[float]:
    return [T_LO + (T_HI - T_LO) * i / (samples - 1) for i in range(samples)]


# points inside and outside T_RANGE, the ends themselves and signed zeros
points = st.one_of(st.sampled_from([T_LO, T_HI, 0.0, -0.0, -2.0, 2.0]), st.floats(-3.0, 3.0))
gaps = st.one_of(st.sampled_from([0.0, svg.GAP_HALF_WIDTH, 1e-3]), st.floats(0.0, 0.5))


class TestSegments:
    @given(ts=st.lists(points, max_size=60).map(sorted),
           unders=st.lists(points, max_size=12).map(sorted), gap=gaps, data=st.data())
    @example(ts=[T_LO, T_HI], unders=[], gap=svg.GAP_HALF_WIDTH, data=None)
    @example(ts=[T_LO, T_HI], unders=[T_LO], gap=svg.GAP_HALF_WIDTH, data=None)
    @example(ts=grid(9), unders=[-1.1, -1.1, 0.55], gap=0.0, data=None)
    @example(ts=[-1.0, -1.0, 0.0, 0.0, 1.0], unders=[-1.0, 0.0], gap=0.5, data=None)
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_bisection(self, ts, unders, gap, data):
        if data is not None and ts:
            # under-parameters that fall exactly on samples
            unders = sorted(unders + data.draw(st.lists(st.sampled_from(ts), max_size=3)))
        got = [list(range(start, stop)) for start, stop in svg._segments(ts, unders, gap)]
        assert got == ref.segments(ts, unders, gap)

    @given(samples=st.integers(2, 80), unders=st.lists(points, max_size=12).map(sorted),
           gap=gaps)
    @settings(max_examples=200, deadline=None)
    def test_walk_matches_bisection_on_the_export_grid(self, samples, unders, gap):
        ts = grid(samples)
        got = [list(range(start, stop)) for start, stop in svg._segments(ts, unders, gap)]
        assert got == ref.segments(ts, unders, gap)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=64)
signs = st.sampled_from([-1, 1, 1, -1, None])


def series(basis: str, min_size: int = 0) -> st.SearchStrategy:
    return st.lists(rationals, min_size=min_size, max_size=16).map(
        lambda cs: {"basis": basis, "coeffs": [str(c) for c in cs]})


@st.composite
def exports(draw) -> tuple[dict, int]:
    """A small curve document and a sample count; the crossings fall near,
    on and between samples, so that gaps cut, merge and miss."""
    samples = draw(st.integers(2, 60))
    near = st.tuples(st.sampled_from(grid(samples)), st.sampled_from([0.0, 0.0, 0.01, -0.03]))
    at = st.one_of(points, near.map(sum))
    crossing = st.fixed_dictionaries({"s": at, "t": at, "sign": signs})
    doc = {
        "N": draw(st.sampled_from([1, 3, 5, 9])),
        # the x of every `gen` curve, a series-basis x and random cubics
        "x": draw(st.one_of(
            st.just({"basis": "monomial", "coeffs": ["0", "-3", "0", "1"]}),
            series("monomial", 1), series("T", 1), series("V", 1))),
        "y": draw(series("T", 1)),
        "z": draw(st.one_of(series("T"), st.none())),
        "crossings": draw(st.lists(crossing, max_size=9)),
    }
    return doc, samples


def outcome(render, doc: dict, samples: int) -> tuple[str, str]:
    try:
        return "ok", render(doc, samples)
    except SchemaError as exc:
        return "error", str(exc)


class TestWriters:
    @given(export=exports())
    @example(export=({"N": 1, "x": {"basis": "monomial", "coeffs": ["0", "-3", "0", "1"]},
                  "y": {"basis": "T", "coeffs": ["0", "0", "2", "0", "-1"]},
                  "z": {"basis": "T", "coeffs": ["0", "-1"]},
                  "crossings": [{"s": -1.0, "t": 1.0, "sign": 1},
                                {"s": 0.5, "t": 0.5, "sign": -1}]}, 2))
    @settings(max_examples=150, deadline=None)
    def test_csv_matches_the_row_writer(self, export):
        doc, samples = export
        assert outcome(svg.render_csv, doc, samples) == outcome(ref.render_csv, doc, samples)

    @given(export=exports())
    @example(export=({"N": 3, "x": {"basis": "monomial", "coeffs": ["0", "-3", "0", "1"]},
                  "y": {"basis": "T", "coeffs": ["1", "0", "2", "0", "-1"]},
                  "z": {"basis": "T", "coeffs": ["0", "-1", "0", "1/3"]},
                  "crossings": [{"s": -1.7, "t": 1.7, "sign": 1}, {"s": 0.0, "t": 0.0, "sign": -1},
                                {"s": -0.2, "t": 2.5, "sign": -1}]}, 21))
    @settings(max_examples=150, deadline=None)
    def test_svg_matches_the_point_writer(self, export):
        doc, samples = export
        assert outcome(svg.render_svg, doc, samples) == outcome(ref.render_svg, doc, samples)

    def test_constant_x_and_y_frame(self):
        # a zero span pads by 1.0 on both axes
        doc = {"N": 1, "x": {"basis": "monomial", "coeffs": [str(F(1, 3))]},
               "y": {"basis": "T", "coeffs": ["2"]}, "z": None, "crossings": []}
        for samples in (2, 3, 60):
            assert svg.render_svg(doc, samples) == ref.render_svg(doc, samples)
            assert svg.render_csv(doc, samples) == ref.render_csv(doc, samples)
