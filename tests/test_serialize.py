import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from knotforge import exactpoly
from knotforge.cli import main as cli_main
from knotforge.chebyshev import ChebT, ChebV, t_poly, to_T
from knotforge.exactpoly import Poly, rat_str
from knotforge.knots import CrossingReport, synthesize
from knotforge.serialize import (
    DIGITS_CAP,
    SchemaError,
    _space_coordinate,
    basis_from_json,
    basis_to_json,
    curve_to_dict,
    digit_budget,
    dumps,
    parse_curve,
    verify_curve,
)


class TestBasisJson:
    def test_monomial_roundtrip(self):
        p = Poly([0, F(-3), 0, 1])
        d = basis_to_json(p)
        assert d == {"basis": "monomial", "coeffs": ["0", "-3", "0", "1"]}
        assert basis_from_json(d) == p

    def test_t_roundtrip(self):
        c = ChebT.of({2: F(127, 64), 4: -1})
        d = basis_to_json(c)
        assert d == {"basis": "T", "coeffs": ["0", "0", "127/64", "0", "-1"]}
        assert basis_from_json(d) == c

    def test_v_roundtrip(self):
        c = ChebV.of({0: F(1, 3), 4: F(-1, 3)})
        d = basis_to_json(c)
        assert d["basis"] == "V"
        assert basis_from_json(d) == c

    def test_zero_poly(self):
        assert basis_to_json(Poly()) == {"basis": "monomial", "coeffs": ["0"]}

    def test_unknown_basis_rejected(self):
        with pytest.raises(SchemaError):
            basis_from_json({"basis": "chebyshev-2nd", "coeffs": ["1"]})

    def test_bad_coefficient_rejected(self):
        with pytest.raises(SchemaError):
            basis_from_json({"basis": "T", "coeffs": ["1/0x"]})

    @given(st.fractions())
    def test_rat_str_roundtrip(self, x):
        assert basis_from_json({"basis": "monomial", "coeffs": [rat_str(x)]}) == Poly([x])


def old_reading(basis, strings):
    """The reader before zero entries were skipped: every entry a Fraction, then
    `ChebT.of` / `ChebV.of` dropping the zeros, or a dense `Poly`."""
    coeffs = [F(s) for s in strings]
    if basis == "monomial":
        return Poly(coeffs)
    return (ChebT if basis == "T" else ChebV).of(dict(enumerate(coeffs)))


ZERO_SPELLINGS = ["0", "-0", "00", "0/7", "-0/3"]
BASES = ["T", "V", "monomial"]


class TestZeroCoefficients:
    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("zero", ZERO_SPELLINGS)
    def test_zero_spellings_read_as_zero(self, basis, zero):
        for strings in ([zero], ["1", zero, "-2/3", zero], [zero, zero, "5", zero, zero]):
            got = basis_from_json({"basis": basis, "coeffs": strings})
            assert got == old_reading(basis, strings)
            assert got == basis_from_json({"basis": basis, "coeffs": [
                "0" if F(s) == 0 else s for s in strings]})

    @pytest.mark.parametrize("basis", [*BASES, "bogus"])
    @pytest.mark.parametrize("bad,message", [
        ("0/0", "bad coefficient '0/0': zero denominator"),
        (0, "coefficient must be a rational string, got int"),
        ("", "bad coefficient '': expected p or p/q"),
        (" 0", "bad coefficient ' 0': expected p or p/q"),
        ("+0", "bad coefficient '+0': expected p or p/q"),
        (None, "coefficient must be a rational string, got NoneType"),
    ])
    def test_failure_messages_are_unchanged(self, basis, bad, message):
        # the first bad entry is named, and before the basis tag is read
        for strings in ([bad], ["0", "1", bad, "0", "1/0"], ["0", bad, "x"]):
            with pytest.raises(SchemaError) as info:
                basis_from_json({"basis": basis, "coeffs": strings})
            assert str(info.value) == message

    @given(
        basis=st.sampled_from(BASES),
        strings=st.lists(st.one_of(
            st.sampled_from(ZERO_SPELLINGS),
            st.fractions(max_denominator=10**6).map(rat_str),
            st.tuples(st.integers(-99, 99), st.integers(1, 99)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
        ), max_size=12),
        cap=st.integers(0, 10),
    )
    def test_reader_matches_the_old_reading(self, basis, strings, cap):
        d = {"basis": basis, "coeffs": strings}
        expected = old_reading(basis, strings)
        assert basis_from_json(d) == expected
        # `_space_coordinate`'s checks see the same series, so they give the same verdict
        if basis == "V":
            with pytest.raises(SchemaError, match="must be in the T or monomial basis"):
                _space_coordinate(d, "y", cap, "4N + 64")
        elif expected.degree > cap:
            with pytest.raises(SchemaError) as info:
                _space_coordinate(d, "y", cap, "4N + 64")
            assert str(info.value) == (f"y has degree {expected.degree}, "
                                       f"above the cap 4N + 64 = {cap}")
        else:
            assert _space_coordinate(d, "y", cap, "4N + 64") == (
                to_T(expected) if basis == "monomial" else expected)


class TestCurveDict:
    def test_key_order_is_stable(self):
        curve, report = synthesize(3)
        doc = curve_to_dict(3, curve.plane.x, curve.plane.y, curve.z, report)
        assert list(doc.keys()) == ["N", "epsilon", "nodes", "x", "y", "z", "crossings", "certified"]
        assert doc["crossings"][0].keys() == {"u", "s", "t", "sign"}
        assert ".." in doc["crossings"][0]["u"]

    def test_dumps_deterministic(self):
        curve, report = synthesize(3)
        doc = curve_to_dict(3, curve.plane.x, curve.plane.y, curve.z, report)
        assert dumps(doc) == dumps(json.loads(dumps(doc)))


class TestVerifyCurve:
    def test_rejects_missing_keys(self):
        with pytest.raises(SchemaError):
            verify_curve({"N": 3})

    def test_rejects_even_n(self):
        with pytest.raises(SchemaError):
            verify_curve({"N": 4, "x": basis_to_json(t_poly(3)),
                          "y": basis_to_json(ChebT.of({2: 1}))})

    def test_rejects_wrong_x(self):
        ok, lines = verify_curve({
            "N": 1,
            "x": {"basis": "monomial", "coeffs": ["0", "0", "0", "1"]},  # t^3, not T_3
            "y": basis_to_json(ChebT.of({2: 1})),
        })
        assert not ok and any("FAIL" in ln for ln in lines)

    def test_accepts_monomial_y(self):
        # y may be stored in the monomial basis; T_2 = t^2 - 2
        ok, lines = verify_curve({
            "N": 1,
            "x": basis_to_json(t_poly(3)),
            "y": {"basis": "monomial", "coeffs": ["-2", "0", "1"]},
        })
        assert ok

    def test_wrong_count_fails(self):
        ok, lines = verify_curve({
            "N": 3,
            "x": basis_to_json(t_poly(3)),
            "y": basis_to_json(ChebT.of({2: 1})),  # only one crossing
        })
        assert not ok
        assert "FAIL R has degree 1, fewer than 3 roots in (-2, 2)" in lines

    def test_stored_node_must_be_root(self):
        curve, report = synthesize(3)
        doc = curve_to_dict(3, curve.plane.x, curve.plane.y, curve.z, report)
        doc["nodes"] = ["1/7"]  # not the planted node
        ok, lines = verify_curve(doc)
        assert not ok

    def test_nodeless_n51_verifies(self):
        # dd(z) changes sign inside the 2^-48 root interval at crossing 1,
        # so a sign read at the interval's midpoint is wrong there
        curve, report = synthesize(51)
        doc = curve_to_dict(51, curve.plane.x, curve.plane.y, curve.z, report)
        doc["nodes"] = doc["epsilon"] = None
        ok, lines = verify_curve(doc)
        assert ok, lines
        assert "ok   crossing signs alternate (-1)^i [exact]" in lines

    def test_nodeless_n51_signs_need_few_refinements(self, monkeypatch):
        # `signs_at_roots` bounds |dd(z)'| on a root interval by |dd(z)'(lo)|
        # plus a bound on |dd(z)''| times the width; with a bound on |dd(z)'|
        # from the monomial coefficients alone this file took 32 refinements.
        # The ordering proof takes no cell of this file deeper, so every
        # cell past the first of each root is one refinement of a sign.
        curve, report = synthesize(51)
        doc = curve_to_dict(51, curve.plane.x, curve.plane.y, curve.z, report)
        doc["nodes"] = doc["epsilon"] = None
        cells = set()
        real = exactpoly.LocatedRoots.ends

        def counting(self, i, k):
            cells.add((i, k))
            return real(self, i, k)

        monkeypatch.setattr(exactpoly.LocatedRoots, "ends", counting)
        ok, lines = verify_curve(doc)
        assert ok, lines
        assert len({i for i, _ in cells}) == 51
        assert len(cells) - 51 <= 8


class TestDigitBudget:
    """Coefficients past CPython's 4,300-digit string limit, as `gen` writes them from
    N = 175 on, are written and read under a budget derived from N.  A `gen` y has
    more than N coefficients; the synthetic y = T_2 + T_174 below has N of them, so
    that N, not len(y), sizes the budget `parse_curve` reads under, and its R is
    that of T_2 (T_174 is in the kernel of the divided difference)."""

    Y = ChebT.of({2: 1, 174: 1})

    # 6,001 and 5,001 digits: past the default limit, within the budget for N = 175
    BIG = F(10**6000 + 1, 3 * 10**5000 + 7)
    # the synthetic curves below are written with no crossing and no nodes
    EMPTY = CrossingReport(1, (), (), (), 0.0)

    @staticmethod
    def limit():
        get = getattr(sys, "get_int_max_str_digits", None)
        return get() if get is not None else 0

    def test_n175_document_round_trips(self):
        before = self.limit()
        z = ChebT.of({1: self.BIG, 2: -self.BIG / 7})
        doc = curve_to_dict(175, t_poly(3), self.Y, z, self.EMPTY)
        text = dumps(doc)
        assert self.limit() == before
        curve = parse_curve(json.loads(text))
        assert curve.z == z and curve.n_crossings == 175
        assert self.limit() == before
        if 0 < before < 6000:  # the limit is on: the budget was needed
            with pytest.raises(ValueError):
                rat_str(self.BIG)

    def test_n175_file_verifies_without_a_crash(self, tmp_path, capsys):
        # the synthetic curve has one crossing, not 175: parsed, then refused with exit 2
        doc = curve_to_dict(175, t_poly(3), self.Y, ChebT.of({1: self.BIG}), self.EMPTY)
        path = tmp_path / "n175.json"
        path.write_text(dumps(doc))
        assert cli_main(["verify", str(path)]) == 2
        assert "FAIL R has degree 1, fewer than 175 roots in (-2, 2)" in capsys.readouterr().out

    def test_small_n_keeps_the_default_limit(self):
        doc = curve_to_dict(9, t_poly(3), ChebT.of({2: 1}), None, self.EMPTY)
        doc["y"]["coeffs"][2] = "9" * 5000
        if 0 < self.limit() < 5000:
            with pytest.raises(SchemaError, match="past the integer digit limit"):
                parse_curve(doc)

    def test_a_huge_n_cannot_lift_the_limit_past_the_cap(self):
        doc = curve_to_dict(10**9 + 1, t_poly(3), ChebT.of({2: 1}), None, self.EMPTY)
        doc["y"]["coeffs"][2] = "9" * (DIGITS_CAP + 1)
        before = self.limit()
        if 0 < before <= DIGITS_CAP:
            with pytest.raises(SchemaError, match="past the integer digit limit"):
                parse_curve(doc)
        with digit_budget(10**9 + 1):
            assert self.limit() in (before, DIGITS_CAP)
        assert self.limit() == before

    def test_budget_is_restored_after_an_error(self):
        before = self.limit()
        with pytest.raises(RuntimeError), digit_budget(175):
            raise RuntimeError
        assert self.limit() == before
