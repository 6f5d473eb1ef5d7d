"""The factored synthesis: the deformation and height solved with the planted
roots factored out, and the cofactor certificate in `synthesize` and `certify`."""

import json
import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from c_basis_reference import (
    build_cn_tilde,
    reference_deformation,
    reference_height,
    triangular_coordinates,
)
from height_reference import reference_height_series
from knotforge import chebyshev as cb, exactpoly, knots
from knotforge.chebyshev import ChebT, ChebV, lift_from_V, to_V
from knotforge.errors import CertificationFailed, EpsilonExhausted, SingularSystem
from knotforge.exactpoly import (
    Poly,
    _content_free,
    _primitive_ints,
    locate_roots,
    rat_str,
    solve_linear,
)
from knotforge.knots import (
    NodeSet,
    build_cn,
    certify,
    default_nodes,
    planted_factor,
    solve_deformation,
    solve_height,
    synthesize,
)
from knotforge.serialize import curve_to_dict, dumps, parse_curve, verify_curve

N_MAX = 41


@pytest.fixture(scope="module")
def bases():
    basis = build_cn((N_MAX - 1) // 2)
    return basis, build_cn_tilde((N_MAX - 1) // 2, basis)


NODE_SETS = [
    pytest.param(default_nodes((n - 1) // 2, eps), id=f"N{n}-eps{eps}")
    for n in (1, 3, 5, 7, 9, 15, 21, 31, 41)
    for eps in (F(1, 4), F(1, 8), F(3, 4))
] + [
    pytest.param(NodeSet(len(d), d), id=f"dyadic-N{2 * len(d) + 1}")
    for d in ((F(1, 2),), (F(1, 4), F(1, 2)), (F(1, 8), F(1, 4), F(1, 2)),
              (F(1, 64), F(1, 32), F(1, 16), F(1, 8), F(3, 16), F(1, 4), F(5, 16), F(3, 8)))
] + [pytest.param(NodeSet(2, (F(98, 100), F(99, 100))), id="near-one-N5")]


class TestAgainstTheCBasis:
    @pytest.mark.parametrize("nodes", NODE_SETS)
    def test_deformation_equals_the_c_basis_solve(self, bases, nodes):
        basis, _ = bases
        a, a_poly = reference_deformation(basis, nodes)
        series = solve_deformation(nodes)
        planted = Poly(planted_factor(nodes))
        cofactor = divmod(a_poly, planted)[0]
        assert series == to_V(a_poly)
        assert series.to_poly() == a_poly
        assert triangular_coordinates(a_poly, basis.cn[:nodes.n + 1]) == a + (1,)
        assert planted * cofactor == a_poly
        assert not any(cofactor.coeffs[1::2]) and cofactor.degree == 2 * (nodes.n // 2)

    @pytest.mark.parametrize("nodes", NODE_SETS)
    def test_height_equals_the_ct_basis_solve(self, bases, nodes):
        _, tilde = bases
        _, b_poly = reference_height(tilde, nodes)
        assert solve_height(nodes).to_poly() == b_poly

    def test_singular_node_set_on_both_paths(self, bases):
        # With C_2 = t^5 (t^2 - 6) the n = 3 system is singular exactly when
        # d_1^2 + d_2^2 + d_3^2 = 6, which no node set in (0, 1) reaches.
        # The algebra needs only distinct nonzero nodes, so skip the range check.
        class UncheckedNodes(NodeSet):
            __slots__ = ()

            def __new__(cls, *fields):
                return tuple.__new__(cls, fields)

        nodes = UncheckedNodes(3, (F(1, 5), F(7, 5), F(2)))
        basis, tilde = bases
        for solve in (lambda: reference_deformation(basis, nodes), lambda: solve_deformation(nodes),
                      lambda: reference_height(tilde, nodes), lambda: solve_height(nodes)):
            with pytest.raises(SingularSystem):
                solve()


def record_gcds(monkeypatch):
    """Degrees of the first polynomial of every `poly_gcd`, the one gcd of
    the library, each squarefree part's included, from now on."""
    degrees = []
    real = exactpoly.poly_gcd

    def recorded(a, b):
        degrees.append(len(a) - 1)
        return real(a, b)

    monkeypatch.setattr(exactpoly, "poly_gcd", recorded)
    return degrees


@pytest.fixture(scope="module")
def gen_docs():
    """The documents `gen` writes at N = 21 and 41, read back from JSON."""
    docs = {}
    for n in (21, 41):
        curve, report = synthesize(n)
        doc = curve_to_dict(n, curve.plane.x, curve.plane.y, curve.z, report)
        docs[n] = json.loads(dumps(doc))
    return docs


def pairwise_depths(located, depth):
    """`LocatedRoots.cells` as it was first written: both roots of each neighbouring
    pair indexed at every depth, the reference for the depths."""
    n = len(located)
    ks = [depth] * n
    for i in range(n - 1):
        k = depth
        while located._index(i, k) == located._index(i + 1, k):
            k += 1
        ks[i], ks[i + 1] = max(ks[i], k), k
    while n and located._root_at_hi and located._index(n - 1, ks[-1]) == (1 << ks[-1]) - 1:
        ks[-1] += 1
    return ks


class TestCellIndexing:
    @staticmethod
    def count_index(monkeypatch, located):
        calls = []
        real = exactpoly.LocatedRoots._index

        def counting(self, i, k):
            if self is located:
                calls.append((i, k))
            return real(self, i, k)

        monkeypatch.setattr(exactpoly.LocatedRoots, "_index", counting)
        return calls

    def test_each_root_is_indexed_once_on_the_half_path(self, monkeypatch, gen_docs):
        curve = parse_curve(gen_docs[21])
        r = _content_free(cb.divided_difference(curve.y).integer_form()[0])
        reference = locate_roots(r, -2, 2)
        located = locate_roots(r, -2, 2)
        assert located._half is not None  # R = u S(u^2)
        old = self.count_index(monkeypatch, reference)
        expected = pairwise_depths(reference, knots.ROOT_DEPTH)
        new = self.count_index(monkeypatch, located)
        assert located.cells(knots.ROOT_DEPTH) == expected
        assert len(old) == 2 * (21 - 1) and len(new) == 21
        assert sorted(i for i, _ in new) == list(range(21))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: exactpoly.LocatedRoots(
            NodeSet(10, tuple(F(i, 44) for i in range(1, 11))).all_roots(), -2, 2), id="planted"),
        pytest.param(lambda: exactpoly.LocatedRoots(
            (F(-1, 3), F(0), F(1, 2**60), F(1, 2**59)), -2, 2), id="sharing-cells"),
        # (u - 2)(2^60 u - (2^61 - 1)): the top root shares its cell with hi
        pytest.param(lambda: locate_roots([2**62 - 2, -(2**62 - 1), 2**60], -2, 2),
                     id="root-at-hi"),
        pytest.param(lambda: locate_roots([0, -4, 0, 1], -2, 2), id="half-root-at-hi"),
        # (4u^2 - 1)(q^2 u^2 - p^2) for p/q = 1/2 + 2^-60, through E on (0, 4)
        pytest.param(lambda: locate_roots([(2**59 + 1) ** 2, 0, -(4 * (2**59 + 1) ** 2 + 2**120),
                                           0, 2**122], -2, 2), id="half-sharing-cells"),
    ])
    def test_depths_match_the_pairwise_walk(self, make):
        for depth in (knots.ROOT_DEPTH, 72):  # cells 2^-48 and 2^-70 wide on (-2, 2)
            assert make().cells(depth) == pairwise_depths(make(), depth)


class TestIntegerFrame:
    def test_root_layer_makes_no_fraction(self, monkeypatch, gen_docs):
        # `_frame` reads an interval's ends as integers: isolating R, the
        # cofactor's test and `certify` with and without nodes make no Fraction,
        # nor does a node-less z(t) = z(s), decided by the gcd's signs at cell ends
        curve = parse_curve(gen_docs[21])
        r = _content_free(cb.divided_difference(curve.y).integer_form()[0])
        cofactor = exactpoly.exact_quotient(r, planted_factor(curve.nodes))
        wide = parse_curve(gen_docs[41])
        z = dict(wide.z.items)  # minus dd(z)(d_3) T_1: dd(z) vanishes at +-d_3, among others
        z[1] = z.get(1, 0) - cb.divided_difference(wide.z).to_poly()(wide.nodes.delta[2])
        bump = ChebT.of(z)

        def refuse(*args):
            raise AssertionError("the root layer made a Fraction")

        monkeypatch.setattr(exactpoly, "Fraction", refuse)
        assert len(locate_roots(r, -2, 2)) == 21
        assert exactpoly.root_free(cofactor, -2, 2)
        assert certify(curve.y, curve.z, 21, curve.nodes).signs_alternate
        assert certify(curve.y, curve.z, 21).signs_alternate
        with pytest.raises(CertificationFailed, match=r"^z\(t\) = z\(s\) at crossing 2$"):
            certify(wide.y, bump, 41)


class TestHotPath:
    def test_synthesize_builds_no_c_basis_and_no_chain_of_a(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the C bases are not on the synthesis path")

        monkeypatch.setattr(knots, "build_cn", refuse)
        degrees = record_gcds(monkeypatch)
        curve, report = synthesize(21)
        assert len(report.crossings) == 21
        # no gcd of A (degree 31), nor of g (degree floor(n/2) = 5): each
        # cofactor check is decided by a finished Descartes isolation
        assert degrees == []

    def test_certify_with_nodes_builds_no_chain_of_r(self, monkeypatch):
        curve, report = synthesize(15)
        degrees = record_gcds(monkeypatch)
        again = certify(curve.plane.y, curve.z, 15, NodeSet(7, report.nodes))
        assert again.crossings == report.crossings
        assert degrees == []  # g (degree 3) is root-free by a finished isolation
        assert certify(curve.plane.y, curve.z, 15).crossings == report.crossings
        assert degrees == []  # without nodes R (degree 21) is isolated by Descartes bisection

    def test_certify_with_nodes_expands_no_series_to_a_poly(self, monkeypatch):
        # R's primitive integers and dd(z)'s values come from integer forms
        curve, report = synthesize(21)

        def refuse(self):
            raise AssertionError("a series was expanded to a Poly")

        monkeypatch.setattr(cb.ChebV, "to_poly", refuse)
        again = certify(curve.plane.y, curve.z, 21, NodeSet(10, report.nodes))
        assert again.crossings == report.crossings

    @pytest.mark.parametrize("nodes,height", [
        pytest.param(True, True, id="nodes"),
        pytest.param(False, True, id="node-less"),
        pytest.param(False, False, id="plane-only"),
    ])
    def test_certify_builds_no_poly(self, monkeypatch, nodes, height):
        # every certificate runs on integer coefficients and dyadic cells
        curve, report = synthesize(21)

        def refuse(self, *args):
            raise AssertionError("certify built a Poly")

        monkeypatch.setattr(exactpoly.Poly, "__init__", refuse)
        again = certify(curve.plane.y, curve.z if height else None, 21,
                        NodeSet(10, report.nodes) if nodes else None)
        monkeypatch.undo()
        assert again.crossings == (report.crossings if height else tuple(
            c._replace(sign=None) for c in report.crossings))

    @pytest.mark.parametrize("nodes,height", [
        pytest.param(True, True, id="nodes"),
        pytest.param(False, True, id="node-less"),
        pytest.param(False, False, id="plane-only"),
    ])
    def test_verify_builds_no_crossing(self, monkeypatch, gen_docs, nodes, height):
        # the report keeps integer cells; a Crossing is built only where one is read
        doc = dict(gen_docs[21])
        if not nodes:
            doc.update(nodes=None, epsilon=None)
        if not height:
            doc["z"] = None
        expected = verify_curve(doc)

        def refuse(self, *args):
            raise AssertionError("verify built a Crossing")

        monkeypatch.setattr(knots.Crossing, "__init__", refuse)
        ok, lines = verify_curve(doc)
        with pytest.raises(AssertionError, match="verify built a Crossing"):  # the spy is live
            knots.CrossingReport(1, ((1, 2, 4),), ((0.0,) * 4,), (2,), 0.0).crossings
        monkeypatch.undo()
        assert ok and (ok, lines) == expected
        assert lines[-1] == ("ok   crossing signs alternate (-1)^i [exact]" if height
                             else "note z absent: plane diagram only, sign checks skipped")

    @pytest.mark.parametrize("n", [21, 41])
    @pytest.mark.parametrize("nodes", [True, False], ids=["nodes", "node-less"])
    def test_certified_crossings_match_the_gen_file(self, gen_docs, n, nodes):
        curve = parse_curve(gen_docs[n])
        report = certify(curve.y, curve.z, n, curve.nodes if nodes else None)
        assert [{"u": f"{rat_str(c.u_lo)}..{rat_str(c.u_hi)}", "s": c.s, "t": c.t,
                 "sign": c.sign} for c in report.crossings] == gen_docs[n]["crossings"]

    def test_failed_space_stage_carries_unsigned_crossings(self, gen_docs):
        curve = parse_curve(gen_docs[21])
        signed = certify(curve.y, curve.z, 21, curve.nodes).crossings
        flipped = ChebT(tuple((k, -c) for k, c in curve.z.items))
        for nodes in (curve.nodes, None):
            with pytest.raises(CertificationFailed) as info:
                certify(curve.y, flipped, 21, nodes)
            assert info.value.stage == "space" and not info.value.report.signs_alternate
            assert info.value.report.crossings == tuple(c._replace(sign=None) for c in signed)

    def test_nodeless_certify_finds_the_cells_of_r_once(self, monkeypatch, gen_docs):
        curve = parse_curve(gen_docs[21])
        owners = []
        real = exactpoly.LocatedRoots.cells

        def counting(self, depth):
            owners.append(self)
            return real(self, depth)

        monkeypatch.setattr(exactpoly.LocatedRoots, "cells", counting)
        report = certify(curve.y, curve.z, 21)
        assert report.signs_alternate
        # R's cells, for the report and the signs; E's, on the half path, once more
        assert sum(owner is owners[0] for owner in owners) == 1

    @pytest.mark.parametrize("n", [21, 41])
    def test_planted_certify_finds_the_cells_once(self, monkeypatch, gen_docs, n):
        # planted roots are exact, so `signs_at_roots` builds no cells: only `crossings` does
        curve = parse_curve(gen_docs[n])
        callers = []
        real = exactpoly.LocatedRoots.cells

        def counting(self, depth):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(self, depth)

        monkeypatch.setattr(exactpoly.LocatedRoots, "cells", counting)
        assert certify(curve.y, curve.z, n, curve.nodes).signs_alternate
        assert callers == ["crossings"]

    def test_failed_certificate_halves_until_exhausted(self, monkeypatch):
        tried = []

        def refuse(y, z, n_crossings, nodes):
            tried.append(nodes.epsilon)
            raise CertificationFailed("refused", "count")

        monkeypatch.setattr(knots, "certify", refuse)
        with pytest.raises(EpsilonExhausted, match="after 40 halvings"):
            synthesize(5)
        assert tried == [F(1, 4) / 2**k for k in range(41)]

    def test_explicit_nodes_get_one_attempt(self, monkeypatch):
        tried = []

        def refuse(y, z, n_crossings, nodes):
            tried.append(nodes.delta)
            raise CertificationFailed("refused", "count")

        monkeypatch.setattr(knots, "certify", refuse)
        with pytest.raises(CertificationFailed, match="refused"):
            synthesize(5, nodes=[F(1, 8), F(1, 4)])
        assert tried == [(F(1, 8), F(1, 4))]

    @pytest.mark.parametrize("n", [5, 21])
    def test_synthesize_tests_the_cofactor_once(self, monkeypatch, n):
        # `certify` is the only gate: R's cofactor is tested there, once
        tested = []
        real = knots.root_free

        def counted(cofactor, lo, hi):
            tested.append(cofactor)
            return real(cofactor, lo, hi)

        monkeypatch.setattr(knots, "root_free", counted)
        synthesize(n)
        assert len(tested) == 1

    @pytest.mark.parametrize("n", [1, 4, 10, 25])
    def test_fit_makes_no_fraction_but_its_series(self, monkeypatch, n):
        # `solve_linear` returns integers over their denominator, which `_fit`
        # combines in integers: its one Fraction per nonzero entry is the result
        nodes = default_nodes(n, F(1, 4))
        expected = solve_deformation(nodes), solve_height(nodes)
        made = []

        def refuse(*args):
            raise AssertionError("the solve made a Fraction")

        def counted(*args):
            made.append(args)
            return F(*args)

        monkeypatch.setattr(exactpoly, "Fraction", refuse)
        monkeypatch.setattr(knots, "Fraction", counted)
        for solve, series in zip((solve_deformation, solve_height), expected):
            made.clear()
            assert solve(nodes) == series
            assert len(made) == len(series.items)

    @pytest.mark.parametrize("n", [1, 4, 10, 25])
    def test_deformation_walks_the_columns_once(self, monkeypatch, n):
        # P t^{2j} for j <= m = floor(n/2) is one walk of 2m multiplications by t,
        # after the Horner that puts P, of degree 2n + 1, on the V basis
        calls, real = [], cb._times_t
        monkeypatch.setattr(cb, "_times_t", lambda c: calls.append(len(c)) or real(c))
        knots._planted_on_V.cache_clear()
        solve_deformation(default_nodes(n, F(1, 4)))
        assert len(calls) == (2 * n + 1) + 2 * (n // 2)

    def test_planted_factor_is_built_once_per_candidate(self, monkeypatch):
        # both solves of a node set read one P on the V basis; three candidates
        # are refused, and the fourth is certified
        refused, real = [], knots.certify

        def refuse_three(y, z, n_crossings, nodes):
            if len(refused) < 3:
                refused.append(nodes.epsilon)
                raise CertificationFailed("refused", "count")
            return real(y, z, n_crossings, nodes)

        monkeypatch.setattr(knots, "certify", refuse_three)
        knots._planted_on_V.cache_clear()
        curve, report = synthesize(21)
        info = knots._planted_on_V.cache_info()
        assert report.epsilon == F(1, 32) and (info.misses, info.hits) == (4, 4)


def descartes_bound(p, lo, hi):
    """Descartes' bound, capped at 2, on the roots of the integers p in (lo, hi)."""
    return exactpoly._variations(exactpoly._bernstein(exactpoly._moved(p, lo, hi))[0])


def curve_with_r(r_series):
    """y with dd(y) = R for R on the V basis, and z with dd(z) = -1."""
    return lift_from_V(r_series), ChebT.of({1: -1})


def into_the_image(s0):
    """L S0 for the monic cubic L that clears its V_2, V_5 and V_8
    coefficients, for S0 of degree 6: a polynomial in the image of dd."""
    cols = [dict(to_V(s0 * Poly([0] * k + [1])).items) for k in range(4)]
    rows = (2, 5, 8)
    nums, den = solve_linear([[col.get(k, 0) for col in cols[:3]] for k in rows],
                             [-cols[3].get(k, 0) for k in rows])
    return Poly([*(F(v, den) for v in nums), 1]) * s0


def record_squarefree(monkeypatch):
    """The degrees of the polynomials `locate_roots` splits into squarefree parts."""
    degrees = []
    real = exactpoly.squarefree

    def recorded(p):
        degrees.append(len(p) - 1)
        return real(p)

    monkeypatch.setattr(exactpoly, "squarefree", recorded)
    return degrees


class TestCertifyFallback:
    def test_positive_bound_without_a_root_is_root_free(self):
        # g(v) = (v - 2)^2 + 1/64 has no real root, but Descartes' bound on
        # (0, 4) is 2: the isolation behind `root_free` bisects and decides it
        assert descartes_bound((257, -256, 64), 0, 4) == 2
        assert exactpoly.root_free((257, 0, -256, 0, 64), -2, 2) is True

    def test_undecided_cofactor_gives_the_same_report(self, monkeypatch):
        # a cofactor test that never passes leaves R to its isolation,
        # which certifies the same crossings and signs
        curve, report = synthesize(21)
        nodes = NodeSet(10, report.nodes)
        expected = certify(curve.plane.y, curve.z, 21, nodes)
        monkeypatch.setattr(knots, "root_free", lambda *args: False)
        assert certify(curve.plane.y, curve.z, 21, nodes) == expected

    def test_cofactor_beyond_descartes_takes_the_planted_path(self, monkeypatch):
        # R = P G for the node 3/4: G = (92u^2 - 377)(64u^4 - 256u^2 + 257), whose
        # g(v) has the factor 64 ((v - 2)^2 + 1/64) and no root in [0, 4], but
        # Descartes' bound 2 on (0, 4); 92u^2 - 377, with roots just past +-2,
        # clears R's V_5 part, so R is in the image of dd
        nodes = NodeSet(1, (F(3, 4),))
        p = planted_factor(nodes)
        r_poly = Poly(p) * Poly([-377, 0, 92]) * Poly([257, 0, -256, 0, 64])
        y, z = lift_from_V(to_V(r_poly)), lift_from_V(solve_height(nodes))
        cofactor = exactpoly.exact_quotient(_primitive_ints(r_poly), p)
        assert descartes_bound(cofactor[::2], 0, 4) == 2
        isolated, real = [], exactpoly.locate_roots

        def spy(ints, lo, hi):
            isolated.append(tuple(ints))
            return real(ints, lo, hi)

        for module in (exactpoly, knots):
            monkeypatch.setattr(module, "locate_roots", spy)
        report = certify(y, z, 3, nodes)
        assert isolated == [cofactor]  # the cofactor, never R
        assert report.signs_alternate
        monkeypatch.setattr(knots, "root_free", lambda *args: False)
        assert certify(y, z, 3, nodes) == report
        assert _primitive_ints(r_poly) in isolated

    def test_repeated_planted_root_fails_the_count(self):
        # R = u^3 = V_3 + 2 V_1 has the one planted root 0, threefold
        y, z = curve_with_r(ChebV.of({1: 2, 3: 1}))
        for nodes in (NodeSet(0, ()), None):
            with pytest.raises(CertificationFailed, match="repeated root") as exc:
                certify(y, z, 1, nodes)
            assert exc.value.stage == "count"

    def test_repeated_root_beyond_the_band_passes(self):
        # R = u (u^2 - 9)^2 (u^2 + 12) repeats only +-3, outside (-2, 2);
        # the factor u^2 + 12 cancels its V_5 part, so R is in the image of dd
        r_poly = Poly([0, 1]) * Poly([-9, 0, 1]) * Poly([-9, 0, 1]) * Poly([12, 0, 1])
        y, z = curve_with_r(to_V(r_poly))
        for nodes in (NodeSet(0, ()), None):
            assert len(certify(y, z, 1, nodes).crossings) == 1

    def test_irrational_triple_root_fails_the_count(self, monkeypatch):
        # R = u (u^2 - 2)^3 = V_7 + 2 V_3: the triple roots +-sqrt(2), the
        # midpoint v = 2 of S's bisection on (0, 4), leave R's limited run
        # unfinished, so R is split into its squarefree part, whose 3 roots
        # match N, and gcd(R, R') = (u^2 - 2)^2, whose roots in (-2, 2) are
        # the repeated ones; its double roots split it in turn
        r_poly = math.prod([Poly([-2, 0, 1])] * 3, start=Poly([0, 1]))
        assert to_V(r_poly) == ChebV.of({3: 2, 7: 1})
        located = locate_roots(_primitive_ints(r_poly), -2, 2)
        assert len(located) == 3 and located.repeated
        y, z = curve_with_r(to_V(r_poly))
        degrees = record_squarefree(monkeypatch)
        for nodes in (NodeSet(1, (F(1, 2),)), None):
            with pytest.raises(CertificationFailed, match="repeated root") as exc:
                certify(y, z, 3, nodes)
            assert exc.value.stage == "count"
        assert degrees == [7, 4, 7, 4]

    def test_irrational_double_root_beyond_the_band_passes(self, monkeypatch):
        # R = L (u^2 - 5)^2 ((u - 1/3)^2 + 2^-500): the complex pair 2^-250
        # from 1/3 keeps Descartes' bound at 2 down to the depth limit, so R
        # is split; its squarefree part has the one root of L in (-2, 2), and
        # gcd(R, R') = u^2 - 5 has none there
        pair = Poly([F(1, 9) + F(1, 2**500), F(-2, 3), 1])
        r_poly = into_the_image(Poly([-5, 0, 1]) * Poly([-5, 0, 1]) * pair)
        located = locate_roots(_primitive_ints(r_poly), -2, 2)
        assert len(located) == 1 and not located.repeated
        y, z = curve_with_r(to_V(r_poly))
        degrees = record_squarefree(monkeypatch)
        report = certify(y, z, 1)
        assert len(report.crossings) == 1 and report.signs_alternate
        assert degrees == [9]
        with pytest.raises(CertificationFailed, match="R has 1 roots in \\(-2, 2\\), expected 3"):
            certify(y, z, 3)

    def test_root_at_two_is_located_by_isolation(self, monkeypatch):
        # R = u^3 - 4u = V_3 - 2 V_1: roots 0 and +-2, so g(v) = v - 4 has
        # g(4) = 0; Descartes isolation of R locates the crossing, with no
        # gcd, as it does without nodes
        y, z = curve_with_r(ChebV.of({1: -2, 3: 1}))
        degrees = record_gcds(monkeypatch)
        with_nodes = certify(y, z, 1, NodeSet(0, ()))
        assert degrees == []
        assert with_nodes == certify(y, z, 1)
        assert with_nodes.crossings[0].u_hi < 2


def random_node_sets(count, seed):
    """Sorted node sets of 1 to 9 nodes, each node over its own denominator."""
    rng = random.Random(seed)
    denominators = (2, 3, 7, 10, 64, 97, 1000, 1024, 3**7, 2**20 + 7)
    for _ in range(count):
        n = rng.randint(1, 9)
        delta = set()
        while len(delta) < n:
            q = rng.choice(denominators)
            delta.add(F(rng.randint(1, q - 1), q))
        yield NodeSet(n, tuple(sorted(delta)))


class TestIntegerHeight:
    """`solve_height` builds L B_0 in integers; the `Fraction` Newton-Horner
    reference must give the same B."""

    @pytest.mark.parametrize("n_crossings", range(1, 62, 2))
    def test_default_nodes_match_the_fraction_reference(self, n_crossings):
        nodes = default_nodes((n_crossings - 1) // 2, F(1, 4))
        assert solve_height(nodes) == reference_height_series(nodes)

    def test_random_node_sets_match_the_fraction_reference(self):
        for nodes in random_node_sets(200, 11):
            try:
                expected = reference_height_series(nodes)
            except SingularSystem:
                with pytest.raises(SingularSystem):
                    solve_height(nodes)
                continue
            assert solve_height(nodes) == expected, nodes.delta


def _planted_q(nodes, kind, cs, at):
    """Integers of q for the planted-sign test: cs spread on the even or odd powers,
    taken as they are (cs[0] and cs[1] nonzero, so no parity), or even and times
    q_d^2 u^2 - p_d^2 for the node d = delta[at], so that q vanishes at +-d."""
    if kind == "none":
        return list(cs)
    spread = [c for v in cs for c in (v, 0)][:-1]  # c_0 + c_1 u^2 + ...
    if kind == "odd":
        return [0, *spread]
    if kind == "even":
        return spread
    d = nodes.delta[at % nodes.n]
    zero = Poly([-d.numerator ** 2, 0, d.denominator ** 2])
    return [int(c) for c in (Poly(spread) * zero).coeffs]


class TestPlantedSigns:
    """`signs_at_roots` on the planted `LocatedRoots` of stored nodes: the one sign
    certificate of `certify`, with or without nodes."""

    @given(st.integers(0, 2**32), st.sampled_from(["even", "odd", "none", "zero"]),
           st.lists(st.integers(-10**30, 10**30), min_size=2, max_size=20).map(
               lambda cs: [cs[0] or 1, cs[1] or -1, *cs[2:-1], cs[-1] or 1]),
           st.integers(0, 8))
    @settings(max_examples=200, deadline=None)
    def test_signs_match_fraction_values(self, seed, kind, cs, at):
        nodes = next(random_node_sets(1, seed))
        q = _planted_q(nodes, kind, cs, at)
        located = exactpoly.LocatedRoots(nodes.all_roots(), -2, 2)
        sizes, real = [], exactpoly._horner

        def spy(cs, *args):
            sizes.append(len(cs))
            return real(cs, *args)

        exactpoly._horner = spy  # no monkeypatch: a function-scoped fixture outlives each example
        try:
            signs = exactpoly.signs_at_roots(located, q, located.cells(0))
        finally:
            exactpoly._horner = real
        poly = Poly(q)
        assert signs == [(v > 0) - (v < 0) for v in map(poly, nodes.all_roots())]
        # q's halves, each evaluated once at d^2 for +-d and never when all zero: at
        # most half the degree, one Horner per node pair for a q of one parity, two for none
        assert sizes and max(sizes) <= -(-len(q) // 2)
        assert len(sizes) <= (2 if kind == "none" else 1) * (nodes.n + 1)
        if kind == "zero":
            assert signs[nodes.n - 1 - at % nodes.n] == signs[nodes.n + 1 + at % nodes.n] == 0
