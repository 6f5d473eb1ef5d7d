import math
from decimal import Decimal, localcontext
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import knotforge
from c_basis_reference import build_cn_tilde, triangular_coordinates
from knotforge import exactpoly, knots
from knotforge.chebyshev import ChebV, divided_difference, lift_from_V, t_poly, to_V
from knotforge.errors import (
    CertificationFailed,
    EpsilonExhausted,
    InternalInconsistency,
    NotInImage,
    SingularSystem,
)
from knotforge.exactpoly import (
    LocatedRoots,
    Poly,
    _primitive_ints,
    exact_quotient,
    locate_roots,
    root_free,
)
from knotforge.knots import (
    NodeSet,
    PlaneCurve,
    build_cn,
    certify,
    crossings,
    default_nodes,
    height_degree,
    plane_degree,
    solve_deformation,
    solve_height,
    synthesize,
)
from knotforge.serialize import load_curve, verify_curve
from ordering_reference import certify_ordering
from sturm_reference import SturmChain, isolate_roots, refine

ints = _primitive_ints

T = Poly([0, 1])


def deformation(n, nodes):
    """(a, A) from the factored solve: A and its coordinates a_k on C_0..C_{n-1}."""
    poly = solve_deformation(nodes).to_poly()
    return triangular_coordinates(poly, build_cn(n).cn)[:n], poly


def height(n, nodes):
    """(b, B) from the factored solve: B and its coordinates b_k on Ct_0..Ct_n."""
    poly = solve_height(nodes).to_poly()
    return triangular_coordinates(poly, build_cn_tilde(n).cn), poly


class TestDeformation:
    def test_n1_exact(self):
        a, poly = deformation(1, NodeSet(1, (F(1, 8),)))
        assert a == (F(-1, 64),)
        assert poly == Poly([0, F(-1, 64), 0, 1])
        assert poly(F(1, 8)) == 0 and poly(F(-1, 8)) == 0 and poly(0) == 0

    def test_n0_returns_c0(self):
        a, poly = deformation(0, NodeSet(0, ()))
        assert a == () and poly == T

    def test_n2_vanishes_at_all_five_nodes(self):
        nodes = NodeSet(2, (F(1, 16), F(1, 8)))
        _, poly = deformation(2, nodes)
        for u in nodes.all_roots():
            assert poly(u) == 0
        assert len(nodes.all_roots()) == 5

    def test_coefficients_shrink_like_eps_squared(self):
        # a_k(eps) = O(eps^(2(n-k))): consecutive halvings shrink by about
        # 4^-(n-k); the 1.5x slack absorbs the O(eps^2) correction
        for n in (3, 4):
            sols = {}
            for eps in (F(1, 4), F(1, 8), F(1, 16)):
                sols[eps], _ = deformation(n, default_nodes(n, eps))
            for k in range(n):
                bound = F(3, 2) / F(4) ** (n - k)
                assert abs(sols[F(1, 8)][k] / sols[F(1, 4)][k]) <= bound
                assert abs(sols[F(1, 16)][k] / sols[F(1, 8)][k]) <= bound


def cofactor_of(a_poly, n):
    """The integers of G with A = P G for the planted factor P of the nodes
    1/8, ..., n/8, or None when P does not divide A."""
    nodes = NodeSet(n, tuple(F(i, 8) for i in range(1, n + 1)))
    return exact_quotient(ints(a_poly), knots.planted_factor(nodes))


class TestCertify:
    """`root_free` on cofactors: the planted path's test in `certify`."""

    def test_planted_roots_pass(self):
        assert root_free(cofactor_of(Poly([0, F(-1, 64), 0, 1]), 1), -2, 2)

    def test_roots_outside_band_fail(self):
        # t^3 - 6t has roots +-sqrt(6) outside [-2, 2]: only 1 root counted,
        # so it plants no N = 3 node set; for N = 1 its cofactor t^2 - 6 passes
        poly = Poly([0, -6, 0, 1])
        assert cofactor_of(poly, 1) is None
        assert root_free(cofactor_of(poly, 0), -2, 2)

    def test_c2_has_single_root_in_band(self):
        # C_2 = t^5 (t^2 - 6) has one distinct root in [-2, 2], but it is
        # fivefold: a tangency, which the cofactor test refuses
        c2 = build_cn(2).cn[2]
        assert len(locate_roots(ints(c2), F(-2), F(2))) == 1
        assert not root_free(cofactor_of(c2, 0), -2, 2)

    def test_root_between_one_and_two_fails(self):
        # roots {0, +-3/2} are all in (-2, 2) but not all in (-1, 1)
        poly = Poly([0, F(-9, 4), 0, 1])
        assert root_free(cofactor_of(poly, 0), -2, 2) is False and poly(F(3, 2)) == 0

    def test_zero_polynomial(self):
        assert not root_free((), -2, 2)

    def test_repeated_planted_root_fails(self):
        # G vanishing at a planted node makes that root of A double
        nodes = NodeSet(1, (F(1, 8),))
        a_poly = Poly(knots.planted_factor(nodes)) * Poly([-1, 0, 64])
        assert not root_free(exact_quotient(ints(a_poly), knots.planted_factor(nodes)), -2, 2)

    def test_root_at_two_is_outside_the_open_band(self):
        # t^2 - 4 has no root in (-2, 2) but vanishes at +-2, inside the closed
        # band [-2, 2] that a cofactor must keep free: A = t (t^2 - 4) is left
        # to its isolation
        assert len(locate_roots((-4, 0, 1), -2, 2)) == 0
        assert not root_free((-4, 0, 1), -2, 2)
        assert not root_free((-3, 0, 1), -2, 2)   # roots +-sqrt(3) inside

    def test_cofactor_without_parity_is_decided(self):
        # t + 5 has its one root outside [-2, 2], t + 1 inside
        assert root_free((5, 1), -2, 2)
        assert not root_free((1, 1), -2, 2)

    def test_nodeless_certify_builds_no_chain_of_r(self, monkeypatch):
        # the crossings of a node-less file are isolated by Descartes
        # bisection, which proves their count, all simple, with no gcd of R
        # and dd(z), and no squarefree part
        curve, report = synthesize(21)

        def gcd(*args):
            raise AssertionError("a gcd was computed")

        monkeypatch.setattr(exactpoly, "poly_gcd", gcd)
        monkeypatch.setattr(exactpoly, "squarefree", gcd)
        again = certify(curve.plane.y, curve.z, 21)
        assert again.crossings == report.crossings and again.signs_alternate

    @pytest.mark.parametrize("n", [31, 61])
    def test_nodeless_certify_of_a_gen_curve_runs_at_half_degree(self, monkeypatch, n):
        # R = u S(u^2) and dd(z) = E(u^2): every Taylor shift and every
        # Horner works on S or E, never on R or dd(z) at full degree
        curve, report = synthesize(n)
        full = max(len(divided_difference(p).integer_form()[0]) for p in (curve.plane.y, curve.z))
        sizes = []
        for name in ("_moved", "_horner"):
            def wrapper(cs, *args, real=getattr(exactpoly, name)):
                sizes.append(len(cs))
                return real(cs, *args)

            monkeypatch.setattr(exactpoly, name, wrapper)
        again = certify(curve.plane.y, curve.z, n)
        assert again.crossings == report.crossings and again.signs_alternate
        assert sizes and max(sizes) <= -(-full // 2)

    def test_node_off_the_roots_fails_the_nodes_stage(self):
        # P does not divide R, so certify isolates R and names the node
        curve, report = synthesize(7)
        assert report.nodes == (F(1, 16), F(1, 8), F(3, 16))
        moved = NodeSet(3, (F(1, 16), F(1, 8), F(1, 3)))
        r_poly = divided_difference(curve.plane.y).to_poly()
        assert exact_quotient(ints(r_poly), knots.planted_factor(moved)) is None
        with pytest.raises(CertificationFailed) as exc:
            certify(curve.plane.y, curve.z, 7, moved)
        assert exc.value.stage == "nodes"
        assert str(exc.value) == "stored node -1/3 is not a root of R"


class TestAutoNodes:
    def test_n1_first_epsilon(self):
        _, report = synthesize(3)
        assert report.nodes == (F(1, 8),)
        assert report.epsilon == F(1, 4)

    def test_n4_first_epsilon(self):
        # pinned: the default scale certifies without any halving
        _, report = synthesize(9)
        assert report.epsilon == F(1, 4)
        assert report.nodes == tuple(F(1, 4) * F(i, 5) for i in range(1, 5))

    def test_n0_trivial(self):
        _, report = synthesize(1)
        assert report.nodes == ()


class TestEpsilonLoop:
    def _count_calls(self, monkeypatch, name, fails=0, raises=None):
        """Record each call of knots.<name>; the first `fails` calls raise `raises`."""
        calls = []
        real = getattr(knots, name)

        def wrapper(*args):
            calls.append(args)
            if len(calls) <= fails:
                raise raises
            return real(*args)

        monkeypatch.setattr(knots, name, wrapper)
        return calls

    def test_deformation_solved_once(self, monkeypatch):
        solves = self._count_calls(monkeypatch, "solve_deformation")
        synthesize(7)
        assert [nodes.epsilon for (nodes,) in solves] == [F(1, 4)]

    def test_failed_count_halves_epsilon(self, monkeypatch):
        certs = self._count_calls(monkeypatch, "certify", fails=1,
                                  raises=CertificationFailed("injected", "count"))
        solves = self._count_calls(monkeypatch, "solve_deformation")
        _, report = synthesize(5)
        # two scales, each solved once and certified once
        assert len(certs) == 2 and len(solves) == 2
        assert report.epsilon == F(1, 8)
        assert report.nodes == (F(1, 24), F(1, 12))

    def test_singular_height_halves_epsilon(self, monkeypatch):
        self._count_calls(monkeypatch, "solve_height", fails=1, raises=SingularSystem("injected"))
        _, report = synthesize(5)
        assert report.epsilon == F(1, 8)

    def test_exhausted_after_forty_halvings(self, monkeypatch):
        certs = self._count_calls(monkeypatch, "certify", fails=10**6,
                                  raises=CertificationFailed("injected", "count"))
        with pytest.raises(EpsilonExhausted, match="after 40 halvings"):
            synthesize(3)
        assert len(certs) == 41


class TestPlaneLift:
    def test_trefoil_lift(self):
        poly = Poly([0, F(-1, 64), 0, 1])
        plane = PlaneCurve(t_poly(3), lift_from_V(to_V(poly)))
        assert plane.x == Poly([0, -3, 0, 1])
        assert dict(plane.y.items) == {2: F(127, 64), 4: F(-1)}
        assert plane.x.degree == 3 and plane.y.degree == plane_degree(3)

    def test_undeformed_cubic(self):
        y = lift_from_V(to_V(Poly([0, 0, 0, 1])))
        assert dict(y.items) == {2: F(2), 4: F(-1)}

    def test_divided_difference_inverts_lift(self):
        poly = Poly([0, F(-1, 64), 0, 1])
        assert divided_difference(lift_from_V(to_V(poly))).to_poly() == poly

    def test_rejects_non_image(self):
        with pytest.raises(NotInImage):
            lift_from_V(to_V(Poly([0, 0, 1])))  # even poly has V_2 part


class TestCrossings:
    def test_trefoil_middle_crossing(self):
        report = crossings(locate_roots((0, -1, 0, 64), -2, 2))
        mid = report.crossings[1]
        assert mid.u == pytest.approx(0.0, abs=1e-12)
        assert mid.alpha == pytest.approx(math.pi / 2, abs=1e-12)
        assert mid.s == pytest.approx(-math.sqrt(3), abs=1e-12)
        assert mid.t == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_x_coincidence_at_middle(self):
        report = crossings(locate_roots((0, 1), -2, 2))
        c = report.crossings[0]
        x = Poly([0, -3, 0, 1])
        xs, xt = x.eval_float([c.s, c.t])
        assert abs(xs - xt) < 1e-12

    def test_ordering_flags(self):
        report = crossings(locate_roots((0, -1, 0, 64), -2, 2))
        assert len(report.crossings) == 3
        seq = [c.s for c in report.crossings] + [c.t for c in report.crossings]
        assert seq == sorted(seq)

    # R = u^2 - 3 + e has the roots -+sqrt(3 - e), and s_2 - t_1 has the sign of -e:
    # at e = 0 the parameters s_2 = t_1 = 0 coincide
    def test_ordering_proved_below_the_float_margin(self):
        # at e = 2^-150 the proof takes the cells past 2^-150 wide, above the 2^-200 stop
        for e in (F(1, 2**60), F(1, 2**150)):
            report = crossings(locate_roots(ints(Poly([-3 + e, 0, 1])), -2, 2))
            assert [c.u_hi - c.u_lo <= F(1, 2**48) for c in report.crossings] == [True, True]
            assert report.ordering_margin < 1e-8  # far below what the float diagnostic resolves

    def test_ordering_violation_below_the_float_margin(self):
        with pytest.raises(CertificationFailed, match="parameters s_2 and t_1 are out of order"):
            crossings(locate_roots(ints(Poly([-3 - F(1, 2**60), 0, 1])), -2, 2))

    def test_coincident_parameters_are_not_separated(self):
        with pytest.raises(CertificationFailed, match="s_2 and t_1 not separated at width 2"):
            crossings(locate_roots((-3, 0, 1), -2, 2))

    def test_roots_below_minus_one_reverse_s(self):
        # s falls on (-2, -1), so two roots there give s_1 > s_2
        with pytest.raises(CertificationFailed, match="parameters s_1 and s_2 are out of order"):
            crossings(locate_roots((54, 75, 25), -2, 2))  # (u + 9/5)(u + 6/5)

    @given(
        lo=st.fractions(F(-2), F(2), max_denominator=2**20),
        width=st.one_of(st.fractions(F(1, 2**70), F(2), max_denominator=2**70),
                        st.integers(-1, 80).map(lambda k: F(1, 2) ** k)),
        at=st.one_of(st.sampled_from([F(0), F(1), F(1, 3)]), st.fractions(F(0), F(1))),
        scale=st.sampled_from([1, 3, 2**40]),  # cells come unreduced, as (l, h, d)
    )
    @example(lo=F(-2), width=F(2), at=F(1, 3), scale=1)  # wide around the minimum s(-1) = -2
    @example(lo=F(0), width=F(2), at=F(1, 3), scale=1)   # and around the maximum t(1) = 2
    @settings(max_examples=200, deadline=None)
    def test_parameter_enclosures_hold(self, lo, width, at, scale):
        # reference: s, t = (u -+ sqrt(12 - 3u^2)) / 2 in 100-digit decimals
        hi = min(lo + width, F(2))
        if not lo < hi:
            return
        den = math.lcm(lo.denominator, hi.denominator) * scale
        cell = (lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den)
        points = [lo + (hi - lo) * at] + [u for u in (F(-1), F(1)) if lo < u < hi]
        depth = (4 // (hi - lo)).bit_length() - 1  # of the cells on (-2, 2) about this wide
        with localcontext() as ctx:
            ctx.prec = 100
            for sign in (-1, 1):
                e, low, high = knots._parameter_bounds(cell, depth, sign)
                scale = Decimal(2) ** e
                for u in points:
                    d = Decimal(u.numerator) / Decimal(u.denominator)
                    value = (d + sign * (12 - 3 * d * d).sqrt()) / 2
                    assert Decimal(low) / scale <= value <= Decimal(high) / scale

    @pytest.mark.parametrize("nodes", [
        pytest.param((F(1, 4), F(1, 2)), id="n5"),
        pytest.param((F(1, 8), F(1, 4), F(1, 2)), id="n7"),
    ])
    def test_planted_roots_give_the_chain_intervals(self, nodes):
        # dyadic nodes fall on bisection midpoints of (-2, 2)
        n = len(nodes)
        node_set = NodeSet(n, nodes)
        a_poly = solve_deformation(node_set).to_poly()
        chain = SturmChain(a_poly)
        assert root_free(exact_quotient(ints(a_poly), knots.planted_factor(node_set)), -2, 2)
        planted = LocatedRoots(node_set.all_roots(), F(-2), F(2))
        report = crossings(planted)
        assert report == crossings(locate_roots(ints(a_poly), -2, 2))
        width = F(4, 2**knots.ROOT_DEPTH)
        cells = [refine(chain, iv, width) for iv in isolate_roots(chain, -2, 2)]
        assert [(c.u_lo, c.u_hi) for c in report.crossings] == [(iv.lo, iv.hi) for iv in cells]

    def test_planted_roots_locate_without_bisection(self, monkeypatch):
        node_set = NodeSet(3, (F(1, 8), F(1, 4), F(1, 2)))
        a_poly = solve_deformation(node_set).to_poly()
        expected = crossings(locate_roots(ints(a_poly), -2, 2))
        planted = LocatedRoots(node_set.all_roots(), F(-2), F(2))

        def bisection(*args):
            raise AssertionError("crossings bisected on planted roots")

        monkeypatch.setattr(knots, "locate_roots", bisection)
        monkeypatch.setattr(exactpoly, "squarefree", bisection)
        assert crossings(planted) == expected
        # nor does gen, whose R is certified on its planted roots
        assert synthesize(21)[1].n_crossings == 21

    @pytest.mark.parametrize("nodes", [
        pytest.param((F(1, 4), F(1, 2)), id="n5"),
        pytest.param((F(1, 8), F(1, 4), F(1, 2)), id="n7"),
    ])
    def test_certify_locates_the_same_crossings_with_and_without_nodes(self, nodes):
        n = len(nodes)
        curve, report = synthesize(2 * n + 1, nodes=nodes)
        plain = certify(curve.plane.y, None, 2 * n + 1)
        assert [(c.u_lo, c.u_hi) for c in report.crossings] == [
            (c.u_lo, c.u_hi) for c in plain.crossings
        ]

    def test_close_nodes_halve_in_closed_form(self, monkeypatch):
        # s(-11/7) = s(-2/7) = -13/7, so planted roots at -11/7 and -2/7 + 2^-62
        # share their 2^-48 cells' enclosures of s, and the ordering proof takes
        # them deeper, on the planted roots alone: every cell past the first
        # enclosures is one level deeper, in closed form
        enclosures = []
        bounds = knots._parameter_bounds

        def counted(cell, depth, sign):
            enclosures.append(cell)
            return bounds(cell, depth, sign)

        def bisection(*args):
            raise AssertionError("crossings bisected on planted roots")

        monkeypatch.setattr(knots, "_parameter_bounds", counted)
        monkeypatch.setattr(LocatedRoots, "_narrow", bisection)
        monkeypatch.setattr(knots, "locate_roots", bisection)
        monkeypatch.setattr(exactpoly, "squarefree", bisection)
        crossings(LocatedRoots((F(-11, 7), F(-2, 7) + F(1, 2**62)), -2, 2))
        assert len(enclosures) > 2 * 2
        # nodes 2^-62 apart in (-1, 1) are ordered by monotonicity, with no enclosure
        enclosures.clear()
        curve, report = synthesize(5, nodes=[F(1, 4), F(1, 4) + F(1, 2**62)])
        monkeypatch.undo()
        assert enclosures == []
        plain = certify(curve.plane.y, curve.z, 5)
        assert [(c.u_lo, c.u_hi) for c in report.crossings] == [
            (c.u_lo, c.u_hi) for c in plain.crossings
        ]

    @staticmethod
    def _ordering(roots, reference=False):
        """None, or the ordering stage's failure message, of `crossings` on planted roots."""
        with mock.patch.object(knots, "_certify_ordering",
                               certify_ordering if reference else knots._certify_ordering):
            try:
                crossings(LocatedRoots(roots, -2, 2))
            except CertificationFailed as exc:
                assert exc.stage == "ordering"
                return str(exc)
        return None

    @given(roots=st.lists(st.one_of(
        st.fractions(F(-2), F(2), max_denominator=2**20),
        st.fractions(F(-2), F(-1), max_denominator=2**20),   # below -1
        st.fractions(F(1), F(2), max_denominator=2**20),     # above 1
        st.tuples(st.sampled_from([F(-1), F(1)]), st.integers(-2**20, 2**20)).map(
            lambda p: p[0] + F(p[1], 2**40)),                # near -1 and 1
    ), min_size=1, max_size=8, unique=True).map(sorted).filter(lambda r: -2 < r[0] and r[-1] < 2))
    @example(roots=[F(-11, 7), F(-2, 7) + F(1, 2**62)])  # s_1 < s_2, parted deep down
    @example(roots=[F(-11, 7), F(-2, 7) - F(1, 2**62)])  # s_1 and s_2 are out of order
    @example(roots=[F(-11, 7), F(-2, 7)])                # s_1 = s_2 = -13/7: not separated
    @settings(max_examples=200, deadline=None)
    def test_ordering_matches_the_enclosure_reference(self, roots):
        assert self._ordering(roots) == self._ordering(roots, reference=True)

    def test_ordering_reference_examples(self):
        assert self._ordering([F(-11, 7), F(-2, 7) + F(1, 2**62)]) is None
        assert self._ordering([F(-11, 7), F(-2, 7) - F(1, 2**62)]) == (
            "parameters s_1 and s_2 are out of order")
        assert self._ordering([F(-11, 7), F(-2, 7)]) == (
            "parameters s_1 and s_2 not separated at width 2^-200")

    @pytest.mark.parametrize("n", [21, 41, 61])
    def test_gen_curves_need_no_enclosure(self, monkeypatch, n):
        # every planted root lies in (-1, 1), where s and t rise strictly
        calls = []
        bounds = knots._parameter_bounds
        monkeypatch.setattr(knots, "_parameter_bounds", lambda *a: calls.append(a) or bounds(*a))
        curve, report = synthesize(n)
        assert calls == []
        assert certify(curve.plane.y, curve.z, n).signs_alternate
        assert calls == []

    def test_roots_outside_the_unit_interval_take_enclosures(self, monkeypatch, fixture_n9_path):
        # two of the fixture's crossing abscissae lie just outside (-1, 1)
        calls = []
        bounds = knots._parameter_bounds
        monkeypatch.setattr(knots, "_parameter_bounds", lambda *a: calls.append(a) or bounds(*a))
        passed, lines = verify_curve(load_curve(fixture_n9_path))
        assert passed and "ok   parameter ordering holds (margin 1.262e-02)" in lines
        assert calls


class TestHeight:
    def test_n3_exact_solution(self):
        tilde = build_cn_tilde(1)
        nodes = NodeSet(1, (F(1, 8),))
        b, poly = height(1, nodes)
        assert tilde.cn[1](F(1, 8)) == F(191, 12288)
        assert b == (F(1), F(-24576, 191))
        assert poly(0) == 1 and poly(F(1, 8)) == -1 and poly(F(-1, 8)) == -1

    def test_b_evenness(self):
        _, poly = height(2, NodeSet(2, (F(1, 16), F(1, 8))))
        assert not any(poly.coeffs[1::2])

    def test_sign_pattern(self):
        _, poly = height(1, NodeSet(1, (F(1, 8),)))
        values = [poly(u) for u in (F(-1, 8), F(0), F(1, 8))]
        assert values == [-1, 1, -1]

    def test_lift_height_n3(self):
        b, poly = height(1, NodeSet(1, (F(1, 8),)))
        z = lift_from_V(to_V(poly))
        b1 = b[1]
        assert dict(z.items) == {1: 1 + b1 / 3, 5: b1 / 3}
        assert z.degree == 5


class TestSynthesize:
    def test_unknot_diagram(self):
        curve, report = synthesize(1)
        assert dict(curve.plane.y.items) == {2: F(1)}
        assert dict(curve.z.items) == {1: F(-1)}
        assert report.n_crossings == 1
        assert [c.sign for c in report.crossings] == [-1]

    def test_trefoil(self):
        curve, report = synthesize(3)
        assert (curve.plane.x.degree, curve.plane.y.degree, curve.z.degree) == (3, 4, 5)
        assert [c.sign for c in report.crossings] == [-1, 1, -1]
        assert len(report.crossings) == 3 and report.signs_alternate

    def test_degrees_for_nine(self):
        curve, report = synthesize(9)
        assert curve.plane.y.degree == 14
        assert curve.z.degree == 13

    def test_degree_formulas(self):
        assert plane_degree(3) == 4 and height_degree(3) == 5
        assert plane_degree(9) == 14 and height_degree(9) == 13
        assert plane_degree(21) == 32 and height_degree(21) == 31

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            synthesize(4)

    @pytest.mark.parametrize("solve, message", [
        ("solve_deformation", "deg y = 10, expected 14"),
        ("solve_height", "deg z = 11, expected 13"),
    ])
    def test_lift_degree_self_checks(self, monkeypatch, solve, message):
        # a solve that loses its top V term lifts to a curve of the wrong degree
        original = getattr(knots, solve)
        monkeypatch.setattr(knots, solve, lambda nodes: ChebV(original(nodes).items[:-1]))
        with pytest.raises(InternalInconsistency, match=f"^{message}$"):
            synthesize(9)

    @pytest.mark.parametrize("n, epsilon, message", [
        (5, F(3, 2), "0 < epsilon < 3/2 for N = 5, got 3/2"),
        (5, 0, "0 < epsilon < 3/2 for N = 5, got 0"),
        (9, F(-1, 4), "0 < epsilon < 5/4 for N = 9, got -1/4"),
        (1, 0, "0 < epsilon for N = 1, got 0"),
    ])
    def test_rejects_a_start_scale_with_no_node_set(self, monkeypatch, n, epsilon, message):
        # d_n = epsilon n / (n + 1) < 1 needs epsilon < (n + 1) / n; refused before any
        # solve, which here would raise TypeError
        monkeypatch.setattr(knots, "solve_deformation", None)
        with pytest.raises(ValueError, match=f"^epsilon must satisfy {message}$"):
            synthesize(n, epsilon=epsilon)

    def test_largest_start_scales_below_the_bound_certify(self):
        for n, epsilon in ((1, 7), (5, F(149, 100))):
            _, report = synthesize(n, epsilon=epsilon)
            assert report.signs_alternate and all(0 < d < 1 for d in report.nodes)

    def test_explicit_nodes(self):
        curve, report = synthesize(3, nodes=[F(1, 8)])
        assert report.nodes == (F(1, 8),)
        assert dict(curve.plane.y.items) == {2: F(127, 64), 4: F(-1)}

    def test_large_explicit_nodes_still_certify(self):
        # the certified region is much larger than the 'small enough' scale
        # the existence argument needs; even nodes near 1 pass the cofactor certificate
        curve, report = synthesize(5, nodes=[F(3, 4), F(9, 10)])
        assert len(report.crossings) == 5 and report.signs_alternate

    def test_wrong_node_count_rejected(self):
        with pytest.raises(ValueError):
            synthesize(5, nodes=[F(1, 8)])  # N=5 needs two positive nodes

    def test_explicit_nodes_take_no_epsilon(self):
        # explicit nodes run no search, so a scale beside them would only be stored
        with pytest.raises(ValueError, match="^explicit nodes take no epsilon$"):
            synthesize(3, epsilon=F(-5), nodes=[F(1, 8)])

    def test_exact_identities_and_margins(self):
        curve, report = synthesize(7)
        nodes = NodeSet(3, report.nodes)
        a_poly = divided_difference(curve.plane.y).to_poly()
        b_poly = divided_difference(curve.z).to_poly()
        for i, u in enumerate(nodes.all_roots(), start=1):
            assert a_poly(u) == 0
            assert b_poly(u) == (-1) ** i
        assert report.ordering_margin > 1e-8
        assert report.signs_alternate
        assert [c.sign for c in report.crossings] == [(-1) ** i for i in range(1, 8)]

    def test_certify_is_idempotent(self):
        curve, report = synthesize(5)
        again = certify(curve.plane.y, curve.z, 5, NodeSet(2, report.nodes))
        assert again.signs_alternate
        assert [c.sign for c in again.crossings] == [c.sign for c in report.crossings]

    @given(
        n=st.integers(min_value=0, max_value=4),
        eps=st.fractions(min_value=F(1, 64), max_value=F(1, 2), max_denominator=64),
    )
    @settings(max_examples=15, deadline=None)
    def test_certifies_across_node_scales(self, n, eps):
        curve, report = synthesize(2 * n + 1, epsilon=eps)
        assert len(report.crossings) == 2 * n + 1 and report.signs_alternate
        assert curve.plane.y.degree == plane_degree(2 * n + 1)
        assert curve.z.degree == height_degree(2 * n + 1)


class TestExports:
    def test_every_exported_name_resolves(self):
        for name in knotforge.__all__:
            getattr(knotforge, name)
        namespace = {}
        exec("from knotforge import *", namespace)
        assert set(knotforge.__all__) <= set(namespace)
