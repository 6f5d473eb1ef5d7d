"""Acceptance suite: one test per release criterion, each timed and printed.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import json
import math
import random
import time
from fractions import Fraction as F

from c_basis_reference import build_cn_triangular
from knotforge.chebyshev import (
    ChebT,
    divided_difference,
    eps,
    lift_from_V,
    t_poly,
    to_V,
    v_poly,
)
from knotforge.cli import main as cli_main
from knotforge.exactpoly import Poly, _primitive_ints, exact_quotient, locate_roots, root_free
from knotforge.knots import (
    NodeSet,
    build_cn,
    crossing_oracle,
    crossings,
    height_degree,
    plane_degree,
    synthesize,
)
from knotforge.pade import pade
from knotforge.stieltjes import phi
from series_reference import (
    check_pole_locations,
    difference,
    expand,
    hankel_det,
    phi_closed,
    series_sum,
)

FIXTURE_Y = ChebT.of({
    0: F(56), 2: F(-100), 4: F(85), 6: F(-64),
    8: F(42), 10: F(-23), 12: F(10), 14: F(-27, 10),
})


class _Timer:
    def __init__(self, limit: float):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, f"took {self.elapsed:.2f}s, limit {self.limit}s"
        return False


def _report(num: int, text: str, timer: _Timer) -> None:
    print(f"PASS criterion {num}: {text} ({timer.elapsed:.2f}s < {timer.limit:.0f}s)")


def test_criterion_1_cn_table_reproduction():
    expected_monomial = {
        0: Poly([0, 1]),
        1: Poly([0, 0, 0, 1]),
        2: Poly([0] * 5 + [-6, 0, 1]),
        3: Poly([0] * 7 + [F(-9, 2), 0, 1]),
        4: Poly([0] * 9 + [33, 0, -12, 0, 1]),
        5: Poly([0] * 11 + [F(234, 11), 0, F(-102, 11), 0, 1]),
    }
    expected_w = {
        0: (F(1),),
        1: (F(2), F(1)),
        2: (F(-16), F(-10), F(1)),
        3: (F(-21), F(-15), F(7, 2), F(1)),
        4: (F(231), F(176), F(-56), F(-22), F(1)),
        5: (F(260), F(208), F(-910, 11), F(-40), F(52, 11), F(1)),
    }
    with _Timer(1.0) as t:
        basis = build_cn(5)
        for j in range(6):
            assert basis.cn[j] == expected_monomial[j]
            assert basis.cn_w[j] == expected_w[j]
        assert basis.cn_w[5][4] == F(52, 11)
    _report(1, "C_0..C_5 closed forms reproduced exactly (monomial + W coords)", t)


def test_criterion_2_nine_crossing_fixture():
    with _Timer(5.0) as t:
        r_ints, _ = divided_difference(FIXTURE_Y).integer_form()
        assert len(locate_roots(r_ints, -2, 2)) == 9        # certified path
        report = crossings(locate_roots(r_ints, -2, 2))  # ordering + margin
        assert len(report.crossings) == 9
        assert report.ordering_margin > 1e-8
        seq = [c.s for c in report.crossings] + [c.t for c in report.crossings]
        assert seq == sorted(seq)
        assert crossing_oracle(t_poly(3), FIXTURE_Y.to_poly()) == 9  # brute force
    _report(2, "fixture curve: 9 crossings by exact count and by brute force, ordered", t)


def test_criterion_3_full_synthesis_sweep(tmp_path, capsys):
    with _Timer(60.0) as t:
        for n in range(1, 22, 2):
            curve, report = synthesize(n)
            assert curve.plane.x.degree == 3
            assert curve.plane.y.degree == plane_degree(n)
            assert curve.z.degree == height_degree(n)
            assert report.n_crossings == n and len(report.crossings) == n
            assert report.ordering_margin > 1e-8
            assert report.signs_alternate
            assert [c.sign for c in report.crossings] == [(-1) ** i for i in range(1, n + 1)]
            # exact sign certificate at the planted rational nodes
            b_poly = divided_difference(curve.z).to_poly()
            for i, u in enumerate(NodeSet((n - 1) // 2, report.nodes).all_roots(), start=1):
                assert b_poly(u) == (-1) ** i
            # CLI round trip: gen then verify must both exit 0
            path = tmp_path / f"curve_n{n}.json"
            assert cli_main(["gen", "--n", str(n), "--out", str(path)]) == 0
            assert cli_main(["verify", str(path)]) == 0
        capsys.readouterr()
    _report(3, "all odd N in 1..21 synthesize, certify, and round-trip through the CLI", t)


def test_criterion_4_trefoil_cross_check():
    with _Timer(1.0) as t:
        curve, report = synthesize(3)
        degrees = (curve.plane.x.degree, curve.plane.y.degree, curve.z.degree)
        assert degrees == (3, 4, 5)
        assert report.n_crossings == 3
        assert crossing_oracle(curve.plane.x, curve.plane.y.to_poly()) == 3
    _report(4, "trefoil: degrees (3,4,5) and oracle agrees on 3 crossings", t)


def test_criterion_5_stieltjes_suite():
    with _Timer(10.0) as t:
        for n in range(1, 201):
            assert phi(n + 1) / phi(n) == F(2 * (3 * n + 1) * (3 * n - 1),
                                            9 * (n + 1) * (2 * n + 1))
        for k in range(9):
            for n in range(1, 31):
                assert (-1) ** k * difference(k, n) > 0
        for n in range(1, 9):
            for m in range(5):
                assert hankel_det(n, m) > 0
        for u in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert abs(phi_closed(u) - series_sum(u, terms=120)) < 1e-8
    _report(5, "ratio law, total monotonicity, Hankel positivity, closed form", t)


def test_criterion_6_pade_suite():
    with _Timer(10.0) as t:
        for n in range(7):
            for m in range(n + 1):
                a = pade(phi, n, m)
                assert a.q.coeff(0) == 1
                assert a.q.degree == m
                if n >= 1:
                    assert a.p.degree == n
                else:
                    assert a.p.is_zero  # zero-constant-term series forces p = 0
                if n + m >= 1:
                    assert expand(a, n + m) == tuple(phi(k) for k in range(1, n + m + 1))
                nxt = expand(a, n + m + 1)[n + m]
                assert 0 <= nxt < phi(n + m + 1)
                for k, c in enumerate(expand(a, n + m + 10), start=1):
                    assert 0 <= c <= phi(k)
                assert check_pole_locations(a, F(1))
                if m:
                    assert len(locate_roots(_primitive_ints(a.q), 0, 1)) == 0
                    assert a.q(0) == 1 and a.q(1) > 0
    _report(6, "[n/m] structure for all m <= n <= 6: degrees, domination, poles", t)


def test_criterion_7_dual_path_cn():
    with _Timer(5.0) as t:
        via_pade = build_cn(8)
        via_triangular = build_cn_triangular(8)
        for j in range(9):
            assert via_pade.cn[j] == via_triangular.cn[j]
            assert via_pade.cn_w[j] == via_triangular.cn_w[j]
    _report(7, "approximant-path C_n equals triangular-path C_n for n <= 8", t)


def test_criterion_8_identity_suite():
    with _Timer(5.0) as t:
        for a in range(21):
            for b in range(21):
                assert t_poly(a) * t_poly(b) == t_poly(a + b) + t_poly(abs(a - b))
        for k in range(6):
            low = -v_poly(-(6 * k - 3) - 2) if 6 * k - 3 < 0 else v_poly(6 * k - 3)
            assert v_poly(6 * k + 1) - low == t_poly(1) * t_poly(6 * k)
            assert v_poly(6 * k + 6) + v_poly(6 * k) == t_poly(3) * v_poly(6 * k + 3)
        rng = random.Random(91125)
        for _ in range(100):
            alpha = rng.uniform(1e-3, math.pi - 1e-3)
            s = F(2 * math.cos(alpha + math.pi / 3))
            tt = F(2 * math.cos(alpha - math.pi / 3))
            u = F(2 * math.cos(alpha))
            for k in range(1, 31):
                lhs = (t_poly(k)(tt) - t_poly(k)(s)) / (tt - s)
                assert abs(float(lhs - eps(k) * v_poly(k - 1)(u))) < 1e-9
        y = ChebT.of({1: F(3, 7), 2: -2, 4: 5, 8: F(1, 3)})
        assert lift_from_V(divided_difference(y)) == y
        r = to_V(Poly([0, F(-1, 64), 0, 1]))
        assert divided_difference(lift_from_V(r)) == r
    _report(8, "product rule, lattice identities, divided-difference identity, lift", t)


def test_criterion_9_negative_controls(tmp_path, capsys):
    with _Timer(2.0) as t:
        # tampering a stored coefficient must flip verify to exit 2
        path = tmp_path / "n5.json"
        assert cli_main(["gen", "--n", "5", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        idx = next(i for i, c in enumerate(doc["y"]["coeffs"]) if c != "0")
        doc["y"]["coeffs"][idx] = "1/3"
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        assert cli_main(["verify", str(bad)]) == 2
        capsys.readouterr()
        # a deformation with roots in [-2,2] but outside (-1,1) must fail:
        # its cofactor over the planted root 0 keeps the stray ones
        stray = (0, -9, 0, 4)  # roots {0, +-3/2}
        assert len(locate_roots(stray, -2, 2)) == 3
        assert not root_free(exact_quotient(stray, (0, 1)), -2, 2)
    _report(9, "tampered file exits 2; stray roots in [-2,2]\\(-1,1) fail the cofactor certificate", t)
