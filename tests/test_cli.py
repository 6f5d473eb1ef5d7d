import contextlib
import copy
import io
import json
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from knotforge import chebyshev as cb, cli, exactpoly, knots
from knotforge.cli import main
from knotforge.errors import EpsilonExhausted
from knotforge.exactpoly import rat_str, solve_linear
from knotforge.knots import synthesize
from knotforge.serialize import curve_to_dict


BEYOND_DOUBLE = "1" + "0" * 400
# a double, but 10^307 T_14(t) overflows one on [-2.2, 2.2]
WIDE = "1" + "0" * 307
NON_FINITE = re.compile(r"\b(?:nan|inf)\b", re.IGNORECASE)


def dd(doc, key):
    """The divided difference of a document's T series `key`, as a Poly."""
    series = cb.ChebT.of({k: Fraction(c) for k, c in enumerate(doc[key]["coeffs"])})
    return cb.divided_difference(series).to_poly()


def add(doc, key, k, c):
    doc[key]["coeffs"][k] = rat_str(Fraction(doc[key]["coeffs"][k]) + c)


def bump_at_third_node(doc):
    """z minus dd(z)(d_3) T_1: dd(T_1) = V_0 = 1, so dd(z), (-1)^i at crossing i,
    stays even and vanishes at every crossing whose index has d_3's parity."""
    add(doc, "z", 1, -dd(doc, "z")(Fraction(doc["nodes"][2])))


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_trefoil(self, tmp_path, capsys):
        out = tmp_path / "n3.json"
        code, _, err = run(["gen", "--n", "3", "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["N"] == 3 and doc["certified"] is True
        assert len(doc["y"]["coeffs"]) == 5  # degree 4
        assert len(doc["z"]["coeffs"]) == 6  # degree 5
        assert [c["sign"] for c in doc["crossings"]] == [-1, 1, -1]

    def test_even_n_is_usage_error(self, capsys):
        code, _, err = run(["gen", "--n", "4"], capsys)
        assert code == 1
        assert "odd" in err

    def test_nine_has_announced_degrees(self, tmp_path, capsys):
        out = tmp_path / "n9.json"
        code, _, _ = run(["gen", "--n", "9", "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["y"]["coeffs"]) == 15  # degree 14
        assert len(doc["z"]["coeffs"]) == 14  # degree 13

    def test_byte_stable_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["gen", "--n", "5", "--epsilon", "1/4", "--out", str(a)], capsys)
        run(["gen", "--n", "5", "--epsilon", "1/4", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_nodes(self, tmp_path, capsys):
        out = tmp_path / "n3.json"
        code, _, _ = run(["gen", "--n", "3", "--nodes", "1/8", "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["nodes"] == ["1/8"]

    def test_epsilon_override_shapes_nodes(self, tmp_path, capsys):
        out = tmp_path / "n5.json"
        code, _, _ = run(["gen", "--n", "5", "--epsilon", "1/8", "--out", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["epsilon"] == "1/8"
        assert doc["nodes"] == ["1/24", "1/12"]  # eps * i/(n+1) for n = 2

    @pytest.mark.parametrize("epsilon, bound", [
        ("2", "0 < epsilon < 3/2 for N = 5, got 2"),
        ("0", "0 < epsilon < 3/2 for N = 5, got 0"),
        ("-1/4", "0 < epsilon < 3/2 for N = 5, got -1/4"),
    ])
    def test_epsilon_with_no_node_set_is_usage_error(self, capsys, epsilon, bound):
        # d_2 = 2 epsilon / 3 must lie in (0, 1): the refusal names epsilon, not nodes
        code, out, err = run(["gen", "--n", "5", f"--epsilon={epsilon}"], capsys)
        assert (code, out, err) == (1, "", f"knotforge gen: error: epsilon must satisfy {bound}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--epsilon", "-1/4"], "epsilon must satisfy 0 < epsilon < 3/2 for N = 5, got -1/4"),
        (["--nodes", "-1/8,1/4"], "nodes must satisfy 0 < d_1 < ... < d_n < 1"),
        (["--epsilon", "-1/0"], "bad --epsilon: bad epsilon '-1/0': zero denominator"),
        (["--nodes", "-1e5"], "bad --nodes: bad node '-1e5': expected p or p/q"),
    ])
    def test_signed_value_after_its_flag(self, capsys, argv, message):
        # argparse alone reads "-1/4" as an option and prints "expected one
        # argument"; the value reaches the program's own check instead
        code, out, err = run(["gen", "--n", "5", *argv], capsys)
        assert (code, out, err) == (1, "", f"knotforge gen: error: {message}\n")

    @pytest.mark.parametrize("value", ["0.x", "1e-1", "0.1", "1e100000000"])
    @pytest.mark.parametrize("flag", ["--nodes", "--epsilon"])
    def test_bad_nodes_string(self, capsys, flag, value):
        # only the p or p/q rationals of curve files; an exponent would
        # otherwise build a huge integer before any check
        code, out, err = run(["gen", "--n", "3", flag, value], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"knotforge gen: error: bad {flag}: ")

    def test_unknown_flag(self, capsys):
        code, _, _ = run(["gen", "--n", "3", "--frob"], capsys)
        assert code == 1

    def test_epsilon_with_nodes_is_usage_error(self, tmp_path, capsys):
        # explicit nodes run no search: an epsilon beside them would only be stored
        out = tmp_path / "n3.json"
        code, stdout, err = run(["gen", "--n", "3", "--nodes", "1/8", "--epsilon=-5",
                                 "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err.endswith("knotforge gen: error: argument --epsilon: "
                            "not allowed with argument --nodes\n")
        assert not out.exists()

    def test_exhausted_search_is_a_certification_failure(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise EpsilonExhausted("no certified node set for n=1 after 40 halvings")

        monkeypatch.setattr(cli, "synthesize", exhausted)
        out = tmp_path / "n3.json"
        code, stdout, err = run(["gen", "--n", "3", "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == ("knotforge gen: certification failed: "
                       "no certified node set for n=1 after 40 halvings\n")
        assert not out.exists()

    def test_integers_past_the_digit_limit_of_n(self, tmp_path, capsys):
        # a node just above 1/3 with a 1,501-digit denominator certifies, but
        # y and z then carry integers longer than digit_budget(3) lets `verify` read
        out = tmp_path / "n3.json"
        node = f"{10**1500 + 1}/{3 * 10**1500}"
        code, stdout, err = run(["gen", "--n", "3", "--nodes", node, "--out", str(out)], capsys)
        assert code == 1
        assert stdout == ""
        [line] = err.splitlines()
        assert line.startswith("knotforge gen: error: an integer of the curve has more than ")
        assert line.endswith(" digits, the digit limit for N = 3")
        assert not out.exists()


class TestParser:
    def test_calls_share_one_parser(self, capsys):
        cli._build_parser.cache_clear()
        assert run(["phi", "--count", "2"], capsys)[0] == 0
        assert run(["phi", "--count", "3"], capsys)[0] == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_usage_error_on_the_shared_parser_exits_one(self, capsys):
        assert run(["phi", "--count", "2"], capsys)[0] == 0
        code, out, err = run(["phi", "--count", "two"], capsys)
        assert code == 1
        assert out == "" and "invalid int value" in err
        assert run(["phi", "--count", "2"], capsys) == (0, "4/9\n32/243\n", "")


class TestVerify:
    def test_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "n5.json"
        run(["gen", "--n", "5", "--out", str(out)], capsys)
        code, stdout, _ = run(["verify", str(out)], capsys)
        assert code == 0
        assert "VERIFIED" in stdout

    def test_fixture_verifies(self, fixture_n9_path, capsys):
        code, stdout, _ = run(["verify", fixture_n9_path], capsys)
        assert code == 0
        assert "exactly 9 roots" in stdout

    def test_y_above_the_synthesized_degree_is_noted(self, tmp_path, capsys):
        # dd(T_6) = 0, so y + T_6 has the same R and verifies; only its degree differs
        doc = _n3_document()
        doc["y"]["coeffs"] += ["0", "1"]
        path = tmp_path / "n3_t6.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert code == 0
        assert stdout.endswith("note deg y = 6 (canonical synthesized degree is 4)\nVERIFIED\n")

    @pytest.mark.parametrize("nodes", [True, False], ids=["nodes", "nodeless"])
    def test_y_with_zero_image_fails(self, tmp_path, capsys, nodes):
        # dd(T_3) = 0: R is zero, and the count stage fails before any root is sought
        doc = _n3_document()
        doc["y"] = {"basis": "T", "coeffs": ["0", "0", "0", "1"]}
        if not nodes:
            doc.update(nodes=None, epsilon=None)
        path = tmp_path / "n3_t3.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert code == 2
        assert stdout == ("ok   x = T_3\nFAIL divided-difference image of y is zero\n"
                          "NOT VERIFIED\n")

    def test_verifies_without_stored_nodes(self, tmp_path, capsys):
        # sign checks fall back to the refined abscissae when the exact
        # planted nodes are not recorded in the file
        out = tmp_path / "n7.json"
        run(["gen", "--n", "7", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        doc["nodes"] = None
        doc["epsilon"] = None
        anon = tmp_path / "anon.json"
        anon.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(anon)], capsys)
        assert code == 0
        assert "signs alternate" in stdout

    def test_nodeless_height_flat_at_a_crossing_fails(self, tmp_path, capsys):
        # z = T_2 gives dd(z) = V_1 = u, which vanishes at the middle
        # crossing u = 0: there z(t) = z(s) and the strands meet
        out = tmp_path / "n3.json"
        run(["gen", "--n", "3", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        doc.update(nodes=None, epsilon=None, z={"basis": "T", "coeffs": ["0", "0", "1"]})
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(flat)], capsys)
        assert code == 2
        assert "FAIL space verification: z(t) = z(s) at crossing 2\n" in stdout

    def test_height_in_the_kernel_fails_at_the_first_node(self, tmp_path, capsys):
        # z = T_3 - 2 T_6 lies in the kernel of the divided difference: dd(z) = 0,
        # which is (-1)^i at no planted root, and the first, -d_10 = -5/22, is named
        out = tmp_path / "n21.json"
        run(["gen", "--n", "21", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        doc["z"] = {"basis": "T", "coeffs": ["0", "0", "0", "1", "0", "0", "-2"]}
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert code == 2
        assert stdout.endswith("ok   parameter ordering holds (margin 9.226e-03)\n"
                               "FAIL space verification: dd(z)(-5/22) != -1\nNOT VERIFIED\n")

    def test_height_wrong_at_one_node_names_that_node(self, tmp_path, capsys):
        # z plus the lift of an f in the image of dd with f = 1 at the 15th
        # planted root, 1/11, and 0 at the other 20: only 1/11 fails
        curve, report = synthesize(21)
        roots = sorted([-d for d in report.nodes] + [Fraction(0)] + list(report.nodes))
        image = [j for j in range(2 * len(roots)) if j % 3 != 2][:len(roots)]
        nums, den = solve_linear([[cb.v_poly(j)(u) for j in image] for u in roots],
                                 [Fraction(i == 14) for i in range(len(roots))])
        values = {j: Fraction(v, den) for j, v in zip(image, nums)}
        z = dict(curve.z.items)
        for k, c in cb.lift_from_V(cb.ChebV.of(values)).items:
            z[k] = z.get(k, 0) + c
        doc = curve_to_dict(21, curve.plane.x, curve.plane.y, cb.ChebT.of(z), report)
        path = tmp_path / "bumped.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert code == 2
        assert stdout.endswith("FAIL space verification: dd(z)(1/11) != -1\nNOT VERIFIED\n")

    @pytest.fixture(scope="class")
    def gen_docs(self):
        docs = {}
        for n in (21, 61):
            curve, report = synthesize(n)
            docs[n] = curve_to_dict(n, curve.plane.x, curve.plane.y, curve.z, report)
        return docs

    @pytest.mark.parametrize("edit", ["double", "third", "flip"])
    @pytest.mark.parametrize("n", [21, 61])
    def test_one_verdict_with_and_without_nodes(self, tmp_path, capsys, gen_docs, n, edit):
        # the certificate is the sign of dd(z) at each crossing, stored nodes or
        # not: a positive scale of z keeps every sign, and one visible
        # coefficient negated (a seeded choice) breaks one
        doc = copy.deepcopy(gen_docs[n])
        coeffs = doc["z"]["coeffs"]
        if edit == "flip":
            k = random.Random(n).choice([k for k, c in enumerate(coeffs) if k % 3 and c != "0"])
            coeffs[k] = rat_str(-Fraction(coeffs[k]))
        else:
            scale = 2 if edit == "double" else Fraction(1, 3)
            doc["z"]["coeffs"] = [rat_str(Fraction(c) * scale) for c in coeffs]
        codes = []
        for nodes, epsilon in ((doc["nodes"], doc["epsilon"]), (None, None)):
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(dict(doc, nodes=nodes, epsilon=epsilon)))
            codes.append(run(["verify", str(path)], capsys)[0])
        assert codes == ([2, 2] if edit == "flip" else [0, 0])

    @pytest.mark.parametrize("n,edit,line", [
        pytest.param(41, "z_is_y", 1, id="41"),
        pytest.param(61, "z_is_y", 1, id="61"),
        pytest.param(41, "bump", 2, id="bump-41"),
        pytest.param(61, "bump", 2, id="bump-61"),
    ])
    def test_nodeless_height_equal_to_y_fails_in_bounded_time(self, tmp_path, capsys, monkeypatch,
                                                              n, edit, line):
        # z = y gives dd(z) = R, which vanishes at every crossing; the bump at
        # d_3 makes dd(z) vanish at every crossing whose index has d_3's
        # parity.  Each zero is read off the gcd's signs at its cell's ends,
        # and no root of the gcd is isolated in any crossing's cell
        out = tmp_path / f"n{n}.json"
        run(["gen", "--n", str(n), "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        if edit == "bump":
            bump_at_third_node(doc)
        else:
            doc["z"] = doc["y"]
        doc.update(nodes=None, epsilon=None)
        path = tmp_path / f"{edit}.json"
        path.write_text(json.dumps(doc))
        signing, isolations = [], []
        real_signs, real_locate = knots.signs_at_roots, exactpoly.locate_roots

        def signs(*args):
            signing.append(True)
            try:
                return real_signs(*args)
            finally:
                signing.pop()

        def locate(*args):
            isolations.extend(signing[-1:])  # an isolation asked by signs_at_roots
            return real_locate(*args)

        monkeypatch.setattr(knots, "signs_at_roots", signs)
        monkeypatch.setattr(exactpoly, "locate_roots", locate)
        start = time.perf_counter()
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert stdout.endswith(f"FAIL space verification: z(t) = z(s) at crossing {line}\n"
                               "NOT VERIFIED\n")
        assert isolations == []

    @pytest.mark.parametrize("edit,line", [
        pytest.param("bump", "FAIL space verification: z(t) = z(s) at crossing 2", id="bump"),
        pytest.param("double", "FAIL R has 39 roots in (-2, 2), expected 61", id="double"),
    ])
    def test_nodeless_hostile_edit_fails_in_bounded_time(self, tmp_path, capsys, gen_docs,
                                                         edit, line):
        # two edits of the N = 61 file at its third node d_3, node-less, each
        # decided by a gcd: of R and dd(z), or of R and R'
        doc = copy.deepcopy(gen_docs[61])
        if edit == "bump":
            bump_at_third_node(doc)
        else:
            # c_1 T_2 - c_3 T_4 adds c_1 V_1 + c_3 V_3 = c_3 u (u^2 - d_3^2) to R,
            # whose slope 2 c_3 d_3^2 at d_3 cancels R'(d_3): d_3 is a double root
            d3 = Fraction(doc["nodes"][2])
            c3 = -dd(doc, "y").derivative()(d3) / (2 * d3 * d3)
            add(doc, "y", 2, -c3 * (d3 * d3 - 2))
            add(doc, "y", 4, -c3)
        path = tmp_path / f"{edit}.json"
        path.write_text(json.dumps(dict(doc, nodes=None, epsilon=None)))
        start = time.perf_counter()
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert stdout.endswith(line + "\nNOT VERIFIED\n")

    def test_root_shared_by_a_q_of_no_parity_is_found_in_bounded_time(self):
        # q = dd(z) (u - d_1) has no parity, so its signs on R = u S(u^2) at
        # N = 61 are decided on R's cells, and it vanishes at the crossing
        # d_1 (index n + 1), which only the gcd of R and q shows
        curve, report = synthesize(61)
        n = len(report.nodes)
        r = cb.divided_difference(curve.plane.y).integer_form()[0]
        located = exactpoly.locate_roots(exactpoly._content_free(r), -2, 2)
        dz = cb.divided_difference(curve.z).integer_form()[0]
        q = exactpoly._primitive_ints(exactpoly.Poly(dz) * exactpoly.Poly([-report.nodes[0], 1]))
        start = time.perf_counter()
        signs = exactpoly.signs_at_roots(located, q, located.cells(knots.ROOT_DEPTH))
        assert time.perf_counter() - start < 10.0
        assert signs == [0 if i == n + 1 else (-1) ** (i + 1) * (1 if i > n + 1 else -1)
                         for i in range(2 * n + 1)]

    @pytest.mark.parametrize("nodes", [[], None], ids=["nodes", "nodeless"])
    def test_tangent_crossing_fails(self, tmp_path, capsys, nodes):
        # y = -T_4 + 2 T_2 gives R = u^3: the one crossing u = 0 is a
        # threefold root of R, a tangency and not a transverse double point
        doc = {
            "N": 1, "epsilon": None, "nodes": nodes,
            "x": {"basis": "monomial", "coeffs": ["0", "-3", "0", "1"]},
            "y": {"basis": "T", "coeffs": ["0", "0", "2", "0", "-1"]},
            "z": {"basis": "T", "coeffs": ["0", "-1"]},
            "crossings": [], "certified": True,
        }
        path = tmp_path / "tangent.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert code == 2
        assert stdout == ("ok   x = T_3\nFAIL R has a repeated root in (-2, 2): "
                          "a crossing is not transverse\nNOT VERIFIED\n")

    def test_unordered_parameters_fail(self, tmp_path, capsys):
        # R has the seven roots 0, +-sqrt(3/2), +-sqrt(9/5), +-sqrt(27/10); three lie
        # below -1, where s falls, so s_1 > s_2 and the ordering stage fails
        doc = {
            "N": 7, "epsilon": None, "nodes": None,
            "x": {"basis": "monomial", "coeffs": ["0", "-3", "0", "1"]},
            "y": {"basis": "T", "coeffs": ["0", "0", "-7/100", "0", "-161/100", "0", "0", "0", "1"]},
            "z": None, "crossings": [], "certified": True,
        }
        path = tmp_path / "unordered.json"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert code == 2
        assert stdout == ("ok   x = T_3\nok   R has exactly 7 roots in (-2, 2) [exact]\n"
                          "FAIL ordering: parameters s_1 and s_2 are out of order\nNOT VERIFIED\n")

    def test_high_degree_x_fails_without_expansion(self, tmp_path, capsys, fixture_n9_path):
        # x = T_40000, a 240 KB file, is above the cap 4N + 64 = 100 of N = 9:
        # verify and export refuse it unexpanded (export ran past a minute,
        # expanding it, before x had a cap)
        with open(fixture_n9_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["x"] = {"basis": "T", "coeffs": ["0"] * 40000 + ["1"]}
        path = tmp_path / "x40000.json"
        path.write_text(json.dumps(doc))
        cap = "x has degree 40000, above the cap 4N + 64 = 100\n"
        for command, prefix in ((["verify"], "knotforge verify: bad schema: "),
                                (["export", "--csv", "--samples", "50"],
                                 "knotforge export: bad curve file: ")):
            start = time.perf_counter()
            assert run([*command, str(path)], capsys) == (1, "", prefix + cap)
            assert time.perf_counter() - start < 2.0

    def test_huge_n_fails_the_count_before_isolation(self, tmp_path, capsys, fixture_n9_path):
        # N = 1,000,000,001 and y = T_2000 are under the cap 4N + 64, and R has
        # degree 1999 < N: the count fails at once, where isolating R ran past 10 s
        with open(fixture_n9_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["N"], doc["y"] = 10**9 + 1, {"basis": "T", "coeffs": ["0"] * 2000 + ["1"]}
        path = tmp_path / "huge_n.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run(["verify", str(path)], capsys) == (
            2, "ok   x = T_3\nFAIL R has degree 1999, fewer than 1000000001 roots in (-2, 2)\n"
               "NOT VERIFIED\n", "")
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("key,command,expected", [
        pytest.param("x", ["verify"], (1, "", "knotforge verify: bad schema: x has degree 10000, "
                                      "above the cap 4 len(y) + 64 = 124\n"), id="x-verify"),
        pytest.param("x", ["export", "--csv", "--samples", "50"],
                     (1, "", "knotforge export: bad curve file: x has degree 10000, above the "
                      "cap 4 len(y) + 64 = 124\n"), id="x-export"),
        pytest.param("y", ["verify"], (2, "ok   x = T_3\nFAIL R has degree 9999, fewer than "
                                      "1000000001 roots in (-2, 2)\nNOT VERIFIED\n", ""),
                     id="y-verify"),
        pytest.param("y", ["export", "--csv", "--samples", "50"],
                     (1, "", "knotforge export: bad curve file: a y value is beyond the double "
                      "range on [-2.2, 2.2]\n"), id="y-export"),
    ])
    def test_huge_n_sizes_nothing(self, tmp_path, capsys, fixture_n9_path, key, command,
                                  expected):
        # N = 1,000,000,001 with x or y = T_10000: y's 15 coefficients, not N, set
        # the cap 4 len(y) + 64 that refuses x, and R's top V index fails the count
        # before R is expanded; expanding either takes seconds, which the time
        # bound would catch
        with open(fixture_n9_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["N"], doc[key] = 10**9 + 1, {"basis": "T", "coeffs": ["0"] * 10000 + ["1"]}
        path = tmp_path / "huge_n.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert run([*command, str(path)], capsys) == expected
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("command", [
        pytest.param(["verify"], id="verify"),
        pytest.param(["export", "--csv", "--samples", "50"], id="export"),
    ])
    @pytest.mark.parametrize("zero", ["0", "-0/3"])
    def test_padded_y_sizes_nothing(self, tmp_path, capsys, fixture_n9_path, command, zero):
        # the same claim with x = T_10000 and y padded with 10,000 zeros: len(y)
        # counts up to y's last nonzero coefficient, -27/10, however the zeros
        # are spelled, so the cap stays 124 and x is refused unexpanded
        with open(fixture_n9_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["N"], doc["x"] = 10**9 + 1, {"basis": "T", "coeffs": ["0"] * 10000 + ["1"]}
        doc["y"]["coeffs"] += [zero] * 10000
        path = tmp_path / "padded.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        what = "bad schema" if command == ["verify"] else "bad curve file"
        assert run([*command, str(path)], capsys) == (
            1, "", f"knotforge {command[0]}: {what}: x has degree 10000, above the cap "
                   "4 len(y) + 64 = 124\n")
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("command,expected", [
        pytest.param(["verify"], (2, "ok   x = T_3\nFAIL R has degree 1599, fewer than 1601 "
                                     "roots in (-2, 2)\nNOT VERIFIED\n", ""), id="verify"),
        pytest.param(["export", "--csv", "--samples", "50"],
                     (1, "", "knotforge export: bad curve file: a y coefficient is beyond the "
                      "double range\n"), id="export"),
    ])
    def test_monomial_y_converts_fast(self, tmp_path, capsys, fixture_n9_path, command,
                                      expected):
        # N = 1601 with y the monomial t^1600, under the cap: its change into the
        # T basis is one integer Horner in t and a suffix sum, where a Fraction
        # back-substitution took seconds
        with open(fixture_n9_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["N"], doc["y"] = 1601, {"basis": "monomial", "coeffs": ["0"] * 1600 + ["1"]}
        path = tmp_path / "monomial_y.json"
        path.write_text(json.dumps(doc))
        cb._family_ints.cache_clear()
        start = time.perf_counter()
        assert run([*command, str(path)], capsys) == expected
        assert time.perf_counter() - start < 1.0

    def test_high_degree_x_export_fails_fast(self, tmp_path, capsys):
        # under the cap 4N + 64 = 804 of N = 185, x = T_800 is expanded once:
        # its closed-form integer coefficients, not a recurrence on rational
        # polynomials (y ends in a T_186 term, so that N, not len(y), sets the
        # cap; T_186 is in the kernel of the divided difference, so R is kept)
        out = tmp_path / "n21.json"
        run(["gen", "--n", "21", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        doc["N"], doc["x"] = 185, {"basis": "T", "coeffs": ["0"] * 800 + ["1"]}
        doc["y"]["coeffs"] += ["0"] * (186 - len(doc["y"]["coeffs"])) + ["1"]
        path = tmp_path / "x800.json"
        path.write_text(json.dumps(doc))
        cb._family_ints.cache_clear()
        start = time.perf_counter()
        code, _, err = run(["export", "--svg", str(path), "--out", str(tmp_path / "x800.svg")],
                           capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.endswith("a x value is beyond the double range on [-2.2, 2.2]\n")
        code, stdout, _ = run(["verify", str(path)], capsys)
        assert code == 2
        assert stdout == "FAIL x is not the monic degree-3 cosine polynomial t^3 - 3t\nNOT VERIFIED\n"

    def test_node_off_the_roots_fails(self, tmp_path, capsys):
        out = tmp_path / "n7.json"
        run(["gen", "--n", "7", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        assert doc["nodes"] == ["1/16", "1/8", "3/16"]
        doc["nodes"][-1] = "1/3"
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(moved)], capsys)
        assert code == 2
        assert stdout == ("ok   x = T_3\nok   R has exactly 7 roots in (-2, 2) [exact]\n"
                          "FAIL stored node -1/3 is not a root of R\nNOT VERIFIED\n")

    @pytest.mark.parametrize("n_stored", [5, 9])
    def test_wrong_n_with_stored_nodes_fails_the_count_without_isolation(
            self, tmp_path, capsys, monkeypatch, n_stored):
        # the certified cofactor proves that R has exactly the 7 planted roots,
        # so the count fails with no isolation of R
        out = tmp_path / "n7.json"
        run(["gen", "--n", "7", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        doc["N"] = n_stored
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps(doc))

        def no_isolation(*args, **kwargs):
            raise AssertionError("R was isolated")

        monkeypatch.setattr(knots, "locate_roots", no_isolation)
        assert run(["verify", str(wrong)], capsys) == (
            2, f"ok   x = T_3\nFAIL R has 7 roots in (-2, 2), expected {n_stored}\n"
               "NOT VERIFIED\n", "")

    def test_series_x_exports_like_its_monomial_form(self, tmp_path, capsys):
        out = tmp_path / "n5.json"
        run(["gen", "--n", "5", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        rendered = []
        for x in ({"basis": "T", "coeffs": ["0", "0", "0", "0", "0", "1"]},
                  {"basis": "monomial", "coeffs": ["0", "5", "0", "-5", "0", "1"]}):
            path = tmp_path / "x5.json"
            path.write_text(json.dumps(dict(doc, x=x)))
            code, _, _ = run(["export", "--svg", str(path), "--out", str(tmp_path / "x5.svg")],
                             capsys)
            assert code == 0
            rendered.append((tmp_path / "x5.svg").read_bytes())
        assert rendered[0] == rendered[1]

    def test_tampered_coefficient_fails(self, tmp_path, capsys):
        out = tmp_path / "n5.json"
        run(["gen", "--n", "5", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        coeffs = doc["y"]["coeffs"]
        idx = next(i for i, c in enumerate(coeffs) if c not in ("0",))
        coeffs[idx] = "1/3"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(tampered)], capsys)
        assert code == 2
        assert "FAIL" in stdout

    @pytest.mark.parametrize("coordinate", ["y", "z"])
    def test_constant_beyond_double_range(self, tmp_path, capsys, coordinate):
        # T_0 is in the kernel of the divided difference: a huge constant
        # moves the curve, not its crossings, and the decimal checks must
        # scale their precision to it instead of overflowing a float
        out = tmp_path / "n5.json"
        run(["gen", "--n", "5", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        doc[coordinate]["coeffs"][0] = BEYOND_DOUBLE
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(big)], capsys)
        assert code == 0
        assert stdout.endswith("VERIFIED\n") and "FAIL" not in stdout

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(["verify", str(tmp_path / "nope.json")], capsys)
        assert code == 1

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(["verify", str(bad)], capsys)
        assert code == 1

    def test_schema_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"N": 3, "x": {"basis": "monomial", "coeffs": ["0"]}}))
        code, _, _ = run(["verify", str(bad)], capsys)
        assert code == 1


def _set_node(doc, value):
    doc["nodes"][0] = value


def _set_y_coefficient(doc, value):
    doc["y"]["coeffs"][1] = value


def _raise_degree(doc, coordinate, degree):
    """Pad a coordinate with zeros to the given degree, with a 1 on top."""
    coeffs = doc[coordinate]["coeffs"]
    coeffs.extend(["0"] * (degree - len(coeffs)) + ["1"])


class TestVerifyMalformed:
    """Malformed files exit 1 with a one-line schema reason, never a traceback."""

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda d: _set_node(d, "3/2"), id="node-above-one"),
            pytest.param(lambda d: _set_node(d, "0"), id="node-zero"),
            pytest.param(lambda d: _set_node(d, "-1/8"), id="node-negative"),
            pytest.param(lambda d: _set_node(d, d["nodes"][1]), id="node-repeated"),
            pytest.param(lambda d: _set_y_coefficient(d, 1), id="int-coefficient"),
            pytest.param(lambda d: _set_y_coefficient(d, "1/0"), id="zero-denominator"),
            pytest.param(lambda d: d.update(nodes="1/8"), id="nodes-string"),
            pytest.param(lambda d: d.update(epsilon=0.25), id="epsilon-float"),
            pytest.param(lambda d: d.update(N=True), id="n-bool"),
            pytest.param(lambda d: d["z"].update(coeffs="0"), id="coeffs-string"),
            pytest.param(lambda d: d.update(epsilon="1e5"), id="epsilon-exponent"),
            pytest.param(lambda d: _set_y_coefficient(d, "0.5"), id="decimal-coefficient"),
            pytest.param(lambda d: _set_y_coefficient(d, "1_000"), id="underscore-coefficient"),
            # the cap is 4N + 64 = 84 for N = 5
            pytest.param(lambda d: _raise_degree(d, "y", 85), id="y-degree-above-cap"),
            pytest.param(lambda d: _raise_degree(d, "z", 85), id="z-degree-above-cap"),
            pytest.param(lambda d: _raise_degree(d, "x", 85), id="x-degree-above-cap"),
            pytest.param(lambda d: d.update(y={"basis": "monomial", "coeffs": ["0"] * 85 + ["1"]}),
                         id="monomial-y-degree-above-cap"),
        ],
    )
    def test_exits_one_with_schema_reason(self, tmp_path, capsys, mutate):
        out = tmp_path / "n5.json"
        run(["gen", "--n", "5", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, err = run(["verify", str(bad)], capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith("knotforge verify: bad schema: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("value", [0, {}, "", False], ids=["zero", "object", "string", "false"])
    @pytest.mark.parametrize("command,reason", [
        (["verify"], "bad schema"), (["export", "--svg"], "bad curve file")])
    def test_crossings_not_a_list_exit_one(self, tmp_path, capsys, fixture_n9_path, value,
                                           command, reason):
        # only a missing key or null means no stored crossings; a false value
        # that is not a list is as malformed as a true one
        with open(fixture_n9_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["crossings"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, err = run([*command, str(bad)], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"knotforge {command[0]}: {reason}: crossings must be a list of objects\n"

    @pytest.mark.parametrize("crossing, reason", [
        (1, "crossing 1 is not an object"),
        ({"s": "x"}, "crossing 1 needs finite numeric 's' and 't'"),
    ], ids=["not-an-object", "non-numeric-s"])
    @pytest.mark.parametrize("command,prefix", [
        (["verify"], "bad schema"), (["export", "--svg"], "bad curve file")])
    def test_malformed_crossing_exits_one(self, tmp_path, capsys, fixture_n9_path, crossing,
                                          reason, command, prefix):
        with open(fixture_n9_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["crossings"][0] = crossing if crossing == 1 else {**doc["crossings"][0], **crossing}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, stdout, err = run([*command, str(bad)], capsys)
        assert (code, stdout) == (1, "")
        assert err == f"knotforge {command[0]}: {prefix}: {reason}\n"

    def test_missing_nodes_is_a_certificate_failure(self, tmp_path, capsys):
        # every stored node is a genuine root, but too few of them are
        # stored to name one planted root per crossing
        out = tmp_path / "n5.json"
        run(["gen", "--n", "5", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        doc["nodes"] = []
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps(doc))
        code, stdout, _ = run(["verify", str(bad)], capsys)
        assert code == 2
        assert "FAIL 0 stored nodes give 1 planted roots, expected 5" in stdout


class TestTables:
    def test_cn_table(self, capsys):
        code, out, _ = run(["cn-table", "--max", "5"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "C_0 = t = W_0"
        assert lines[1] == "C_1 = t^3 = W_1 + 2*W_0"
        assert lines[2] == "C_2 = t^5 * (t^2 - 6) = W_2 - 10*W_1 - 16*W_0"
        assert "52/11*W_4" in lines[5] and "t^11" in lines[5]

    def test_phi(self, capsys):
        code, out, _ = run(["phi", "--count", "2"], capsys)
        assert code == 0
        assert out.splitlines() == ["4/9", "32/243"]

    def test_phi_past_the_digit_limit_exits_one(self, capsys):
        # phi_3006's denominator has 4,301 digits, one past CPython's default limit
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this Python has no integer digit limit")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(["phi", "--count", "3006"], capsys)
        finally:
            sys.set_int_max_str_digits(old)
        assert code == 1
        assert len(out.splitlines()) == 3005
        assert err == ("knotforge phi: error: phi_3006 has an integer of more than 4300 digits, "
                       "the integer digit limit\n")

    def test_pade(self, capsys):
        code, out, _ = run(["pade", "--k", "1", "--l", "1"], capsys)
        assert code == 0
        assert out.splitlines() == ["P: 0 4/9", "Q: 1 -8/27"]

    def test_pade_rejects_l_above_k(self, capsys):
        code, _, _ = run(["pade", "--k", "1", "--l", "2"], capsys)
        assert code == 1


class TestExport:
    def test_svg_gap_count(self, tmp_path, capsys):
        out = tmp_path / "n3.json"
        run(["gen", "--n", "3", "--out", str(out)], capsys)
        svg_path = tmp_path / "n3.svg"
        code, _, _ = run(["export", "--svg", str(out), "--out", str(svg_path)], capsys)
        assert code == 0
        svg = svg_path.read_text()
        # 3 under-strand gaps cut the curve into 4 polyline segments
        assert svg.count("<polyline") == 4
        assert svg.startswith("<svg ")

    def test_svg_gaps_do_not_merge_when_crossings_cluster(self, tmp_path, capsys):
        # the 9 under-parameters sit ~0.02 apart; the gap width must adapt
        # or neighboring cuts fuse and strands disappear
        out = tmp_path / "n9.json"
        run(["gen", "--n", "9", "--out", str(out)], capsys)
        code, svg, _ = run(["export", "--svg", "--samples", "2000", str(out)], capsys)
        assert code == 0
        assert svg.count("<polyline") == 10

    @pytest.mark.parametrize("fmt", ["--svg", "--csv"])
    def test_samples_above_the_bound_exit_one(self, fixture_n9_path, tmp_path, capsys, fmt):
        # rejected before any sampling: no grid is built and no file written
        out = tmp_path / "out"
        code, stdout, err = run(["export", fmt, "--samples", "1000001", fixture_n9_path,
                                 "--out", str(out)], capsys)
        assert (code, stdout) == (1, "")
        assert err == "knotforge export: error: --samples must be between 2 and 1000000\n"
        assert not out.exists()

    def test_plane_only_svg_is_unbroken(self, fixture_n9_path, capsys):
        code, out, _ = run(["export", "--svg", fixture_n9_path, "--samples", "800"], capsys)
        assert code == 0
        assert out.count("<polyline") == 1

    def test_csv(self, tmp_path, capsys):
        out = tmp_path / "n3.json"
        run(["gen", "--n", "3", "--out", str(out)], capsys)
        code, stdout, _ = run(["export", "--csv", "--samples", "100", str(out)], capsys)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "t,x,y,z"
        assert len(lines) == 101

    def test_csv_plane_only_drops_z_column(self, fixture_n9_path, capsys):
        code, stdout, _ = run(["export", "--csv", "--samples", "50", fixture_n9_path], capsys)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "t,x,y"
        assert all(line.count(",") == 2 for line in lines)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda d: [d], id="array-document"),
            pytest.param(lambda d: dict(d, crossings="abc"), id="crossings-string"),
            pytest.param(lambda d: dict(d, crossings=[dict(c, sign="x") for c in d["crossings"]]),
                         id="sign-string"),
            pytest.param(lambda d: dict(d, y=dict(d["y"], basis="V")), id="y-in-v-basis"),
            pytest.param(lambda d: dict(d, y={"basis": "T", "coeffs": [BEYOND_DOUBLE, "1"]}),
                         id="y-beyond-double"),
            pytest.param(lambda d: dict(d, y={"basis": "T", "coeffs": ["0"] * 14 + [WIDE]}),
                         id="y-value-beyond-double"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["--svg", "--csv"])
    def test_malformed_file_exits_one(self, tmp_path, capsys, mutate, fmt):
        out = tmp_path / "n3.json"
        run(["gen", "--n", "3", "--out", str(out)], capsys)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(mutate(json.loads(out.read_text()))))
        code, stdout, err = run(["export", fmt, str(bad)], capsys)
        assert code == 1
        assert stdout == ""
        assert err.startswith("knotforge export: bad curve file: ")
        assert err.count("\n") == 1

    def test_height_beyond_double_fails_only_the_csv(self, tmp_path, capsys):
        # the SVG never samples z, so only the CSV sees it overflow
        out = tmp_path / "n3.json"
        run(["gen", "--n", "3", "--out", str(out)], capsys)
        doc = json.loads(out.read_text())
        doc["z"]["coeffs"] += ["0"] * (14 - len(doc["z"]["coeffs"])) + [WIDE]
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["export", "--csv", str(bad)], capsys)
        assert code == 1
        assert err.endswith("a z value is beyond the double range on [-2.2, 2.2]\n")
        code, svg, _ = run(["export", "--svg", str(bad)], capsys)
        assert code == 0 and not NON_FINITE.search(svg)

    def test_svg_span_beyond_double_exits_one(self, tmp_path, capsys):
        # every sample fits a double, but max(y) - min(y) does not
        out = tmp_path / "n3.json"
        run(["gen", "--n", "3", "--out", str(out)], capsys)
        doc = dict(json.loads(out.read_text()), y={"basis": "T", "coeffs": ["0", "8" + "0" * 307]})
        bad = tmp_path / "span.json"
        bad.write_text(json.dumps(doc))
        code, stdout, err = run(["export", "--svg", str(bad)], capsys)
        assert (code, stdout) == (1, "")
        assert err == ("knotforge export: bad curve file: "
                       "the y range of the curve cannot be scaled in doubles\n")
        code, csv, _ = run(["export", "--csv", str(bad)], capsys)
        assert code == 0 and not NON_FINITE.search(csv)

    @pytest.mark.parametrize("n,samples", [(49, "2"), (3, "1200")])
    def test_svg_flat_range_far_from_zero_is_drawn(self, tmp_path, capsys, n, samples):
        # y is even, so at 2 samples y(-2.2) = y(2.2), about 10^15 at N = 49, and
        # a constant 2 * 10^20 is flat at any count: the 0.05 pad is lost in
        # rounding, so the range is padded by 0.05 |y| instead
        path = tmp_path / "curve.json"
        run(["gen", "--n", str(n), "--out", str(path)], capsys)
        if n == 3:
            doc = dict(json.loads(path.read_text()), y={"basis": "T", "coeffs": ["1" + "0" * 20]})
            path.write_text(json.dumps(doc))
        code, svg, err = run(["export", "--svg", "--samples", samples, str(path)], capsys)
        assert (code, err) == (0, "")
        assert "<polyline" in svg and not NON_FINITE.search(svg)
        points = [float(v) for v in re.findall(r"-?[0-9]+\.[0-9]+", svg.split("points=", 1)[1])]
        assert points and all(0 <= v <= 800 for v in points)

    def test_requires_format_flag(self, tmp_path, capsys):
        out = tmp_path / "n3.json"
        run(["gen", "--n", "3", "--out", str(out)], capsys)
        code, _, _ = run(["export", str(out)], capsys)
        assert code == 1


class TestUnusableFiles:
    """Bytes that do not decode and paths that cannot be written exit 1 with
    one stderr line, never a traceback."""

    @pytest.mark.parametrize("content", [
        pytest.param(b"\xff\xfe", id="not-utf8"),
        pytest.param(b'{"N": ' + b"9" * 4301 + b"}", id="integer-past-digit-limit"),
        pytest.param(b"[" * 200_000, id="deep-nesting"),
    ])
    @pytest.mark.parametrize("command", [["verify"], ["export", "--svg"], ["export", "--csv"]])
    def test_unreadable_file(self, tmp_path, capsys, content, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run([*command, str(bad)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"knotforge {command[0]}: cannot read {bad}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("value", [
        pytest.param("9" * 5000, id="past-digit-limit"),
        pytest.param("9" * 3000 + "/0", id="zero-denominator"),
        pytest.param("x" * 5000, id="not-a-rational"),
    ])
    @pytest.mark.parametrize("command", [["verify"], ["export", "--csv"]])
    def test_long_value_is_clipped(self, tmp_path, capsys, fixture_n9_path, value, command):
        with open(fixture_n9_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        _set_y_coefficient(doc, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run([*command, str(bad)], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert f"... ({len(value)} characters)" in err

    @pytest.mark.parametrize("command", ["gen", "export"])
    def test_unwritable_out(self, tmp_path, capsys, fixture_n9_path, command):
        argv = ["gen", "--n", "3"] if command == "gen" else ["export", "--csv", str(fixture_n9_path)]
        target = tmp_path / "missing" / "x.out"
        code, out, err = run([*argv, "--out", str(target)], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"knotforge {command}: cannot write {target}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


# -- fuzzing -----------------------------------------------------------------------

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.sampled_from(["basis", "coeffs", "s", "t", "sign"]), st.integers(-1, 1),
                    max_size=2),
)
rational_values = st.one_of(
    st.sampled_from([BEYOND_DOUBLE, "-" + BEYOND_DOUBLE, "1/" + BEYOND_DOUBLE]),
    st.sampled_from(["0", "1/3", "-1", "1/0", "1e5", "0.5", " 1/2", ""]),
    st.fractions(max_denominator=10**6).map(rat_str),
    json_values,
)


@st.composite
def mutated_documents(draw, bases):
    """A stored curve with one to three fields edited, replaced or dropped.

    Returns (document, raised): sometimes the x, y or z of a document whose
    N is still a small odd integer is then padded to a degree above the cap
    4N + 64, and raised is True.
    """
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        field = draw(st.sampled_from(["x", "y", "z", "nodes", "epsilon", "N", "crossings"]))
        action = draw(st.sampled_from(["edit", "edit", "edit", "replace", "drop"]))
        target = doc.get(field)
        if action == "drop":
            doc.pop(field, None)
        elif action == "replace" or field in ("N", "epsilon"):
            doc[field] = draw(st.one_of(st.integers(-3, 45), rational_values))
        elif isinstance(target, dict) and isinstance(target.get("coeffs"), list):
            coeffs = target["coeffs"]
            if coeffs and draw(st.integers(0, 3)):
                coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(rational_values)
            else:
                target["basis"] = draw(st.sampled_from(["T", "V", "monomial", "Q"]))
        elif isinstance(target, list) and target:
            i = draw(st.integers(0, len(target) - 1))
            if draw(st.integers(0, 3)) == 0:
                del target[i]
            elif isinstance(target[i], dict):
                target[i][draw(st.sampled_from(["s", "t", "sign", "u"]))] = draw(json_values)
            else:
                target[i] = draw(rational_values)
    n, name = doc.get("N"), draw(st.sampled_from(["x", "y", "z"]))
    coordinate = doc.get(name)
    raised = (draw(st.integers(0, 7)) == 0 and type(n) is int and 1 <= n <= 45 and n % 2 == 1
              and isinstance(coordinate, dict) and isinstance(coordinate.get("coeffs"), list))
    if raised:
        _raise_degree(doc, name, 4 * n + 64 + draw(st.integers(1, 3)))
    return doc, raised


def _n3_document():
    curve, report = synthesize(3)
    return curve_to_dict(3, curve.plane.x, curve.plane.y, curve.z, report)


class TestFuzz:
    """verify and export map every mutated curve file to 0, 1 or 2, never a
    traceback, and a successful export holds no nan or inf.  An x, y or z
    of degree above the cap exits 1."""

    @pytest.fixture(scope="class")
    def bases(self, fixture_n9_path):
        with open(fixture_n9_path, encoding="utf-8") as fh:
            return [_n3_document(), json.load(fh)]

    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @given(n=st.integers(0, (10**12 - 1) // 2).map(lambda k: 2 * k + 1))
    @example(n=9)
    @example(n=13)
    @example(n=15)
    @example(n=10**12 - 1)
    @settings(max_examples=30, deadline=None)
    def test_any_claimed_n_is_decided_fast(self, bases, work, n):
        # the fixture, whose R has degree 13 and 9 roots, claiming any odd N up
        # to 10^12: VERIFIED at N = 9, and one FAIL line on the count otherwise
        path = work / "claimed_n.json"
        path.write_text(json.dumps(dict(bases[1], N=n)))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["verify", str(path)])
        assert time.perf_counter() - start < 2.0
        fails = [line for line in out.getvalue().splitlines() if line.startswith("FAIL")]
        line = (f"FAIL R has degree 13, fewer than {n} roots in (-2, 2)" if n > 13
                else f"FAIL R has 9 roots in (-2, 2), expected {n}")
        assert (code, fails) == ((0, []) if n == 9 else (2, [line]))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    def test_mutated_files_exit_cleanly(self, bases, work, data):
        doc, raised = data.draw(mutated_documents(bases))
        path = work / "mutated.json"
        path.write_text(json.dumps(doc))
        out = work / "o"
        for argv in (["verify", str(path)],
                     ["export", "--svg", "--samples", "60", str(path), "--out", str(out)],
                     ["export", "--csv", "--samples", "60", str(path), "--out", str(out)]):
            code = main(argv)
            assert code in ((1,) if raised else (0, 1, 2))
            if argv[0] == "export" and code == 0:
                assert not NON_FINITE.search(out.read_text())
