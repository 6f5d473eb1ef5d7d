"""Inputs, negatives, output checks and calibration of the benchmark."""

import contextlib
import io
import json
import random
from array import array
from fractions import Fraction

import pytest

import calibrate
import workloads
from knotforge import ChebT, Poly, crossing_oracle
from knotforge.cli import main as knotforge_main


def _stored(name):
    return json.loads((workloads.INPUTS / name).read_text(encoding="utf-8"))


def _verify(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return knotforge_main(["verify", str(path)])


def test_t_to_monomial_matches_the_program():
    rng = random.Random(5)
    coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(12)]
    expected = ChebT.of(dict(enumerate(coeffs))).to_poly()
    assert Poly(workloads.t_to_monomial(coeffs)) == expected


def test_manifest_lists_the_stored_positives():
    manifest = workloads.load_manifest()
    assert set(manifest["stored"]) == {"curve_n21.json", "curve_n31.json", "curve_n41.json",
                                       "curve_n9.json"}
    for n in workloads.GEN_LADDER_N:
        digest = workloads.curve_digest(_stored(f"curve_n{n}.json"))
        assert manifest["gen_digests"][str(n)] == digest


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_negatives_are_rejected_with_exit_2(tmp_path, seed):
    negatives = workloads.verify_negatives(_stored("curve_n21.json"), random.Random(seed))
    assert len(negatives) == 4
    for name, doc in negatives.items():
        assert _verify(tmp_path, name, doc) == 2, name


def test_hostile_files_are_malformed_in_the_named_way():
    base = _stored("curve_n21.json")
    hostile = workloads.verify_hostile(base, random.Random(3))
    assert isinstance(hostile["hostile_nodes_string"]["nodes"], str)
    coeffs = [c for f in "xyz" for c in hostile["hostile_int_coefficient"][f]["coeffs"]]
    assert 1 in coeffs
    nodes = [Fraction(s) for s in hostile["hostile_node_outside"]["nodes"]]
    assert any(not 0 < d < 1 for d in nodes)


def test_gen_checker_accepts_the_reference_and_rejects_a_change(tmp_path):
    manifest = workloads.load_manifest()
    checker = workloads.GenChecker(manifest["gen_digests"], crossing_oracle, Poly)
    good = workloads.INPUTS / "curve_n21.json"
    assert checker.check(21, good) is None
    assert checker.sizes[21][2] == 0
    doc = _stored("curve_n21.json")
    doc["y"]["coeffs"][1] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert "digest" in checker.check(21, bad)
    assert checker.check(23, good).startswith("N is 21")


def test_calibrated_time_scales_by_median_kernel_time_in_the_interval():
    sampler = calibrate.Sampler()
    nominal = calibrate.NOMINAL_S
    sampler.at = array("d", [0.1 * i for i in range(30)])
    sampler.took = array("d", [2 * nominal] * 30)
    # 1 s interval holding 10 samples: handler time is subtracted, then halved
    expected = (1.0 - 10 * 2 * nominal) / 2
    assert sampler.calibrated(0.95, 1.95) == pytest.approx(expected)
    # a short op takes the samples around it
    assert sampler.calibrated(1.001, 1.002) == pytest.approx(0.0005)


def test_metric_catalogue_covers_benchmark_json():
    root = workloads.HERE.parent
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    catalogue = json.loads((workloads.HERE / "metrics.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in bench["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        assert set(catalogue[section]) == {m["name"] for m in bench[section]}
        for entry in catalogue[section].values():
            assert set(entry.get("workloads", entry.get("on"))) <= names
