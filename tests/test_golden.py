"""Byte-level golden outputs of `gen`, `verify`, `export` and the printed tables.

The `gen` digests were recorded before the integer root-isolation
kernel replaced the rational one (N = 41 and 61 before the deformation
and height were solved with the planted roots factored out, N = 101
before the crossing cells, solves and cofactor division moved to
integers), and the `verify` digests when the
decimal sign and residual lines gave way to exact ones (the node-less
N = 31 and 61 ones before Descartes isolation replaced the Sturm chain
of R, the N = 101 one before isolation moved to the Bernstein basis and
evaluation at dyadic points to shifts); each `verify` digest but that
last one was re-recorded, with no other byte changed,
when the count line's tag went from `[Sturm]` to `[exact]`.  Every isolating
interval, and so every crossing abscissa and margin printed, feeds
these bytes, so a moved interval or a changed bisection choice fails
here.  The `export` digests were recorded before the float sampling
moved to whole-grid evaluation (the N = 41 and clustered-crossings ones
before y and z shared one recurrence and the SVG gaps were found by a
walk): every sample goes through the same double operations in the same
order, so a reordered recurrence, a moved gap or a changed number format
fails here.
"""

import hashlib
import json

import pytest

from knotforge.cli import main

GEN_SHA256 = {
    1: "86bf5dc81103c3d174dd921c44b4e79de0ace88e0af763f0c7191b2ca3feb5d9",
    3: "3608cdce88d230f8ebdd2268cd3c5550ed68cd899c3c7b3cbd2cd7d462d9f446",
    9: "c13611665ffbf5c04073f56c0cbedaaa064b93343c5f680295126630a9a37bd1",
    15: "b133bfd8ddf09a5828753e259d37f6a8efc1c210b9283e203a9e99d7356f9ac9",
    21: "bcf1f8d4121979f11bed609663e846b438132597035e69b47dd897862236654e",
    41: "bc620fd61bcdd174eeb5aef077f4881488c6fe251b13e5ada5c9c3f6884bc658",
    61: "fbda399d624ac1458e91225cd3f51993836de5fc59d7f3a4f3461425e793f6d8",
    101: "e20620172c5047e2e840cedc223b904a6d5354dedf03c69a02233042277ba0b7",
}
VERIFY_FIXTURE_SHA256 = "92f2d596b51c61507adc2c9c8af945c7a3b36e233c54bb7d9bd9bd2eef9272e8"
VERIFY_N21_SHA256 = {
    "nodeless": "76ad3de8abb71bc519c5b2c32ed14080c044ad64d037fb4f6d152366ba14d641",
    "plane": "7aa6c4a11a1a4806762db104b454510fceb15e0a0615d0340a275371dd87e6f2",
}
EXPORT_SHA256 = {
    (3, "svg"): "cb2f2f5e7d3ad9d5bc7774049a62e3a51d15fdc83ddd4085fe0dc37568b53c36",
    (3, "csv"): "6dec088ea013b7415de89b6ed7598e1090efd55bfe7702392666c87e96b4186f",
    (15, "svg"): "bc0d2e391bc88fb0a5168e3cb53d06ecc7686383def6bdd5d352b5bbd891aad3",
    (15, "csv"): "2af7c8437004d22e3313137a8e6793fd915a82c5b4cc66d8f20914dcab74541c",
    ("fixture", "svg"): "8480cf1a1404098ae301144bf7307cebb926cc371a095ee97c202b8557551013",
    ("fixture", "csv"): "9748d222909e11af5fa9daee68ba17dbe425437ebea3e5472952a612c7cb5112",
    (41, "svg"): "a192076599ca2fa0952963b0058a385af725bce9ee41a4c55519eff7c5ef5b53",
    (41, "csv"): "d7f170fcec8f4e1af5c300c68fc195e2ad75c4c2ed54df4377f73478c493e88e",
    ("clustered", "svg"): "a3d1b80057cd98904663952f452ea5d83e04050cea14fa5fc587f7caf3cf7b1e",
}
# the default 1200 samples for the SVG, 2000 for the CSV
EXPORT_ARGS = {"svg": ["--svg"], "csv": ["--csv", "--samples", "2000"]}
# the N = 9 curve at 2000 samples, whose 9 under-parameters sit about 0.02
# apart, so the gap width adapts and every gap shows in the bytes (as in
# `test_cli`'s `test_svg_gaps_do_not_merge_when_crossings_cluster`)
CLUSTERED = (9, ["--samples", "2000"])
# node-less `verify` of the `gen` output (from `gen_outputs` where it has N):
# the roots of R for N = 31 are dyadic, so they fall on bisection midpoints
# of (-2, 2)
VERIFY_NODELESS_SHA256 = {
    31: "76e7f09e6813b7ad0a209dc9396da5ed697e9fc00bc1d483fbaf94ea1d5be368",
    61: "3d441b7ac548a94f560df035a17e53f36309ab3dfc573d96b5249f1910d0e8e6",
    101: "0b2019da91a764340a46e92399567c86b3ae862ed902af7a911fe175b210d63b",
}
# stdout of the commands that print phi, the [n/m] approximants and the
# C_n basis, recorded before the test-only predicates and `bareiss_det`
# left `stieltjes`, `pade` and `exactpoly`
STDOUT_SHA256 = {
    ("cn-table", "--max", "12"): "f7ee1fc3a635be48f35a5a225a3a699b012662c696897926a9fbe306fbb7a7fb",
    ("phi", "--count", "40"): "47c37086cb91a1d309558229072ccd241f9a2dc5e1406711cc558999e7c54738",
    ("pade", "--k", "8", "--l", "6"): "0df3e9a636123e6674258506918102a1add7cd9fa3f15a729bca00839638a9ca",
}
N21_VARIANTS = {
    "nodeless": {"nodes": None, "epsilon": None},
    "plane": {"z": None},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def gen_outputs(tmp_path_factory):
    out = {}
    for n in GEN_SHA256:
        path = tmp_path_factory.mktemp("gen") / f"n{n}.json"
        assert main(["gen", "--n", str(n), "--out", str(path)]) == 0
        out[n] = path.read_bytes()
    return out


@pytest.mark.parametrize("n", sorted(GEN_SHA256))
def test_gen_bytes(gen_outputs, n):
    assert sha256(gen_outputs[n]) == GEN_SHA256[n]


def verify_stdout(path, capsys) -> str:
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    return capsys.readouterr().out


def test_verify_fixture_stdout(fixture_n9_path, capsys):
    assert sha256(verify_stdout(fixture_n9_path, capsys).encode()) == VERIFY_FIXTURE_SHA256


@pytest.mark.parametrize("variant", sorted(N21_VARIANTS))
def test_verify_n21_variant_stdout(gen_outputs, tmp_path, capsys, variant):
    doc = dict(json.loads(gen_outputs[21]), **N21_VARIANTS[variant])
    path = tmp_path / f"{variant}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert sha256(verify_stdout(path, capsys).encode()) == VERIFY_N21_SHA256[variant]


@pytest.mark.parametrize("n", sorted(VERIFY_NODELESS_SHA256))
def test_verify_nodeless_stdout(gen_outputs, tmp_path, capsys, n):
    path = tmp_path / "curve.json"
    if n in gen_outputs:
        path.write_bytes(gen_outputs[n])
    else:
        assert main(["gen", "--n", str(n), "--out", str(path)]) == 0
    doc = dict(json.loads(path.read_bytes()), nodes=None, epsilon=None)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert sha256(verify_stdout(path, capsys).encode()) == VERIFY_NODELESS_SHA256[n]


@pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
def test_table_stdout(capsys, argv):
    assert main(list(argv)) == 0
    assert sha256(capsys.readouterr().out.encode()) == STDOUT_SHA256[argv]


@pytest.mark.parametrize("source,fmt", sorted(EXPORT_SHA256, key=str))
def test_export_bytes(gen_outputs, fixture_n9_path, tmp_path, source, fmt):
    n, extra = CLUSTERED if source == "clustered" else (source, [])
    if n == "fixture":
        path = fixture_n9_path
    else:
        path = tmp_path / f"n{n}.json"
        path.write_bytes(gen_outputs[n])
    out = tmp_path / f"out.{fmt}"
    assert main(["export", *EXPORT_ARGS[fmt], *extra, str(path), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == EXPORT_SHA256[(source, fmt)]
