"""Smoke tests of the scripts under scripts/."""

import importlib.util
import json
import os
import subprocess
import sys

from knotforge.serialize import dumps

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_sweep_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "sweep.py"), "--max-n", "7", "--oracle-max-n", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["1", "3", "5", "7"]
    # the oracle column counts N up to --oracle-max-n and is skipped above it
    assert [row.split()[4] for row in rows] == ["1", "3", "5", "-"]


def test_fixture_script_reproduces_fixture(fixture_n9_path):
    path = os.path.join(SCRIPTS, "make_fixture_n9.py")
    spec = importlib.util.spec_from_file_location("make_fixture_n9", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(fixture_n9_path, encoding="utf-8") as fh:
        assert dumps(module.build_document()) == fh.read()


def test_bench_stages_runs(tmp_path):
    root = os.path.join(SCRIPTS, "..")
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "bench_stages.py"), "--n", "5", "9",
         "--rounds", "1", "--repeats", "1", "--parent", root, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["identity"]["python"] and len(doc["kernel_s"]["parent"]) == 1
    stages = {"synthesize", "solve_deformation", "solve_height", "certify", "certify.crossings",
              "certify.exact_quotient", "certify.root_free", "certify.signs_at_roots",
              "certify.other", "dumps",
              "nodeless",
              "nodeless.locate_roots", "nodeless.crossings", "nodeless.signs_at_roots",
              "nodeless.other", "verify", "verify.parse_curve", "verify.certify", "verify.other",
              "verify_nodeless", "verify_nodeless.parse_curve", "verify_nodeless.certify",
              "verify_nodeless.other", "hostile.z_is_y", "hostile.bump"}
    for n in ("5", "9"):
        row = doc["stages"][n]
        assert stages <= set(row["change"]) and stages <= set(row["parent"])
        assert all(v["runs"] == 1 and v["wall_s"] >= 0 and v["calibrated_s"] >= 0
                   for label in ("change", "parent") for v in row[label].values())
        assert set(row["ratio"]) <= set(row["change"])
    # the import stage: --repeats fresh interpreters per mode, round and checkout
    imports = doc["import"]
    for label in ("change", "parent"):
        assert set(imports[label]) == {"bytecode", "source"}
        assert all(v["runs"] == 1 and v["wall_s"] > 0 and v["calibrated_s"] > 0
                   for v in imports[label].values())
    assert set(imports["ratio"]) == {"bytecode", "source"}


def test_bench_stages_records_the_given_parent_commit(tmp_path):
    # a `git archive` copy has no repository for git to describe
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "bench_stages.py"), "--n", "3", "--rounds", "1",
         "--repeats", "1", "--parent", os.path.join(SCRIPTS, ".."),
         "--parent-commit", "0123abc", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["commits"]["parent"] == "0123abc"
