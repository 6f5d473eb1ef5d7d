"""The span recorder: self time, per-pass summaries, wrapper installation."""

import importlib

import pytest

import spans
from run import select_metrics


def test_self_time_subtracts_union_of_children():
    # root [0, 10] with children A [1, 4] and B [3, 6] (overlapping: union 5),
    # A has a child [2, 3], B has a child reaching past B's end [5, 8]
    start = [0.0, 1.0, 3.0, 2.0, 5.0]
    end = [10.0, 4.0, 6.0, 3.0, 8.0]
    parent = [-1, 0, 0, 1, 2]
    assert spans.self_times(start, end, parent) == pytest.approx([5.0, 2.0, 2.0, 1.0, 3.0])


def test_covered_length_merges_and_clips():
    assert spans.covered_length([(1, 2), (1.5, 3), (5, 6)], 0, 10) == pytest.approx(3.0)
    assert spans.covered_length([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4.0)
    assert spans.covered_length([], 0, 10) == 0.0


def _recorder(rows):
    """Build a Recorder from (name, start, end, parent) rows."""
    rec = spans.Recorder()
    for name, start, end, parent in rows:
        rec.name.append(rec.name_id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.op.append(0)
    return rec


def test_summarize_per_pass_layers_and_recursion():
    rec = _recorder([
        ("op.gen", 0.0, 10.0, -1),
        ("cli.main", 0.0, 10.0, 0),
        ("knots.crossings", 1.0, 9.0, 1),
        ("exactpoly.refine", 2.0, 6.0, 2),
        ("exactpoly.refine", 3.0, 5.0, 3),   # recursive call: inclusive time counted once
    ])
    out = spans.summarize(rec, passes=2)
    assert out["exactpoly.refine.calls"] == 1.0
    assert out["exactpoly.refine.s"] == pytest.approx(2.0)
    assert out["exactpoly.refine.self_s"] == pytest.approx(2.0)
    assert out["knots.crossings.self_s"] == pytest.approx(2.0)
    assert out["cli.main.self_s"] == pytest.approx(1.0)
    assert out["exactpoly.self_s"] == pytest.approx(2.0)
    assert out["svg.self_s"] == 0.0
    total_self = sum(out[f"{layer}.self_s"] for layer in spans.LAYERS) + out["op.self_s"]
    assert total_self == pytest.approx(out["op.gen.s"])


def test_install_wraps_every_binding_and_uninstall_restores():
    exactpoly = importlib.import_module("knotforge.exactpoly")
    knots = importlib.import_module("knotforge.knots")
    serialize = importlib.import_module("knotforge.serialize")
    original_count, original_crossings = exactpoly.count_roots, knots.crossings
    rec = spans.Recorder()
    inst = spans.install(rec)
    try:
        assert knots.count_roots is exactpoly.count_roots is serialize.count_roots
        assert knots.count_roots is not original_count
        assert serialize.compute_crossings is knots.crossings is not original_crossings
        assert "exactpoly.SturmChain.variations" in rec.names
        assert inst.absent == []
        op = rec.begin_op("verify", 0)
        assert knots.count_roots(exactpoly.Poly([-2, 0, 1]), -2, 2) == 2
        rec.end_op(op)
        names = {rec.names[n] for n in rec.name}
        assert {"op.verify", "exactpoly.count_roots", "exactpoly.squarefree_part",
                "exactpoly.SturmChain"} <= names
        assert rec.maxima["exactpoly.SturmChain.len_max"] == 3
        before = len(rec.name)
        knots.count_roots(exactpoly.Poly([-2, 0, 1]), -2, 2)   # outside an op: not recorded
        assert len(rec.name) == before
    finally:
        inst.uninstall()
    assert exactpoly.count_roots is original_count and knots.crossings is original_crossings
    assert serialize.compute_crossings is original_crossings


def test_deleted_names_are_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.METHODS, "exactpoly.SturmChain", ("__init__", "gone"))
    monkeypatch.setitem(spans.METHODS, "exactpoly.NoSuchClass", ("__init__",))
    rec = spans.Recorder()
    inst = spans.install(rec)
    inst.uninstall()
    assert set(inst.absent) == {"exactpoly.SturmChain.gone", "exactpoly.NoSuchClass"}
    values = spans.summarize(rec, passes=1)
    absent = []
    wanted = [{"name": "exactpoly.SturmChain.gone.calls", "unit": "count"},
              {"name": "exactpoly.SturmChain.calls", "unit": "count"}]
    metrics = select_metrics(wanted, values, absent)
    assert metrics["exactpoly.SturmChain.gone.calls"] == {"value": 0, "unit": "count"}
    assert metrics["exactpoly.SturmChain.calls"]["value"] == 0.0
    assert absent == ["exactpoly.SturmChain.gone.calls"]
