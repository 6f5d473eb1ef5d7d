"""The value records of the library: immutable, compared and hashed by value,
and defined without generated code, so that importing the CLI stays cheap."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from knotforge.chebyshev import ChebT, ChebV, t_poly
from knotforge.exactpoly import Poly
from knotforge.knots import (
    CnBasis,
    Crossing,
    CrossingReport,
    NodeSet,
    PlaneCurve,
    SpaceCurve,
)
from knotforge.pade import PadeApproximant
from knotforge.serialize import StoredCurve

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def series(cls=ChebT, last=F(-2, 3)):
    return cls(((1, F(1)), (3, last)))


# each record twice, built apart, and once with its last field changed
RECORDS = {
    "ChebT": lambda last=F(-2, 3): series(ChebT, last),
    "ChebV": lambda last=F(-2, 3): series(ChebV, last),
    "CnBasis": lambda last=F(1): CnBasis(0, (Poly([0, 1]),), ((last,),)),
    "NodeSet": lambda last=F(1, 4): NodeSet(2, (F(1, 4), F(1, 2)), last),
    "PlaneCurve": lambda last=F(-2, 3): PlaneCurve(t_poly(3), series(last=last)),
    "SpaceCurve": lambda last=F(-2, 3): SpaceCurve(PlaneCurve(t_poly(3), series()),
                                                    series(last=last)),
    "Crossing": lambda last=-1: Crossing(F(1, 2), F(3, 4), 0.6, 1.0, -1.0, 1.5, last),
    "CrossingReport": lambda last=(F(1, 4),): CrossingReport(
        1, ((1, 2, 4),), ((0.6, 1.0, -1.0, 1.5),), (2,), 0.5, True, F(1, 4), last),
    "PadeApproximant": lambda last=2: PadeApproximant(1, 1, Poly([0, 1]), Poly([1, last])),
    "StoredCurve": lambda last=((-1.0, 1.0, -1),): StoredCurve(
        3, 3, t_poly(3), series(), None, None, last),
}
CHANGED = {"ChebT": F(5), "ChebV": F(5), "CnBasis": F(2), "NodeSet": None, "PlaneCurve": F(5),
           "SpaceCurve": F(5), "Crossing": 1, "CrossingReport": None, "PadeApproximant": 3,
           "StoredCurve": ()}
FIELDS = {
    "ChebT": (("items",), {}),
    "ChebV": (("items",), {}),
    "CnBasis": (("n_max", "cn", "cn_w"), {}),
    "NodeSet": (("n", "delta", "epsilon"), {"epsilon": None}),
    "PlaneCurve": (("x", "y"), {}),
    "SpaceCurve": (("plane", "z"), {}),
    "Crossing": (("u_lo", "u_hi", "u", "alpha", "s", "t", "sign"), {"sign": None}),
    "CrossingReport": (("n_crossings", "cells", "floats", "depths", "ordering_margin",
                        "signs_alternate", "epsilon", "nodes"),
                       {"signs_alternate": None, "epsilon": None, "nodes": None}),
    "PadeApproximant": (("n", "m", "p", "q"), {}),
    "StoredCurve": (("n_crossings", "bound", "x", "y", "z", "nodes", "crossings"), {}),
}


def test_importing_the_cli_loads_no_dataclasses():
    # a fresh interpreter with no site packages: only what knotforge.cli pulls in
    code = "import sys, knotforge.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", RECORDS)
def test_fields_keep_their_names_order_and_defaults(name):
    record = RECORDS[name]()
    assert (record._fields, record._field_defaults) == FIELDS[name]
    assert repr(record).startswith(f"{name}({record._fields[0]}=")


@pytest.mark.parametrize("name", RECORDS)
def test_setting_a_field_raises(name):
    record = RECORDS[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert RECORDS[name]() == record


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_are_by_value(name):
    a, b, c = RECORDS[name](), RECORDS[name](), RECORDS[name](CHANGED[name])
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert a._replace(**{a._fields[-1]: c[-1]}) == c


def test_a_series_equals_only_a_series_of_its_family():
    t, v = series(ChebT), series(ChebV)
    assert t.items == v.items
    assert t != v and not t == v and v != t and not v == t
    assert t != (t.items,) and (t.items,) != t and not t == (t.items,)
    assert t == ChebT(t.items) and hash(t) == hash(ChebT(t.items))
    assert type(t._replace(items=())) is ChebT


@pytest.mark.parametrize("args,message", [
    ((2, (F(1, 4),)), "need exactly n nodes"),
    ((2, (F(1, 2), F(1, 4))), "nodes must satisfy 0 < d_1 < ... < d_n < 1"),
    ((2, (F(1, 4), F(1, 4))), "nodes must satisfy 0 < d_1 < ... < d_n < 1"),
    ((1, (F(0),)), "nodes must satisfy 0 < d_1 < ... < d_n < 1"),
    ((1, (F(1),), F(1, 4)), "nodes must satisfy 0 < d_1 < ... < d_n < 1"),
])
def test_nodeset_keeps_its_checks(args, message):
    with pytest.raises(ValueError) as info:
        NodeSet(*args)
    assert str(info.value) == message

