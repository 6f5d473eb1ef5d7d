#!/usr/bin/env python3
"""Regenerate fixtures/curve_n9.json.

The fixture is the classical 9-crossing plane curve

    x = T_3,
    y = -(27/10) T_14 + 10 T_12 - 23 T_10 + 42 T_8 - 64 T_6 + 85 T_4 - 100 T_2 + 112,

a known low-degree example rather than an output of `gen`: it is
not monic, carries decorative kernel terms (the constant and the T_6 and
T_12 components do not affect the diagram), and two of its crossing
abscissae lie slightly outside (-1, 1) while still respecting the global
parameter ordering.  That makes it a good external check that `verify`
certifies exactly what is true and nothing more.
"""

import os
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from knotforge import ChebT, certify, t_poly  # noqa: E402
from knotforge.serialize import curve_to_dict, dumps  # noqa: E402

Y_COEFFS = {
    0: Fraction(56),  # T_0 is the constant 2, so this is the +112
    2: Fraction(-100),
    4: Fraction(85),
    6: Fraction(-64),
    8: Fraction(42),
    10: Fraction(-23),
    12: Fraction(10),
    14: Fraction(-27, 10),
}


def build_document() -> dict:
    """The fixture document, certified as `verify` certifies it."""
    y = ChebT.of(Y_COEFFS)
    report = certify(y, None, 9)
    return curve_to_dict(9, t_poly(3), y, None, report)


def main() -> None:
    doc = build_document()
    out = os.path.join(os.path.dirname(__file__), "..", "fixtures", "curve_n9.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    Path(out).write_text(dumps(doc), encoding="utf-8")
    print(f"wrote {os.path.normpath(out)} ({doc['N']} crossings)")


if __name__ == "__main__":
    main()
