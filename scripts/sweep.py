#!/usr/bin/env python3
"""Sweep the synthesis over odd N and report degrees, ordering margins, and timing.

Usage:
    python scripts/sweep.py [--max-n 21] [--outdir DIR]

With --outdir, each curve is also written as JSON (and its projection as
SVG) so the results can be inspected or re-verified with the CLI.
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from knotforge import crossing_oracle, rat_str, synthesize  # noqa: E402
from knotforge.serialize import curve_to_dict, dumps  # noqa: E402
from knotforge.svg import render_svg  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=21)
    ap.add_argument("--outdir", default=None)
    ap.add_argument("--oracle-max-n", type=int, default=11,
                    help="run the brute-force crossing oracle up to this N")
    args = ap.parse_args()

    print(f"{'N':>3} {'degrees':>12} {'eps':>6} {'ord.margin':>11} "
          f"{'oracle':>6} {'secs':>6}")
    for n in range(1, args.max_n + 1, 2):
        t0 = time.time()
        curve, report = synthesize(n)
        elapsed = time.time() - t0
        degs = f"(3,{curve.plane.y.degree},{curve.z.degree})"
        oracle = "-"
        if n <= args.oracle_max_n:
            oracle = str(crossing_oracle(curve.plane.x, curve.plane.y.to_poly()))
        print(f"{n:>3} {degs:>12} {rat_str(report.epsilon):>6} "
              f"{report.ordering_margin:>11.3e} {oracle:>6} {elapsed:>6.2f}")
        if args.outdir:
            os.makedirs(args.outdir, exist_ok=True)
            doc = curve_to_dict(n, curve.plane.x, curve.plane.y, curve.z, report)
            Path(args.outdir, f"curve_n{n}.json").write_text(dumps(doc), encoding="utf-8")
            with open(os.path.join(args.outdir, f"curve_n{n}.svg"), "w") as fh:
                fh.write(render_svg(doc, 1600))


if __name__ == "__main__":
    main()
