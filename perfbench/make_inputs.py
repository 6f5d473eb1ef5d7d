#!/usr/bin/env python3
"""Regenerate the benchmark's stored inputs in perfbench/inputs/.

    python3 perfbench/make_inputs.py

Writes the `gen` outputs for N = 21, 31, 41 (the verify-store positives),
a copy of fixtures/curve_n9.json, and manifest.json with each stored
file's known `verify` verdict and the reference digest of the `gen` output
for every N the workloads generate.  Run it only to re-base the benchmark
on a new reference commit; the committed files come from the commit that
introduced the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

from workloads import GEN_LADDER_N, INPUTS, MANIFEST, SMALL_BATCH_N, curve_digest

ROOT = Path(__file__).resolve().parent.parent
STORED_N = (21, 31, 41)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from knotforge.cli import main as knotforge_main

    INPUTS.mkdir(exist_ok=True)
    digests = {}
    stored = {}
    for n in sorted(set(SMALL_BATCH_N) | set(GEN_LADDER_N)):
        path = INPUTS / f"curve_n{n}.json"
        with contextlib.redirect_stderr(io.StringIO()):
            rc = knotforge_main(["gen", "--n", str(n), "--out", str(path)])
        if rc != 0:
            print(f"gen --n {n} exited {rc}", file=sys.stderr)
            return 1
        with open(path, encoding="utf-8") as fh:
            digests[str(n)] = curve_digest(json.load(fh))
        if n in STORED_N:
            stored[path.name] = 0
        else:
            path.unlink()
    shutil.copyfile(ROOT / "fixtures" / "curve_n9.json", INPUTS / "curve_n9.json")
    stored["curve_n9.json"] = 0
    manifest = {
        "made_by": "perfbench/make_inputs.py",
        "stored": stored,
        "gen_digests": digests,
    }
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
