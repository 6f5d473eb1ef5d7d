#!/usr/bin/env python3
"""Time the stages of `synthesize`, `certify` and `verify`, for one checkout or two side by side.

Usage:
    python scripts/bench_stages.py [--n 21 41 61 101] [--rounds 3] [--repeats 3]
                                   [--parent DIR [--parent-commit SHA]] [--out BENCH.json]

Each round starts one worker process per checkout, this one and, with
--parent, the checkout at DIR (its `src/` is imported), in alternating
order, so the two meet the same drift of the machine.  A worker runs
`synthesize(N)` once untimed, then --repeats timed runs, and reports for
each stage its wall seconds and its calibrated seconds (wall time scaled to
a machine where the `perfbench/calibrate.py` kernel takes its nominal time,
measured by that module's sampler while the stage runs).

The stages are the functions `synthesize` calls, timed by wrapping them
where `knots` looks them up: `solve_deformation`, `solve_height` and
`certify`.  Inside `certify`: `divided_difference` (of y and z),
`exact_quotient` (R by the planted factor), `root_free` (the cofactor's
test), `crossings` (cells and ordering proof), `signs_at_roots` (dd(z) at the
planted roots, the space check) and `other`, the rest of `certify` (R's
integer form and the planted `LocatedRoots`).  `dumps` is `curve_to_dict` plus
`dumps` of the finished curve.  `nodeless` is `certify(y, z, N)` of the
same curve with no nodes, as `verify` runs it on a file that stores none,
with the steps `locate_roots` (R's isolation), `crossings`,
`signs_at_roots` (dd(z) at R's roots) and `other`.  `hostile` is node-less
`certify` of two edits of the curve that fail the space check: `z_is_y`,
z replaced by y, and `bump`, z minus dd(z)(d) T_1 for the third node d, or
the last one when N < 7, so that dd(z) vanishes at every crossing whose
index has d's parity; each is timed as `hostile.<edit>`.  `verify` is
`serialize.verify_curve` of the dumped document read back with `json`, and
`verify_nodeless` of the same document with no nodes, each with the steps
`parse_curve`, `certify` and `other`.  An `other` is the stage's wall time
less its steps', calibrated at the stage's speed.  A function a checkout
lacks is not timed.

The output JSON holds the Python and machine identity, each checkout's
commit (from git, or --parent-commit for a parent that git cannot read,
such as a `git archive` copy), one calibration kernel sample per worker,
each stage's median over every timed run per checkout, and the
change/parent ratio of the calibrated medians.

The `import` stage times `import knotforge.cli` in fresh interpreters,
measured inside each: --repeats times with bytecode (`bytecode`: a
temporary PYTHONPYCACHEPREFIX, written by one untimed import), then
--repeats times with the package compiled from source (`source`: its
bytecode removed from that prefix and none written), the standard library
cached in both.  Each time is calibrated at the worker's speed around the
interpreter's run, and the stage is kept apart from the N rows, with its
own medians and ratio.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
SYNTH_STAGES = ("solve_deformation", "solve_height", "certify")
CERTIFY_STEPS = ("divided_difference", "exact_quotient", "root_free", "crossings",
                 "signs_at_roots")
NODELESS_STEPS = ("locate_roots", "crossings", "signs_at_roots")
HOSTILE_EDITS = ("z_is_y", "bump")
VERIFY_STAGES = ("verify", "verify_nodeless")
VERIFY_STEPS = ("parse_curve", "certify")
IMPORT_MODES = ("bytecode", "source")
IMPORT_CLI = ("import time; t0 = time.perf_counter(); import knotforge.cli; "
              "print(time.perf_counter() - t0)")


def identity() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "system": f"{platform.system()} {platform.release()}",
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


class _Spans:
    """(stage, start, end) of every wrapped call made while a worker runs."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []
        self.stack: list[str] = []

    def wrap(self, name: str, fn, inside: str = ""):
        def timed(*args, **kwargs):
            if inside and inside not in self.stack:
                return fn(*args, **kwargs)
            self.stack.append(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, t0, time.perf_counter()))
                self.stack.pop()
        return timed


def _import_runs(src: str, repeats: int) -> list[tuple[str, float, float, float]]:
    """(mode, seconds of the import, start, end of its interpreter) for each timed import."""
    runs = []
    with tempfile.TemporaryDirectory() as prefix:
        env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=prefix)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        argv = [sys.executable, "-c", IMPORT_CLI]
        subprocess.run(argv, env=env, check=True, capture_output=True)  # writes the bytecode
        for mode in IMPORT_MODES:
            if mode == "source":  # the package's bytecode goes, the standard library's stays
                shutil.rmtree(os.path.join(prefix, os.path.abspath(src).lstrip(os.sep), "knotforge"))
                env["PYTHONDONTWRITEBYTECODE"] = "1"
            for _ in range(repeats):
                t0 = time.perf_counter()
                proc = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
                runs.append((mode, float(proc.stdout), t0, time.perf_counter()))
    return runs


def _hostile_edits(cb, curve, report) -> list:
    """(edit, z) of the `hostile` stage: z = y, and z minus dd(z)(d) T_1 at the
    third node d, or the last one when N < 7 (none when N = 1)."""
    edits = [("z_is_y", curve.plane.y)]
    if report.nodes:
        d = report.nodes[min(2, len(report.nodes) - 1)]
        z = dict(curve.z.items)
        z[1] = z.get(1, 0) - cb.divided_difference(curve.z).to_poly()(d)
        edits.append(("bump", cb.ChebT.of(z)))
    return edits


def worker(src: str, ns: list[int], repeats: int) -> dict:
    """Stage times of the knotforge under src: {N: {stage: [(wall, calibrated), ...]}}."""
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    calibrate = importlib.import_module("calibrate")
    knots = importlib.import_module("knotforge.knots")
    serialize = importlib.import_module("knotforge.serialize")
    failed = importlib.import_module("knotforge.errors").CertificationFailed
    rec = _Spans()
    nodeless = rec.wrap("nodeless", knots.certify)
    hostile = {edit: rec.wrap(f"hostile.{edit}", knots.certify) for edit in HOSTILE_EDITS}
    verify, verify_nodeless = (rec.wrap(stage, serialize.verify_curve) for stage in VERIFY_STAGES)
    for name in SYNTH_STAGES:
        setattr(knots, name, rec.wrap(name, getattr(knots, name)))
    for stage, steps in (("certify", CERTIFY_STEPS), ("nodeless", NODELESS_STEPS)):
        for name in steps:
            owner = knots.cb if name == "divided_difference" else knots
            if hasattr(owner, name):
                setattr(owner, name, rec.wrap(f"{stage}.{name}", getattr(owner, name), stage))
    for stage in VERIFY_STAGES:
        for name in VERIFY_STEPS:  # as `verify_curve` looks them up in `serialize`
            setattr(serialize, name, rec.wrap(f"{stage}.{name}", getattr(serialize, name), stage))

    t0 = time.perf_counter()
    calibrate.kernel()
    out: dict = {"kernel_s": time.perf_counter() - t0, "stages": {}}
    with calibrate.Sampler() as sampler:
        imports = _import_runs(src, repeats)
        for n in ns:
            knots.synthesize(n)  # warm the caches
            runs = []
            for _ in range(repeats):
                rec.spans.clear()
                t0 = time.perf_counter()
                curve, report = knots.synthesize(n)
                t1 = time.perf_counter()
                text = serialize.dumps(serialize.curve_to_dict(
                    n, curve.plane.x, curve.plane.y, curve.z, report))
                t2 = time.perf_counter()
                nodeless(curve.plane.y, curve.z, n)
                doc = json.loads(text)
                verify(doc)
                verify_nodeless(dict(doc, nodes=None, epsilon=None))
                for edit, z in _hostile_edits(knots.cb, curve, report):
                    try:
                        hostile[edit](curve.plane.y, z, n)
                    except failed:
                        pass
                runs.append(rec.spans + [("synthesize", t0, t1), ("dumps", t1, t2)])
            while not sampler.took:  # a short run can end before the first sample
                calibrate.kernel()
            out["stages"][str(n)] = samples = defaultdict(list)
            for spans in runs:
                totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
                for name, a, b in spans:
                    totals[name][0] += b - a
                    totals[name][1] += sampler.calibrated(a, b)
                for stage in ("certify", "nodeless", *VERIFY_STAGES):
                    if stage in totals:
                        # each step is calibrated at its own speed, so the rest is
                        # taken in wall time and calibrated at the stage's speed
                        wall, cal = totals[stage]
                        other = wall - sum(v[0] for name, v in totals.items()
                                           if name.startswith(f"{stage}."))
                        totals[f"{stage}.other"] = [other, other * cal / wall]
                for name, times in totals.items():
                    samples[name].append(tuple(times))
        while not sampler.took:
            calibrate.kernel()
        out["import"] = {mode: [] for mode in IMPORT_MODES}
        for mode, seconds, a, b in imports:  # at the speed the worker saw meanwhile
            out["import"][mode].append((seconds, seconds * sampler.calibrated(a, b) / (b - a)))
    return out


def _run_worker(src: str, ns: list[int], repeats: int) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--worker", src,
            "--repeats", str(repeats), "--n", *map(str, ns)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _commit(path: str) -> str | None:
    """The checkout's commit, with "-dirty" when its tree has uncommitted changes."""
    try:
        proc = subprocess.run(["git", "-C", path, "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[21, 41, 61, 101])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--parent", metavar="DIR", help="checkout to compare against")
    ap.add_argument("--parent-commit", metavar="SHA",
                    help="the parent's commit, recorded instead of asking git in DIR")
    ap.add_argument("--out", metavar="FILE", help="write the JSON here (default: stdout)")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.n, args.repeats)))
        return 0

    if args.parent_commit and not args.parent:
        ap.error("--parent-commit needs --parent")
    checkouts = {"change": ROOT}
    if args.parent:
        checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    samples: dict = {label: defaultdict(lambda: defaultdict(list)) for label in checkouts}
    kernels: dict = {label: [] for label in checkouts}
    imports: dict = {label: defaultdict(list) for label in checkouts}
    order = list(checkouts)
    for r in range(args.rounds):
        for label in order if r % 2 == 0 else order[::-1]:
            result = _run_worker(os.path.join(checkouts[label], "src"), args.n, args.repeats)
            kernels[label].append(result["kernel_s"])
            for mode, runs in result["import"].items():
                imports[label][mode].extend(runs)
            for n, stages in result["stages"].items():
                for stage, runs in stages.items():
                    samples[label][n][stage].extend(runs)

    def summary(label_samples: dict) -> dict:
        row = {}
        for label, by_stage in label_samples.items():
            row[label] = {
                stage: {"wall_s": statistics.median(w for w, _ in runs),
                        "calibrated_s": statistics.median(c for _, c in runs),
                        "runs": len(runs)}
                for stage, runs in sorted(by_stage.items())
            }
        if "parent" in row:
            row["ratio"] = {
                stage: round(v["calibrated_s"] / row["parent"][stage]["calibrated_s"], 3)
                for stage, v in row["change"].items()
                if row["parent"].get(stage, {}).get("calibrated_s")
            }
        return row

    stages = {n: summary({label: samples[label][n] for label in checkouts})
              for n in map(str, args.n)}
    doc = {
        "identity": identity(),
        "commits": {label: _commit(path) for label, path in checkouts.items()},
        "rounds": args.rounds,
        "repeats": args.repeats,
        "kernel_s": kernels,
        "import": summary(imports),
        "stages": stages,
    }
    if args.parent_commit:
        doc["commits"]["parent"] = args.parent_commit
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
