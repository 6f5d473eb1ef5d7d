#!/usr/bin/env python3
"""Run one knotforge benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gen-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process, one thread, closed loop:
each op is an in-process `knotforge.cli.main(argv)` call that starts only
after the previous one returned.  A pass is one run of the workload's fixed
op list, in an order drawn from the seed; passes repeat until `--seconds`
have elapsed (a started pass always finishes).  Output checks run between
passes, outside the timed interval.  Times are calibrated seconds (see
calibrate.py); wall times are printed beside them.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
its per-layer metrics: half the time runs untraced passes, then span
wrappers go in (see spans.py) and the rest runs traced.  Every metric named
in BENCHMARK.json is printed; a traced function the program no longer has
reads 0 and is listed as absent.

Human-readable lines come first; the last line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A full record, with the
machine and Python identity, goes to .perfbench/results/ (and the spans of
a traced run next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 11

import calibrate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, GenChecker, Workload, fresh_dir, load_manifest  # noqa: E402

KINDS = ("gen", "verify", "export")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20 and reason not in self.reasons:
            self.reasons.append(reason)


def identity() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "system": f"{platform.system()} {platform.release()}",
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def import_program():
    """Import knotforge afresh from this checkout's src/ (module state included)."""
    for name in [m for m in sys.modules if m == "knotforge" or m.startswith("knotforge.")]:
        del sys.modules[name]
    import knotforge.cli
    import knotforge.exactpoly
    import knotforge.knots

    if Path(knotforge.__file__).resolve().parent != SRC / "knotforge":
        raise ImportError(f"knotforge was imported from {knotforge.__file__}, not {SRC}")
    return knotforge


def setup(name: str, seed: int, work: Path):
    """Import the program, load the stored inputs, build this run's files."""
    kf = import_program()
    manifest = load_manifest()
    checker = GenChecker(manifest["gen_digests"], kf.knots.crossing_oracle, kf.exactpoly.Poly)
    workload = WORKLOADS[name](fresh_dir(work), seed, manifest, checker)
    return kf, workload, checker


def call_main(kf, argv: list[str], rec=None, kind: str = "", op_id: int = -1):
    """One closed-loop call.  Returns (start, seconds, exit code or None, exception or None)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        span = rec.begin_op(kind, op_id) if rec is not None else None
        t0 = time.perf_counter()
        try:
            rc, err = kf.cli.main(argv), None
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc, err = None, exc
        elapsed = time.perf_counter() - t0
        if span is not None:
            rec.end_op(span)
    return t0, elapsed, rc, err


def run_pass(kf, workload: Workload, rng: random.Random, tally: Tally,
             sampler: calibrate.Sampler, rec=None):
    """Run one pass.  Returns each op's wall seconds and calibrated seconds, by label."""
    ops = workload.pass_ops(rng)
    for op in ops:
        if op.out is not None:
            op.out.unlink(missing_ok=True)
    gc.collect()
    outcomes = []
    for op in ops:
        t0, elapsed, rc, err = call_main(kf, list(op.argv), rec, op.kind, tally.attempted)
        tally.attempted += 1
        outcomes.append((op, t0, elapsed, rc, err))
    wall = {op.label: elapsed for op, _, elapsed, _, _ in outcomes}
    cal = {op.label: sampler.calibrated(t0, t0 + elapsed) for op, t0, elapsed, _, _ in outcomes}
    for op, _, _, rc, err in outcomes:
        if err is not None:
            tally.fail(f"{' '.join(op.argv[:2])}...: raised {type(err).__name__}: {err}")
        elif rc != op.verdict:
            tally.fail(f"{' '.join(op.argv)}: exit {rc}, expected {op.verdict}")
        elif op.check is not None:
            reason = op.check()
            if reason is not None:
                tally.fail(reason)
    return wall, cal


def run_until(kf, workload, rng, tally, sampler, deadline, rec=None):
    """Passes until the deadline; returns the wall and the calibrated op times per pass."""
    walls, cals = [], []
    while not walls or time.perf_counter() < deadline:
        wall, cal = run_pass(kf, workload, rng, tally, sampler, rec)
        walls.append(wall)
        cals.append(cal)
    return walls, cals


def probe_hostile(kf, workload: Workload) -> list[dict]:
    """Malformed files, run once and untimed: a correct program exits 1 or 2."""
    out = []
    for label, path in workload.hostile:
        _, _, rc, err = call_main(kf, ["verify", path])
        outcome = f"raised {type(err).__name__}" if err is not None else f"exit {rc}"
        out.append({"file": label, "outcome": outcome, "ok": err is None and rc in (1, 2)})
    return out


def median_of_sums(passes: list[dict], labels: list[str]) -> float:
    return statistics.median(sum(p[label] for label in labels) for p in passes) if labels else 0.0


def product_sizes(checker: GenChecker) -> dict:
    sizes = checker.sizes.values()
    return {
        "size.y_coeff_bits_max": max((s[0] for s in sizes), default=0),
        "size.z_coeff_bits_max": max((s[1] for s in sizes), default=0),
        "knots.epsilon_halvings": sum(s[2] for s in sizes),
    }


def select_metrics(wanted: list[dict], values: dict, absent: list[str]) -> dict:
    """The metrics BENCHMARK.json names; a name with no value reads 0 and joins `absent`."""
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            absent.append(m["name"])
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "knotforge" / "cli.py").is_file():
        print(f"run.py: no knotforge sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    try:
        with calibrate.Sampler() as sampler:
            return measure(args, bench, work, sampler)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, bench: dict, work: Path, sampler: calibrate.Sampler) -> int:
    setup_at = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        kf, workload, checker = setup(args.workload, args.seed, work)
        setup_at.append((t0, time.perf_counter() - t0))
    setup_wall = [elapsed for _, elapsed in setup_at]
    setup_cal = [sampler.calibrated(t0, t0 + elapsed) for t0, elapsed in setup_at]

    rng = random.Random(f"{args.seed}/order")
    tally = Tally()
    start = time.perf_counter()
    traced = None
    if args.trace:
        walls, cals = run_until(kf, workload, rng, tally, sampler, start + args.seconds / 2)
        rec = spans.Recorder()
        installed = spans.install(rec)
        try:
            _, traced = run_until(kf, workload, rng, tally, sampler, start + args.seconds, rec)
        finally:
            installed.uninstall()
    else:
        walls, cals = run_until(kf, workload, rng, tally, sampler, start + args.seconds)
    hostile = probe_hostile(kf, workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    labels = {k: [op.label for group in workload.groups for op in group if op.kind == k]
              for k in KINDS}
    counts = {k: len(labels[k]) for k in KINDS}
    every = sum(labels.values(), [])
    values = {
        "setup_s": statistics.median(setup_cal),
        "pass_s": median_of_sums(cals, every),
        "peak_rss_mb": peak_rss_mb,
        "hostile.failed": sum(not h["ok"] for h in hostile),
        **{f"{k}_s": median_of_sums(cals, labels[k]) for k in KINDS},
        **product_sizes(checker),
    }
    wall = {"setup_s": statistics.median(setup_wall), "pass_s": median_of_sums(walls, every),
            **{f"{k}_s": median_of_sums(walls, labels[k]) for k in KINDS}}
    samples = {"setup_s": len(setup_cal), "pass_s": len(cals), "peak_rss_mb": 1,
               **{f"{k}_s": len(cals) for k in KINDS}}
    absent: list[str] = []
    if traced is not None:
        values.update(spans.summarize(rec, len(traced)))
        values["trace.overhead_ratio"] = median_of_sums(traced, every) / values["pass_s"]
        absent = sorted(set(installed.absent))
        samples["traced_passes"] = len(traced)
    metrics = select_metrics(bench["per_layer"] if args.trace else bench["end_to_end"],
                             values, absent)

    ident = identity()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"machine  {ident['system']} {ident['machine']}, {ident['cpus']} cpus; {ident['python']}")
    print("ops per pass  " + "  ".join(f"{k} {counts[k]}" for k in KINDS)
          + f";  passes {len(cals)}" + (f" untraced + {len(traced)} traced" if traced else ""))
    print(f"  {'metric':<14} {'calibrated':>10}  {'wall':>9}")
    for name in ("setup_s", "pass_s") + tuple(f"{k}_s" for k in KINDS):
        if name in ("setup_s", "pass_s") or counts[name[:-2]]:
            print(f"  {name:<14} {values[name]:>10.4f}  {wall[name]:>9.4f} s  "
                  f"(median of n={samples[name]})")
    print(f"  {'peak_rss_mb':<14} {peak_rss_mb:>10.1f} MiB")
    ratio = tally.failed / tally.attempted
    print(f"  {'op_fail_ratio':<14} {ratio:>10.4f}  "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"  FAILED {reason}")
    if hostile:
        print("  hostile files (untimed, not counted in attempted): "
              + ", ".join(f"{h['file']} {h['outcome']}" for h in hostile))
    if absent:
        print(f"  absent (reported as 0): {', '.join(absent)}")

    STATE.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "identity": ident, "ops_per_pass": counts,
        "samples": samples, "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons, "hostile": hostile, "absent": absent,
        "values": values, "wall": wall, "setup_wall": setup_wall, "setup_calibrated": setup_cal,
        "passes_wall": walls, "passes_calibrated": cals,
        "kernel_s": {"samples": len(sampler.took), "nominal": calibrate.NOMINAL_S,
                     "quartiles": statistics.quantiles(sampler.took, n=4)},
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced is not None:
        rec.write(str(stem) + "-spans.json.gz")

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
