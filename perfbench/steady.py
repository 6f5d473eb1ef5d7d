#!/usr/bin/env python3
"""Run every workload several times and report each end-to-end metric's
median, quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py                  # 10 runs per workload, seeds 1..10
    python3 perfbench/steady.py --runs 1         # one run each: every metric once

Runs are sequential, one `run.py` process at a time, with workloads taken in
turn so that a slow spell on the machine hits all of them alike.  The
spread is (q3 - q1) / median with `statistics.quantiles(values, n=4)`; a
steady metric keeps it below a third of its bound (setup_s is only held to
its median).  The table also gives each run's sample counts and the op
counts attempted and failed.  A JSON copy goes to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {"seed": seed, "wall_s": wall, "result": result, "record": record}


def spread_row(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args(argv)

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for i in range(args.runs):
        for w in args.workloads:
            r = run_once(w, args.first_seed + i, args.seconds, 0)
            runs[w].append(r)
            print(f"# {w} seed {r['seed']}: {r['wall_s']:.1f} s wall, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in r["result"]["metrics"].items()),
                  file=sys.stderr, flush=True)

    summary = {"seconds": args.seconds, "runs": args.runs, "workloads": {}}
    print(f"{args.runs} run(s) per workload, {args.seconds} s each, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'workload':<13} {'metric':<12} {'unit':<4} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  samples/run")
    for w, rs in runs.items():
        rows = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            values = [r["result"]["metrics"][name]["value"] for r in rs]
            med, q1, q3, spread = spread_row(values)
            samples = sorted({r["record"]["samples"][name] for r in rs})
            rows[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": m["bound"], "samples_per_run": samples, "values": values}
            print(f"{w:<13} {name:<12} {m['unit']:<4} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{spread:>7.3f} {m['bound']:>6.2f}  n={'/'.join(map(str, samples))}")
        extra = [(kind, "values", "part of pass_s") for kind in ("gen_s", "verify_s", "export_s")]
        for name, source, note in extra + [("pass_s", "wall", "wall time, uncalibrated")]:
            values = [r["record"][source][name] for r in rs]
            if any(values):
                med, q1, q3, spread = spread_row(values)
                rows[f"{name} ({source})"] = {"unit": "s", "median": med, "q1": q1, "q3": q3,
                                             "spread": spread}
                print(f"{w:<13} {name:<12} {'s':<4} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                      f"{spread:>7.3f} {'-':>6}  ({note})")
        attempted = sum(r["result"]["attempted"] for r in rs)
        failed = sum(r["result"]["failed"] for r in rs)
        hostile = sorted({f"{h['file']} {h['outcome']}"
                          for r in rs for h in r["record"]["hostile"]})
        print(f"{w:<13} ops: {failed} failed of {attempted} attempted"
              + (f"; hostile probe: {', '.join(hostile)}" if hostile else ""))
        summary["workloads"][w] = {"metrics": rows, "attempted": attempted, "failed": failed,
                                   "identity": rs[0]["record"]["identity"]}
    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
