"""dyadisc benchmark: end-to-end metrics, or per-layer metrics from a traced pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. Every pass of a workload runs in a fresh
interpreter (perfbench/worker.py), one at a time, so peak RSS belongs to
that pass and no memoised state carries over. Passes repeat until --seconds
have elapsed. With --trace 0 the run also times cold starts (one before each
pass, at least SETUP_STARTS) and reports the end-to-end metrics; with
--trace 1 it adds one traced pass after the untraced ones and reports the
per-layer metrics. The last line of stdout is one JSON object; the lines
before it print the same numbers for people. Workloads, metrics and
baselines are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_STARTS = 7
DEADLINE_S = 170.0


def _child(deadline: float, *args: str) -> dict:
    """Run worker.py once and return its JSON line; stop it at the deadline."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the next pass")
    proc = subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dyadisc", "__init__.py")):
        print("perfbench: no dyadisc sources under src/; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    pass_args = ("--workload", args.workload, "--seed", str(args.seed), "--trace", "0")
    setups = []
    passes = []
    start = time.monotonic()
    # cold starts alternate with passes, so that both sample the same stretch
    # of a shared machine's changing speed
    while not passes or time.monotonic() - start < args.seconds:
        if not args.trace:
            setups.append(_child(deadline, "--setup"))
        passes.append(_child(deadline, *pass_args))
    while not args.trace and len(setups) < SETUP_STARTS:
        setups.append(_child(deadline, "--setup"))
    traced = _child(deadline, *pass_args[:-1], "1") if args.trace else None

    ops = [op for p in passes + ([traced] if traced else []) for op in p["ops"]]
    failed = [op for op in ops if op["failure"]]
    for op in failed:
        print(f"FAILED {args.workload}/{op['op']}: {op['failure']}", file=sys.stderr)
    correct = not failed and all(s["ok"] for s in setups)
    walls = sorted(p["wall_s"] for p in passes)
    wall = statistics.median(walls)
    print(f"{args.workload} seed {args.seed}: {len(passes)} untraced passes "
          f"(too few for a percentile with ten samples beyond it)")
    print(f"  wall_s       median {wall:.4f} s  min {walls[0]:.4f} s  max {walls[-1]:.4f} s"
          f"  n={len(walls)}")
    print(f"  ops_failed   {len(failed)} / {len(ops)} ops")

    if args.trace:
        correct = correct and traced["spans_add_up"]
        metrics = dict(traced["layers"])
        metrics["run.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
        metrics["trace.overhead_s"] = traced["wall_s"] - wall
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
        units["haar.level_cache.hit_ratio"] = "ratio"
        units["classical.grid_bytes_computed"] = units["cli.bytes_out"] = "B"
        for name, value in metrics.items():
            print(f"  {name:36} {value} {units[name]}")
        result = {name: _metric(value, units[name]) for name, value in metrics.items()}
    else:
        rss = statistics.median(p["peak_rss_mb"] for p in passes)
        setup = statistics.median(s["setup_s"] for s in setups)
        print(f"  peak_rss_mb  median {rss:.1f} MB")
        print(f"  setup_s      median {setup:.4f} s  n={len(setups)} cold starts")
        result = {
            "wall_s": _metric(wall, "s"),
            "peak_rss_mb": _metric(rss, "MB"),
            "setup_s": _metric(setup, "s"),
        }
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
