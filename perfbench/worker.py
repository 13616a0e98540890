"""One benchmark pass, or one cold start, in a fresh interpreter.

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Imports dyadisc from the checkout's src/ and prints one JSON line. A pass
times each operation of the workload, checks its output outside the timed
region, and reports peak RSS and CPU time of this process (and of any
processes it waited for).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _import_dyadisc():
    sys.path.insert(0, SRC)
    import dyadisc

    if os.path.dirname(os.path.dirname(os.path.abspath(dyadisc.__file__))) != SRC:
        raise SystemExit(f"dyadisc imported from {dyadisc.__file__}, not from {SRC}")
    return dyadisc


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup() -> dict:
    """Cold import plus the first trivial CLI call."""
    start = time.perf_counter()
    _import_dyadisc()
    from dyadisc import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        status = cli.main(["gen", "--n", "1"])
    return {"setup_s": time.perf_counter() - start, "ok": status == 0}


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    _import_dyadisc()
    import tracing
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    results = []
    bytes_out = 0
    wall = cpu = 0.0
    for op in ops:
        span = tracer.open(op.root) if tracer else None
        cpu_start = _cpu_s()
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception:  # an operation that raises counts as failed
            output = None
            failure = traceback.format_exc()
        seconds = time.perf_counter() - start
        cpu += _cpu_s() - cpu_start
        if tracer:
            tracer.close(span)
        wall += seconds
        if output is not None:
            if op.root == "cli":
                bytes_out += len(output[1].encode())
            failure = op.check(output)
        results.append({"op": op.name, "seconds": seconds, "failure": failure})
        del output
    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(bytes_out)
        out["spans_add_up"] = tracer.root_check()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.setup:
        result = setup()
    else:
        result = run_pass(args.workload, args.seed, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
