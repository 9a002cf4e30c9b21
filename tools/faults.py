"""Minor page faults per op of a benchmark workload, for one or more source trees.

    python tools/faults.py OLD_SRC NEW_SRC --workload pair-n9 --seconds 10

Each SRC is a directory holding a ``graphspace`` package.  Every tree runs in
a fresh process of its own: ``perfbench/run.py``'s set-up (fresh imports and
warm-up ops), then the workload's ops in a closed loop for ``--seconds``.
``ru_minflt`` is read before and after each op, so the count is the op's own
and not the set-up's.  One line is printed per tree: ops/s, the median op
latency, and the minor faults per op (mean, median and largest).  Only
``perfbench/`` of this checkout is read; it is imported, not changed.
Allocations that the allocator hands back to the system and takes again
show here as faults on every op, where timing alone may hide them.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def measure(src: str, workload: str, seed: int, seconds: float) -> dict:
    """Run in the child: set up the workload on ``src`` and time its ops."""
    sys.path.insert(0, str(PERFBENCH))
    import run

    run.SRC = Path(src).resolve()
    run.pin_threads()
    with tempfile.TemporaryDirectory() as work:
        wl, _ = run.set_up(workload, seed, Path(work))
        faults, latencies = [], []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline or not latencies:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            wl.op(len(latencies))
            latencies.append(time.perf_counter() - t0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        elapsed = time.perf_counter() - start
    return {
        "ops_s": len(latencies) / elapsed,
        "p50_ms": statistics.median(latencies) * 1e3,
        "faults_mean": statistics.fmean(faults),
        "faults_median": statistics.median(faults),
        "faults_max": max(faults),
        "ops": len(latencies),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", help="a directory holding a graphspace package")
    parser.add_argument("--workload", required=True, choices=("pair-n9", "gram-n8", "geometry-n7"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.src[0], args.workload, args.seed, args.seconds)))
        return 0
    print(f"{'tree':40s} {'ops/s':>8s} {'p50 ms':>8s} {'faults/op':>10s} {'median':>7s} {'max':>6s}")
    for src in args.src:
        proc = subprocess.run(
            [sys.executable, __file__, src, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--child"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{src:40s} {r['ops_s']:8.2f} {r['p50_ms']:8.2f} {r['faults_mean']:10.2f} "
              f"{r['faults_median']:7g} {r['faults_max']:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
