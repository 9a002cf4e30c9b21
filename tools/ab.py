"""Alternating benchmark runs of two checkouts, with the medians, quartiles
and wins of every end-to-end metric.

    python tools/ab.py OLD_ROOT NEW_ROOT --workload geometry-n7 --pairs 10 --seconds 30 --seed0 201

Each ROOT is the root of a checkout (its ``perfbench/run.py`` and ``src/``).
Pair i runs ``perfbench/run.py --workload W --seed SEED0+i --seconds S
--trace 0`` once in each checkout, one after the other, in its own process
and working directory; the old checkout runs first in even pairs and second
in odd ones, so neither always runs on a machine the other has just warmed.
One line is printed per pair, then per metric the median and quartiles of
each side, the difference of the medians, in how many pairs the new side
was better, and a verdict.  Which way is better, and each metric's relative
bound, come from the ``end_to_end`` list of NEW_ROOT's ``BENCHMARK.json``.
Nothing in either checkout is changed.

The verdict of a metric is
- ``better`` when every new run beats every old run, or when the new side
  wins at least nine tenths of the pairs and its median beats the old one by
  more than the old side's interquartile range;
- ``unresolved`` otherwise, when either side's interquartile range is wider
  than the bound times the old median: the runs spread too widely to tell;
- ``worse`` when the new median is worse than the old one by more than the
  bound times the old median;
- ``within bound`` in every other case.

Exit status 1 if any run exits nonzero, or reports an op that failed or a
result that is not correct; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The last JSON line of one benchmark run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        capture_output=True, text=True, cwd=root)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(f"{root}: {result['failed']} of {result['attempted']} ops failed\n")
        return None
    return result


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def verdict(old: list[float], new: list[float], wins: int, lower_is_better: bool,
            bound: float) -> str:
    """better, unresolved, worse or within bound, as the module docstring
    says; ``wins`` counts the pairs in which the new side was better."""
    sign = 1.0 if lower_is_better else -1.0  # sign * (b - a) > 0: b is worse than a
    if all(sign * (b - a) < 0 for a in old for b in new):
        return "better"
    median = statistics.median(old)
    lo, hi = quartiles(old)
    nlo, nhi = quartiles(new)
    if max(hi - lo, nhi - nlo) > bound * abs(median):
        return "unresolved"
    change = sign * (statistics.median(new) - median)
    if change > bound * abs(median):
        return "worse"
    if 10 * wins >= 9 * len(old) and -change > hi - lo:
        return "better"
    return "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="root of the baseline checkout")
    parser.add_argument("new", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True, choices=("pair-n9", "gram-n8", "geometry-n7"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed0", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs and --seconds must be positive")
    roots = {"old": args.old.resolve(), "new": args.new.resolve()}
    spec = json.loads((roots["new"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {side: {m: [] for m in better} for side in roots}
    ok = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        sides = ("old", "new") if i % 2 == 0 else ("new", "old")
        results = {side: run(roots[side], args.workload, seed, args.seconds) for side in sides}
        if any(r is None for r in results.values()):
            ok = False
            print(f"pair {i + 1} seed {seed}: a run failed")
            continue
        cells = []
        for m in better:
            a, b = (results[side]["metrics"][m]["value"] for side in ("old", "new"))
            values["old"][m].append(a)
            values["new"][m].append(b)
            cells.append(f"{m} {a:.4g} -> {b:.4g}")
        print(f"pair {i + 1} seed {seed} ({sides[0]} first): " + " | ".join(cells), flush=True)
    done = len(values["old"][next(iter(better))])
    if done:
        print(f"\n{args.workload}: {done} pairs of {args.seconds:g} s")
        print(f"{'metric':20s} {'old median':>11s} {'old q1-q3':>19s} {'new median':>11s} "
              f"{'new q1-q3':>19s} {'new - old':>10s} {'new wins':>9s}  verdict")
        for m, way in better.items():
            old, new = values["old"][m], values["new"][m]
            wins = sum((b < a) if way == "lower" else (b > a) for a, b in zip(old, new))
            lo, hi = quartiles(old)
            nlo, nhi = quartiles(new)
            print(f"{m:20s} {statistics.median(old):11.4g} {lo:9.4g}-{hi:<9.4g} "
                  f"{statistics.median(new):11.4g} {nlo:9.4g}-{nhi:<9.4g} "
                  f"{statistics.median(new) - statistics.median(old):10.4g} {wins:4d} of {len(old)}  "
                  f"{verdict(old, new, wins, way == 'lower', bounds[m])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
