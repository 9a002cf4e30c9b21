"""graphspace benchmark: closed-loop workloads with one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair-n9 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs every op twice on the same input, untraced and traced, and reports the
per-layer metrics from the traced copies (see ``tracer.py``).  Each workload
runs in a process of its own; ``--workload all`` starts one per workload.
The program is imported from ``src/`` of the same checkout.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; a human-readable table precedes it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("pair-n9", "gram-n8", "geometry-n7")
# setup_s is the median of this many set-ups, each with a fresh import.
SETUP_SAMPLES = 5
# latency_tail_ms: the rule "highest percentile with ten samples beyond it"
# reaches p90 only from this many samples on.
TAIL_MIN_SAMPLES = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
]


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use.  Must run
    before numpy is imported; children inherit the environment."""
    cap = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cap:
            os.environ[var] = str(cap)


def run_seconds() -> float:
    """The default run length: ``run_seconds`` of the checkout's BENCHMARK.json."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no run_seconds in {ROOT / 'BENCHMARK.json'}: {exc}") from exc


def import_graphspace():
    """Import the checkout's graphspace (package and CLI); returns (module, seconds).
    Any graphspace modules already loaded are dropped first, so the import
    runs again and lazy caches such as ``permutation_array``'s start empty."""
    if not (SRC / "graphspace" / "__init__.py").is_file():
        raise BenchError(f"no graphspace package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "graphspace" or m.startswith("graphspace.")]:
        del sys.modules[name]
    gc.collect()  # free the old modules' caches before the new ones fill
    t0 = time.perf_counter()
    import graphspace
    import graphspace.cli  # noqa: F401  (the gram workload's entry point)
    seconds = time.perf_counter() - t0
    if not Path(graphspace.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"graphspace imported from {graphspace.__file__}, not {SRC}")
    import graphspace.sampling  # noqa: F401  (input generation, not timed)
    return graphspace, seconds


def environment() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            caches.append(f"L{level}{'d' if kind == 'Data' else ''}={size}")
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (f"env: nproc={nproc()}  cpu={cpu}  cache: {' '.join(caches) or 'unknown'}  "
            f"numpy={numpy.__version__}  python={sys.version.split()[0]}  {threads}")


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its label.

    Below ``TAIL_MIN_SAMPLES`` that percentile is under p90, and under the
    median below 21 samples, so the interpolated p90 is reported instead: it
    never reads below the median and does not jump as the op count grows."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= TAIL_MIN_SAMPLES:
        return xs[n - 11], f"p{100 * (n - 10) // n} of {n}, 10 beyond"
    if n == 1:
        return xs[0], "the only sample"
    p90 = statistics.quantiles(xs, n=10, method="inclusive")[-1]
    return p90, f"p90 of {n}, interpolated (fewer than {TAIL_MIN_SAMPLES} samples)"


def make_workload(gs, name: str, seed: int, workdir: Path):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](gs, seed, workdir)


def _attempt(fn, *args):
    """(result, error text, seconds) of one op; an op that raises is a failed op."""
    t0 = time.perf_counter()
    try:
        result, error = fn(*args), None
    except Exception as exc:  # the loop must go on and count the failure
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - t0


def verify(wl, results: list, problems: dict[int, list[str]]) -> None:
    """Run every op's checks and the oracle sample; fills ``problems``."""
    for i, (result, error) in enumerate(results):
        if error is not None:
            problems.setdefault(i, []).append(error)
            continue
        found = wl.check(i, result)
        if found:
            problems.setdefault(i, []).extend(found)
    for i in wl.oracle_ops(len(results)):
        if results[i][1] is None:
            found = wl.oracle_check(i, results[i][0])
            if found:
                problems.setdefault(i, []).extend(found)


def set_up(name: str, seed: int, workdir: Path):
    """``SETUP_SAMPLES`` set-ups, each a fresh import of graphspace plus one
    warm-up op; input generation is not timed.  Returns the last workload and
    every sample's seconds."""
    samples = []
    for k in range(SETUP_SAMPLES):
        gs = wl = None  # let the previous set-up's modules go before importing again
        gs, import_s = import_graphspace()
        wl = make_workload(gs, name, seed, workdir / f"setup{k}")
        t0 = time.perf_counter()
        wl.warmup()
        samples.append(import_s + time.perf_counter() - t0)
    return wl, samples


def run_untraced(wl, setups: list[float], seconds: float):
    results, latencies = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        result, error, dt = _attempt(wl.op, len(results))
        results.append((result, error))
        latencies.append(dt)
        if time.perf_counter() >= deadline:
            break
    elapsed = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: dict[int, list[str]] = {}
    verify(wl, results, problems)
    completed = len(results) - len(problems)
    tail_ms, tail_label = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": completed / elapsed,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_ms * 1e3,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {len(setups)}: " + " ".join(f"{s:.3f}" for s in setups),
        "throughput_ops_s": f"{completed} ops completed and correct / {elapsed:.2f} s",
        "latency_p50_ms": f"n={len(latencies)}",
        "latency_tail_ms": tail_label,
        "peak_rss_mb": "ru_maxrss after the timed loop",
    }
    return metrics, dict(END_TO_END), notes, len(results), problems


def run_traced(wl, seconds: float):
    import tracer as tr

    # The warm-up is traced on its own, for permutation_array's cold cost.
    setup = tr.Tracer()
    setup.install()
    try:
        wl.warmup()
    finally:
        setup.uninstall()

    traced = tr.Tracer()
    results, plain_lat, traced_lat = [], [], []
    problems: dict[int, list[str]] = {}
    deadline = time.perf_counter() + seconds
    while True:
        i = len(results)
        # Alternate which copy runs first, so neither always finds warm caches.
        for traced_copy in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_copy:
                traced.install()
                try:
                    t_res, t_err, dt = _attempt(wl.op, i)
                finally:
                    traced.uninstall()
                traced_lat.append(dt)
            else:
                u_res, u_err, dt = _attempt(wl.op, i)
                plain_lat.append(dt)
        results.append((u_res, u_err))
        if t_err is not None:
            problems.setdefault(i, []).append(f"traced copy: {t_err}")
        elif u_err is None and wl.fingerprint(t_res) != wl.fingerprint(u_res):
            problems.setdefault(i, []).append("traced and untraced outputs differ")
        if time.perf_counter() >= deadline:
            break
    verify(wl, results, problems)

    metrics = tr.per_layer_metrics(traced, traced_lat, plain_lat, setup)
    units = dict(tr.PER_LAYER)
    notes = {name: "not exercised on this workload" for name, v in metrics.items() if v == 0}
    for key in traced.missing():
        notes[f"missing {key}"] = "not found in graphspace; metrics that read it are 0"
    own = metrics["trace.attributed_share"]
    overhead = metrics["trace.overhead_ratio"] - 1.0
    residual = 1.0 - own
    notes["trace.attributed_share"] = (
        f"layer self times cover {own:.4f} of traced op time; residual {residual:+.4f} "
        f"{'within' if abs(residual) <= abs(overhead) else 'outside'} overhead {overhead:+.4f}")
    notes["trace.overhead_ratio"] = (f"traced {sum(traced_lat):.2f} s / untraced {sum(plain_lat):.2f} s "
                                     f"over {len(results)} paired ops")
    return metrics, units, notes, len(results), problems


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        print(f"perfbench {name}  seed={seed}  seconds={seconds:g}  trace={int(trace)}  "
              f"closed loop, 1 caller")
        print(environment())  # imports numpy, so no set-up sample pays for it
        if trace:
            gs, _ = import_graphspace()
            wl = make_workload(gs, name, seed, workdir)
        else:
            wl, setups = set_up(name, seed, workdir)
        print(f"inputs: {len(wl.input_graphs())} graphs  sha256={wl.digest()}")
        if trace:
            metrics, units, notes, attempted, problems = run_traced(wl, seconds)
        else:
            metrics, units, notes, attempted, problems = run_untraced(wl, setups, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = len(problems)
    print(f"{'metric':40s} {'value':>16s}  {'unit':10s} note")
    for metric, value in metrics.items():
        print(f"{metric:40s} {value:16.6g}  {units[metric]:10s} {notes.get(metric, '')}")
    if not trace:
        print(f"{'failed_ratio':40s} {failed / attempted:16.6g}  {'ratio':10s} {failed} of {attempted} ops")
    for key, note in notes.items():
        if key.startswith("missing "):
            print(f"{key}: {note}")
    for i, found in sorted(problems.items())[:20]:
        for p in found[:5]:
            print(f"FAILED op {i}: {p}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in a fresh process of its own, then one summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed_ratio", result["failed"] / result["attempted"], "ratio"))
    print("\nsummary")
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:40s} {value:16.6g}  {unit}")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        if args.seconds is None:
            args.seconds = run_seconds()
        if not (args.seconds > 0 and math.isfinite(args.seconds)):
            parser.error("--seconds must be positive")
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
