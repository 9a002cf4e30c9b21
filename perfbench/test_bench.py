"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench/test_bench.py -q
(about two minutes: every workload runs once untraced and once traced at
smoke size).
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(tmp_cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=tmp_cwd)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, section):
    proc = bench(HERE.parent, "--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # A traced run also compares every traced output with its untraced twin.
    assert result["correct"] and result["failed"] == 0, proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for name, unit in expected.items():
        row = next(line for line in table.splitlines() if line.split()[:1] == [name])
        assert row.split()[2] == unit
    if trace == 0:
        assert "failed_ratio" in table
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _corrupt_metric(monkeypatch, gs):
    real = gs.induced_metric
    monkeypatch.setattr(gs, "induced_metric", lambda *a, **k: real(*a, **k) + 1e-3)


def _corrupt_gram(monkeypatch, gs):
    real = gs.cli.induced_metric
    monkeypatch.setattr(gs.cli, "induced_metric", lambda *a, **k: real(*a, **k) + 1e-3)


def _corrupt_align(monkeypatch, gs):
    real = gs.Alignment.align
    monkeypatch.setattr(gs.Alignment, "align",
                        lambda self, g: gs.GraphMatrix(real(self, g).cells * 1.001))


@pytest.mark.parametrize("workload, corrupt", [
    ("pair-n9", _corrupt_metric), ("gram-n8", _corrupt_gram), ("geometry-n7", _corrupt_align)])
def test_corrupted_result_counts_as_failed(monkeypatch, workload, corrupt):
    # Each set-up imports graphspace afresh, so corrupt the modules the workload gets.
    real = run.make_workload

    def corrupted(gs, *args):
        corrupt(monkeypatch, gs)
        return real(gs, *args)

    monkeypatch.setattr(run, "make_workload", corrupted)
    result = run.run_one(workload, seed=7, seconds=0.1, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert result["metrics"]["throughput_ops_s"]["value"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "pair-n9", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, label = run.tail([float(v) for v in range(150, 0, -1)])
    assert value == 140.0 and label == "p93 of 150, 10 beyond"


@pytest.mark.parametrize("n", [2, 5, 11, 15, 20, 21, 99])
def test_tail_below_a_hundred_samples_is_the_interpolated_p90(n):
    xs = [float(v) for v in range(n, 0, -1)]
    value, label = run.tail(xs)
    assert value == pytest.approx(1.0 + 0.9 * (n - 1))
    assert value >= statistics.median(xs)
    assert label.startswith(f"p90 of {n}, interpolated")
    assert run.tail([4.0]) == (4.0, "the only sample")


def _span(key, tid, t0, t1, parent=None):
    span = tracer.Span(key, key.split(".")[0], parent, tid, t0)
    span.t1 = t1
    return span


def test_self_times_split_concurrent_worker_time_and_add_up():
    op = _span("cli.cmd_gram", 1, 0.0, 10.0)
    a = _span("kernels.edit_kernel", 2, 2.0, 6.0, op)
    b = _span("kernels.edit_kernel", 3, 3.0, 8.0, op)
    own = tracer.self_times([op, a, b], op_tid=1)
    assert own[op] == pytest.approx(4.0)  # waits on the pool while a worker runs
    assert own[a] == pytest.approx(1.0 + 1.5)
    assert own[b] == pytest.approx(1.5 + 2.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_restores_every_binding():
    gs, _ = run.import_graphspace()
    before = (gs.kernels.gather, gs.geometry.min_sq_over_group, gs.cli._COMMANDS["gram"],
              gs.Alignment.align, gs.Alignment.__dict__["rho_star"].func, gs.induced_metric)
    t = tracer.Tracer()
    t.install()
    try:
        assert gs.kernels.gather is not before[0]
        assert gs.cli._COMMANDS["gram"] is not before[2]
        assert gs.induced_metric is not before[5]
        assert not t.missing()
    finally:
        t.uninstall()
    after = (gs.kernels.gather, gs.geometry.min_sq_over_group, gs.cli._COMMANDS["gram"],
             gs.Alignment.align, gs.Alignment.__dict__["rho_star"].func, gs.induced_metric)
    assert all(x is y for x, y in zip(before, after))
