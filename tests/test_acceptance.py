"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not configurable: real-valued checks use
1e-9 (1e-12 where stated), integer-valued checks are exact.
"""

import subprocess
import sys

import numpy as np

from graphspace import (
    DOT,
    edit_kernel,
    induced_metric,
    induced_metric_via_kernel,
    length,
    metric,
    midpoint,
    orbit,
    serialize_graph,
    subperm_metric,
    to_matrix,
)
from graphspace.alignment import Alignment
from graphspace.sampling import random_graph, random_ordinary_graph
from graphspace.suites import run_suite

TOL = 1e-9


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _suite_detail(report) -> str:
    return "; ".join(r.line() for r in report.results)


def test_criterion_01_metric_axioms():
    report = run_suite("metric", trials=200, seed=101, tol=TOL)
    _report(1, "metric-axioms", report.passed, _suite_detail(report))


def test_criterion_02_kernel_trick_consistency():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 3))
        directed = bool(rng.integers(0, 2))
        x = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        y = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        n = max(x.order, y.order)
        direct = induced_metric(x, y, DOT, "bound", n)
        via = induced_metric_via_kernel(x, y, DOT, "all", "bound", n)
        worst = max(worst, abs(direct - via))
    _report(2, "kernel-trick-consistency", worst <= TOL, f"max deviation {worst:.3e}")


def test_criterion_03_compact_vs_orbit_gap():
    # pairwise-sum padding gives both graphs null slots, the only regime in
    # which a full-group bijection can beat every compact one
    rng = np.random.default_rng(303)
    ordered_ok = True
    eq_worst = 0.0
    signed_gap = 0.0
    gap_count = 0
    for _ in range(200):
        x = random_graph(rng, int(rng.integers(1, 5)), 1, attrs="nonneg")
        y = random_graph(rng, int(rng.integers(1, 5)), 1, attrs="nonneg")
        k_all = edit_kernel(x, y, DOT, "all", "pairwise-sum").value
        k_compact = edit_kernel(x, y, DOT, "compact", "pairwise-sum").value
        ordered_ok = ordered_ok and k_compact <= k_all + 1e-12
        eq_worst = max(eq_worst, abs(k_all - k_compact) / (1.0 + abs(k_all)))
    for _ in range(200):
        x = random_graph(rng, int(rng.integers(1, 5)), 1)
        y = random_graph(rng, int(rng.integers(1, 5)), 1)
        k_all = edit_kernel(x, y, DOT, "all", "pairwise-sum").value
        k_compact = edit_kernel(x, y, DOT, "compact", "pairwise-sum").value
        ordered_ok = ordered_ok and k_compact <= k_all + 1e-12
        if k_all - k_compact > TOL:
            gap_count += 1
            signed_gap = max(signed_gap, k_all - k_compact)
    # any sign-indefinite gap is logged, never a failure
    _report(
        3,
        "compact-vs-orbit",
        ordered_ok and eq_worst <= TOL,
        f"nonneg equality residual {eq_worst:.3e}; "
        f"sign-indefinite gaps {gap_count}/200, max {signed_gap:.3e}",
    )


def test_criterion_04_weak_cauchy_schwarz():
    report = run_suite("cauchy-schwarz", trials=500, seed=404, tol=TOL)
    _report(4, "weak-cauchy-schwarz", report.passed, _suite_detail(report))


def test_criterion_05_positive_homogeneity():
    report = run_suite("homogeneity", trials=100, seed=505, tol=TOL)
    _report(5, "positive-homogeneity", report.passed, _suite_detail(report))


def test_criterion_06_length_equals_orbit_norms():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(100):
        g = random_graph(
            rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)), attrs="int"
        )
        l = length(g)
        for element in orbit(to_matrix(g)).elements:
            ok = ok and element.norm() == l
    _report(6, "length-is-orbit-norm", ok, "exact on integer attributes")


def test_criterion_07_mcs_equivalence():
    report = run_suite("mcs")
    _report(7, "mcs-equivalence", report.passed, _suite_detail(report))


def test_criterion_08_subpermutation_metric():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        x = random_graph(rng, int(rng.integers(1, 5)), 1, attrs="nonneg")
        y = random_graph(rng, int(rng.integers(1, 5)), 1, attrs="nonneg")
        worst = max(
            worst,
            abs(subperm_metric(x, y) - induced_metric(x, y, DOT, "pairwise-sum")),
        )
    _report(8, "subpermutation-metric", worst <= TOL, f"max deviation {worst:.3e}")


def test_criterion_09_wgrt():
    report = run_suite("wgrt", trials=100, seed=909, tol=TOL)
    _report(9, "weak-representation", report.passed, _suite_detail(report))


def test_criterion_10_conic_isometry():
    report = run_suite("cone", trials=100, seed=1010, tol=TOL)
    _report(10, "conic-isometry", report.passed, _suite_detail(report))


def test_criterion_11_genericity():
    report = run_suite("ordinary", trials=1000, seed=1111)
    _report(11, "generic-ordinariness", report.passed, _suite_detail(report))


def test_criterion_12_midpoint():
    rng = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        directed = bool(rng.integers(0, 2))
        x = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        y = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        n = max(x.order, y.order)
        m = midpoint(x, y, order=n)
        half = metric(x, y, order=n) / 2.0
        worst = max(worst, abs(metric(x, m, order=n) - half), abs(metric(m, y, order=n) - half))
    _report(12, "geodesic-midpoint", worst <= TOL, f"max deviation {worst:.3e}")


def test_criterion_13_sample_mean():
    report = run_suite("mean", trials=50, seed=1313, tol=TOL)
    _report(13, "sample-mean", report.passed, _suite_detail(report))


def test_criterion_14_correspondences():
    rng = np.random.default_rng(1414)
    worst = 0.0
    agree = True
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(2, 5))
        center = random_ordinary_graph(rng, n, dim, directed=True)
        aligner = Alignment(center)
        x = random_graph(rng, int(rng.integers(1, n + 1)), dim, directed=True)
        rep = aligner.correspondence_report(x)
        worst = max(worst, rep.max_residual)
        agree = agree and rep.graph_orthogonal == rep.vector_orthogonal
    _report(14, "aligned-correspondences", worst <= TOL and agree, f"max residual {worst:.3e}")


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "graphspace", *args], capture_output=True, text=True
    )


def test_criterion_15_determinism(tmp_path):
    check_args = ("check", "--suite", "metric", "--trials", "50", "--seed", "11")
    first, second = _run_cli(*check_args), _run_cli(*check_args)
    check_ok = first.stdout == second.stdout and first.stdout != ""

    rng = np.random.default_rng(1515)
    for k in range(4):
        path = tmp_path / f"g{k}.json"
        path.write_text(serialize_graph(random_graph(rng, 3, 1)), encoding="utf-8")
    gram_args = ("gram", str(tmp_path), "--kind", "distance")
    g1, g2 = _run_cli(*gram_args), _run_cli(*gram_args)
    gram_ok = g1.stdout == g2.stdout and g1.returncode == 0

    mean_args = ("mean", str(tmp_path / "g0.json"), str(tmp_path / "g1.json"))
    m1, m2 = _run_cli(*mean_args), _run_cli(*mean_args)
    mean_ok = m1.stdout == m2.stdout and m1.returncode == 0

    _report(15, "byte-determinism", check_ok and gram_ok and mean_ok)
