"""Named verification suites wired to the CLI ``check`` command.

Each suite samples graphs with a seeded generator (``mcs`` walks a fixed
catalog and compares exact integers), exercises library operations against
their stated properties (and, where one exists, against the exhaustive
oracle), and reports one pass/fail line per property.  A suite declares only
the parameters it uses, each with its default.  The suites contain no
independent math of their own.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import bruteforce
from .alignment import Alignment
from .geometry import cauchy_schwarz_gap, kernel_value, sample_mean, scalar_mult
from .graphs import AttributedGraph, GraphMatrix, from_matrix, pad_to_order, padded_order, to_matrix
from .kernels import DOT, induced_metric, mcs_kernel
from .orbits import (
    DEFAULT_ORDER_GUARD,
    is_ordinary,
    isotropy_group,
    orbit,
    quotient_distance,
)
from .sampling import random_graph, random_ordinary_graph, relabeled, unit_catalog, unit_complete

__all__ = ["PropertyResult", "SuiteReport", "SUITE_NAMES", "run_suite"]


@dataclass
class PropertyResult:
    name: str
    passed: bool
    residual: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{self.name}: {status} max_residual={self.residual:.3e}"
        if self.note:
            text += f" ({self.note})"
        return text


@dataclass
class SuiteReport:
    suite: str
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [f"[{self.suite}] {r.line()}" for r in self.results]
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"[{self.suite}] suite: {verdict}")
        return out


def _triple_orders(rng) -> list[int]:
    return [int(v) for v in rng.integers(1, 5, 3)]


def suite_metric(trials=200, seed=0, tol=1e-9, guard=DEFAULT_ORDER_GUARD) -> SuiteReport:
    rng = np.random.default_rng(seed)
    sym_worst = 0.0
    tri_violation = 0.0
    indis_ok = True
    iso_pairs = 0
    for t in range(trials):
        dim = int(rng.integers(1, 3))
        directed = bool(rng.integers(0, 2))
        graphs = [
            random_graph(rng, o, dim, directed=directed, attrs="int")
            for o in _triple_orders(rng)
        ]
        if t % 10 == 3:
            extra = int(rng.integers(0, 2))
            graphs[1] = relabeled(rng, pad_to_order(graphs[0], graphs[0].order + extra))
        n = padded_order(graphs)
        d = [[0.0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                if i != j:
                    d[i][j] = induced_metric(graphs[i], graphs[j], DOT, "bound", n, guard)
        for i in range(3):
            for j in range(i + 1, 3):
                sym_worst = max(sym_worst, abs(d[i][j] - d[j][i]))
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            tri_violation = max(tri_violation, d[i][k] - d[i][j] - d[j][k])
        mats = [to_matrix(g, n) for g in graphs]
        for i in range(3):
            for j in range(i + 1, 3):
                same = orbit(mats[i], guard).contains(mats[j])
                if same:
                    iso_pairs += 1
                if (d[i][j] == 0.0) != same:
                    indis_ok = False
    report = SuiteReport("metric")
    report.results.append(PropertyResult("symmetry_exact", sym_worst == 0.0, sym_worst))
    report.results.append(
        PropertyResult("triangle_inequality", tri_violation <= tol, max(0.0, tri_violation))
    )
    report.results.append(
        PropertyResult(
            "zero_iff_isomorphic",
            indis_ok and iso_pairs > 0,
            0.0,
            note=f"isomorphic pairs seen: {iso_pairs}",
        )
    )
    return report


def suite_cauchy_schwarz(trials=500, seed=0, tol=1e-9, guard=DEFAULT_ORDER_GUARD) -> SuiteReport:
    rng = np.random.default_rng(seed)
    min_gap = math.inf
    eq_worst = 0.0
    for t in range(trials):
        dim = int(rng.integers(1, 3))
        directed = bool(rng.integers(0, 2))
        x = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        y = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        min_gap = min(min_gap, cauchy_schwarz_gap(x, y, guard=guard))
        if t % 5 == 0:
            for lam in (0.5, 2.0, 7.0):
                gap = cauchy_schwarz_gap(x, scalar_mult(lam, x), guard=guard)
                eq_worst = max(eq_worst, abs(gap))
    report = SuiteReport("cauchy-schwarz")
    report.results.append(
        PropertyResult("gap_nonnegative", min_gap >= -tol, max(0.0, -min_gap))
    )
    report.results.append(
        PropertyResult("equality_positively_dependent", eq_worst <= tol, eq_worst)
    )
    return report


def suite_homogeneity(trials=100, seed=0, tol=1e-9, guard=DEFAULT_ORDER_GUARD) -> SuiteReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        directed = bool(rng.integers(0, 2))
        x = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        y = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        base = kernel_value(x, y, guard=guard)
        for lam in (0.5, 1.0, 2.0, 7.0):
            scaled = kernel_value(x, scalar_mult(lam, y), guard=guard)
            worst = max(worst, abs(scaled - lam * base) / (1.0 + abs(lam * base)))
    report = SuiteReport("homogeneity")
    report.results.append(PropertyResult("positive_homogeneity", worst <= tol, worst))
    return report


def suite_wgrt(trials=100, seed=0, tol=1e-9, guard=DEFAULT_ORDER_GUARD) -> SuiteReport:
    rng = np.random.default_rng(seed)
    center_res = 0.0
    expansion_violation = 0.0
    membership_ok = True
    interior_ordinary_ok = True
    strict = 0
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(2, 5))
        z_graph = random_ordinary_graph(rng, n, dim, directed=True)
        align = Alignment(z_graph, guard=guard)
        x = random_graph(rng, int(rng.integers(1, n + 1)), dim, directed=True)
        y = random_graph(rng, int(rng.integers(1, n + 1)), dim, directed=True)
        mu_x, mu_y = align.align(x), align.align(y)
        z = align.center_matrix
        delta_zx = quotient_distance(z, to_matrix(x, n), guard).value
        center_res = max(
            center_res, abs(float(np.linalg.norm(z.cells - mu_x.cells)) - delta_zx)
        )
        delta, aligned = align.expansion_check(x, y)
        expansion_violation = max(expansion_violation, delta - aligned)
        if aligned - delta > 1e-6:
            strict += 1
        membership_ok = membership_ok and align.contains(mu_x) and align.contains(mu_y)
        if align.contains(mu_x, interior=True):
            interior_ordinary_ok = interior_ordinary_ok and is_ordinary(mu_x, guard)
    singular_boundary_ok = True
    for n in (2, 3):
        z_graph = random_ordinary_graph(rng, n, 1, directed=True)
        align = Alignment(z_graph, guard=guard)
        flat = AttributedGraph(True, 1, [(1.0,)] * n)
        mu = align.align(flat)
        singular_boundary_ok = singular_boundary_ok and align.contains(mu) and not align.contains(
            mu, interior=True
        )
    report = SuiteReport("wgrt")
    report.results.append(
        PropertyResult("center_isometry", center_res <= 1e-12, center_res)
    )
    report.results.append(
        PropertyResult(
            "alignment_expands", expansion_violation <= tol, max(0.0, expansion_violation)
        )
    )
    report.results.append(PropertyResult("domain_membership", membership_ok, 0.0))
    report.results.append(
        PropertyResult("interior_points_ordinary", interior_ordinary_ok, 0.0)
    )
    report.results.append(
        PropertyResult(
            "strict_expansion_found", strict >= 1, 0.0, note=f"strict instances: {strict}"
        )
    )
    report.results.append(
        PropertyResult("singular_on_boundary", singular_boundary_ok, 0.0)
    )
    return report


def suite_cone(trials=100, seed=0, tol=1e-9, guard=DEFAULT_ORDER_GUARD) -> SuiteReport:
    rng = np.random.default_rng(seed)
    radius_res = 0.0
    isometry_res = 0.0
    membership_ok = True
    outside_seen = 0
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(2, 5))
        z_graph = random_ordinary_graph(rng, n, dim, directed=True)
        align = Alignment(z_graph, guard=guard)
        z = align.center_matrix
        rho = align.rho_star
        radius_res = max(
            radius_res,
            abs(2.0 * rho - bruteforce.dirichlet_boundary_distance(z, guard)),
        )

        def perturbed() -> AttributedGraph:
            u = rng.standard_normal(z.cells.shape)
            u *= rho * float(rng.uniform(0.1, 0.85)) / float(np.linalg.norm(u))
            g = from_matrix(GraphMatrix(z.cells + u), directed=True)
            return scalar_mult(float(rng.uniform(0.25, 4.0)), g)

        x, y = perturbed(), perturbed()
        membership_ok = membership_ok and align.cone_contains_graph(x, rho)
        check = align.conic_isometry_check(x, y, rho)
        if check.in_cone:
            isometry_res = max(isometry_res, abs(check.delta - check.aligned_distance))
        else:
            membership_ok = False
        # a generic unrelated graph sits outside the narrow cone; the check
        # must gate it out (in_cone False) rather than claim an isometry
        stranger = random_graph(rng, n, dim, directed=True)
        gated = align.conic_isometry_check(stranger, y, rho)
        if not align.cone_contains_graph(stranger, rho):
            outside_seen += 1
            if gated.in_cone:
                membership_ok = False
    report = SuiteReport("cone")
    report.results.append(
        PropertyResult("rho_star_matches_boundary_oracle", radius_res <= tol, radius_res)
    )
    report.results.append(
        PropertyResult("conic_isometry", isometry_res <= tol, isometry_res)
    )
    report.results.append(PropertyResult("constructed_pairs_in_cone", membership_ok, 0.0))
    report.results.append(
        PropertyResult(
            "outside_graphs_gated",
            outside_seen >= 1,
            0.0,
            note=f"outside instances: {outside_seen}",
        )
    )
    return report


def suite_mcs(guard=DEFAULT_ORDER_GUARD) -> SuiteReport:
    catalog = unit_catalog(4)
    worst = 0
    consistent = True
    for i, a in enumerate(catalog):
        for b in catalog[i:]:
            got = mcs_kernel(a, b, guard)
            expected = bruteforce.common_subgraph_maximum(a, b)
            worst = max(worst, abs(got.nodes + got.edges - expected))
            if got.value != got.nodes + 2 * got.edges:
                consistent = False
    report = SuiteReport("mcs")
    report.results.append(
        PropertyResult("matches_subgraph_enumeration", worst == 0, float(worst))
    )
    report.results.append(
        PropertyResult("kernel_counts_ordered_pairs", consistent, 0.0)
    )
    return report


def _mean_triple(rng, clustered: bool) -> list[AttributedGraph]:
    """Order-3 test triples: either perturbations of a shared base graph (the
    clustered case a sample mean is meant for) or fully independent draws."""
    if not clustered:
        return [random_graph(rng, 3, 1, directed=False, edge_prob=0.3) for _ in range(3)]
    base = to_matrix(random_graph(rng, 3, 1, directed=False, edge_prob=0.6)).cells
    triple = []
    for _ in range(3):
        noise = 0.5 * rng.standard_normal(base.shape)
        noise = (noise + noise.transpose(1, 0, 2)) / 2.0
        triple.append(from_matrix(GraphMatrix(base + noise), False))
    return triple


def suite_mean(trials=50, seed=0, tol=1e-9, guard=DEFAULT_ORDER_GUARD) -> SuiteReport:
    rng = np.random.default_rng(seed)
    monotone_ok = True
    bound_violation = 0.0
    hits = 0
    for t in range(trials):
        graphs = _mean_triple(rng, clustered=t % 2 == 0)
        result = sample_mean(graphs, max_iter=60, guard=guard)
        for a, b in zip(result.trace, result.trace[1:]):
            if b > a + 1e-12:
                monotone_ok = False
        optimum, _ = bruteforce.exhaustive_mean_optimum(graphs, guard=guard)
        bound_violation = max(bound_violation, optimum - result.frechet_value)
        if result.frechet_value <= optimum + tol:
            hits += 1
    rate = hits / trials if trials else 1.0
    report = SuiteReport("mean")
    report.results.append(PropertyResult("trace_non_increasing", monotone_ok, 0.0))
    report.results.append(
        PropertyResult(
            "never_beats_exhaustive_optimum",
            bound_violation <= tol,
            max(0.0, bound_violation),
        )
    )
    report.results.append(
        PropertyResult(
            "reaches_optimum_often", rate >= 0.8, 1.0 - rate, note=f"hit rate {rate:.2f}"
        )
    )
    return report


def suite_ordinary(trials=1000, seed=0, guard=DEFAULT_ORDER_GUARD) -> SuiteReport:
    rng = np.random.default_rng(seed)
    ordinary = sum(
        1
        for _ in range(trials)
        if is_ordinary(to_matrix(random_graph(rng, 4, 1, directed=False)), guard)
    )
    singular = unit_complete(4)
    iso_size = len(isotropy_group(to_matrix(singular), guard))
    report = SuiteReport("ordinary")
    report.results.append(
        PropertyResult(
            "gaussian_graphs_ordinary",
            ordinary == trials,
            float(trials - ordinary),
            note=f"{ordinary}/{trials}",
        )
    )
    report.results.append(
        PropertyResult(
            "uniform_graph_fully_singular",
            iso_size == 24,
            float(abs(iso_size - 24)),
            note=f"isotropy size {iso_size}",
        )
    )
    return report


SUITES = {
    "metric": suite_metric,
    "cauchy-schwarz": suite_cauchy_schwarz,
    "homogeneity": suite_homogeneity,
    "wgrt": suite_wgrt,
    "cone": suite_cone,
    "mcs": suite_mcs,
    "mean": suite_mean,
    "ordinary": suite_ordinary,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, **params) -> SuiteReport:
    """Run the named suite with ``params`` in place of its defaults; a
    parameter the suite does not declare raises ValueError."""
    if name not in SUITES:
        raise KeyError(name)
    suite = SUITES[name]
    extra = sorted(set(params) - set(inspect.signature(suite).parameters))
    if extra:
        raise ValueError(f"suite {name!r} does not take {', '.join(extra)}")
    if params.get("trials", 0) < 0:
        raise ValueError(f"trials must be >= 0, got {params['trials']}")
    return suite(**params)
