"""Geometric structure of the graph metric space: length, angle, midpoints,
and iterative Fréchet sample means.

All operations here use the dot edit score; the induced metric is the
quotient metric of the permutation action, so representation-level averaging
(after optimal alignment) is legitimate and is what the midpoint and mean
constructions rely on.  Graphs are padded with null nodes to a common order
(``bound`` padding): ``order``, or by default the larger order of each pair
(of all inputs, in ``sample_mean``).  Under one fixed order, distances across
a whole collection form a metric.  ``order`` and ``guard`` are taken as by
``kernels.edit_kernel``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .graphs import (
    AttributedGraph,
    GraphMatrix,
    from_matrix,
    padded_order,
    strip_null_nodes,
    to_matrix,
)
from .kernels import DOT, _prepare, edit_kernel, induced_metric
from .orbits import (
    DEFAULT_ORDER_GUARD,
    Permutation,
    Witnessed,
    apply_action,
    _min_sq_many,
    check_order_guard,
    min_sq_over_group,
)

__all__ = [
    "kernel_value",
    "metric",
    "scalar_mult",
    "length",
    "angle_cosine",
    "is_orthogonal",
    "is_orthogonal_to_set",
    "cauchy_schwarz_gap",
    "midpoint",
    "sample_mean",
    "MeanResult",
]


def kernel_value(
    x: AttributedGraph,
    y: AttributedGraph,
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> float:
    """Edit kernel over the full group: max over gamma of <x, gamma y>."""
    return edit_kernel(x, y, DOT, "all", "bound", order, guard).value


def metric(
    x: AttributedGraph,
    y: AttributedGraph,
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> float:
    """The induced metric: min over gamma of ||x - gamma y||."""
    return induced_metric(x, y, DOT, "bound", order, guard)


def scalar_mult(lam: float, x: AttributedGraph) -> AttributedGraph:
    """Multiply every node and edge attribute by lam (lam = 0 is rejected:
    it would zero out edge attributes; the zero graph is the all-null graph)."""
    if lam == 0.0:
        raise ValueError("scalar 0 would create zero edge attributes")
    nodes = [tuple(lam * v for v in a) for a in x.node_attrs]
    edges = [((i, j), tuple(lam * v for v in a)) for i, j, a in x.edges]
    return AttributedGraph(x.directed, x.dim, nodes, edges)


def length(x: AttributedGraph) -> float:
    """Euclidean norm of any matrix representation.

    The identity bijection maximizes the self-score, so no optimization is
    needed; padding adds zero cells and leaves the norm unchanged.
    """
    return to_matrix(x).norm()


def angle_cosine(
    x: AttributedGraph,
    y: AttributedGraph,
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> float:
    """Cosine of the angle between nonzero graphs: kernel / (length*length)."""
    lx, ly = length(x), length(y)
    if lx == 0.0 or ly == 0.0:
        raise ValueError("angle undefined for zero-length graphs")
    c = kernel_value(x, y, order, guard) / (lx * ly)
    return min(1.0, max(-1.0, c))


def is_orthogonal(
    x: AttributedGraph,
    y: AttributedGraph,
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
    tol: float = 1e-9,
) -> bool:
    return abs(kernel_value(x, y, order, guard)) <= tol


def is_orthogonal_to_set(
    x: AttributedGraph,
    graphs: Sequence[AttributedGraph],
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
    tol: float = 1e-9,
) -> bool:
    """True when the kernel with x is constant across the set (within tol)."""
    values = [kernel_value(x, g, order, guard) for g in graphs]
    if len(values) < 2:
        return True
    return max(values) - min(values) <= tol


def cauchy_schwarz_gap(
    x: AttributedGraph,
    y: AttributedGraph,
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> float:
    """length(x)*length(y) - |kernel(x,y)|; nonnegative, zero for positively
    dependent pairs."""
    return length(x) * length(y) - abs(kernel_value(x, y, order, guard))


def _graph_of(cells: np.ndarray, directed: bool) -> AttributedGraph:
    return strip_null_nodes(from_matrix(GraphMatrix(cells), directed))


def midpoint(
    x: AttributedGraph,
    y: AttributedGraph,
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> AttributedGraph:
    """Geodesic midpoint: average of optimally aligned representations.

    Null-nodes are stripped from the result, and off-diagonal cells that
    average to exact zero become non-edges.  Both distances to the midpoint
    equal half the distance between the inputs.
    """
    if x.directed != y.directed:
        raise ValueError("midpoint requires a common directedness")
    xm, ym, _ = _prepare(x, y, "bound", order, guard)
    aligned = apply_action(min_sq_over_group(xm.cells, ym.cells).witness, ym)
    return _graph_of((xm.cells + aligned.cells) / 2.0, x.directed)


class MeanResult(NamedTuple):
    mean: AttributedGraph
    frechet_value: float
    trace: tuple[float, ...]
    converged: bool


def sample_mean(
    graphs: Sequence[AttributedGraph],
    max_iter: int = 100,
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> MeanResult:
    """Fréchet sample mean by alternating alignment and averaging.

    Starts from the input graph with the smallest sum of squared distances,
    then repeats: align every representation optimally to the current mean,
    replace the mean by the arithmetic average of the aligned
    representations.  Each full iteration cannot increase the objective, so
    the returned trace is non-increasing; iteration stops at a fixed point or
    after max_iter rounds.  This is a local method: the trace converges but
    the limit need not be a global minimizer on symmetric configurations.
    Every (mean, graph) pair is scanned once: the scan that scores a
    candidate mean also aligns the graphs to it for the next round.  A
    round is one pass of the candidate against all K graphs, and the start
    selection one pass of each input against the K - 1 others (passes of
    many partners: ``orbits._inner_scan``).  ``max_iter`` must be at least
    0; with 0 the start graph is returned.
    """
    if not graphs:
        raise ValueError("sample_mean requires at least one graph")
    if max_iter < 0:
        raise ValueError(f"max_iter must be at least 0, got {max_iter}")
    directed = graphs[0].directed
    dim = graphs[0].dim
    for g in graphs:
        if g.directed != directed or g.dim != dim:
            raise ValueError("graphs must share directedness and attribute dimension")
    n = padded_order(graphs, "bound", order)
    check_order_guard(n, guard)
    mats = [to_matrix(g, n) for g in graphs]
    cells = np.stack([m.cells for m in mats])

    # A graph is at squared distance exactly 0.0 from itself, first reached
    # at the identity: the diagonal needs no scan.
    same = Witnessed(0.0, Permutation.identity(n))
    fits = []
    for i in range(len(mats)):
        row = _min_sq_many(cells[i], np.delete(cells, i, axis=0))
        row.insert(i, same)
        fits.append(row)
    frechet = [sum(f.value for f in row) for row in fits]
    start = int(np.argmin(frechet))
    cur, fit = mats[start].cells, fits[start]
    trace = [frechet[start]]
    converged = False
    for _ in range(max_iter):
        new = np.mean([apply_action(f.witness, m).cells for f, m in zip(fit, mats)], axis=0)
        new_fit = _min_sq_many(new, cells)
        value = sum(f.value for f in new_fit)
        # accept only strict improvements: the trace stays non-increasing and
        # rounding noise in the average cannot displace an exact fixed point
        if value >= trace[-1]:
            converged = True
            break
        cur, fit = new, new_fit
        trace.append(value)
    return MeanResult(_graph_of(cur, directed), trace[-1], tuple(trace), converged)
