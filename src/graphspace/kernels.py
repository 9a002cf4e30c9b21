"""Edit scores, edit costs, exact edit kernels, and the induced graph metrics.

The transformation score of a node bijection between two size-aligned graphs
sums an attribute-pair similarity k over all matrix cells; maximizing it over
bijections gives the edit kernel.  Replacing k by the cost
``k(x,x) + k(y,y) - 2 k(x,y)`` and minimizing gives the squared induced
metric, which coincides with the quotient metric of the permutation action.

Two bijection classes are supported: ``"all"`` (the full permutation group,
orbit semantics) and ``"compact"`` (every real node of the smaller graph must
map to a real node of the larger one).  With componentwise nonnegative
attributes the two optima agree; for sign-indefinite attributes routing a
real node through padding can win, and the test suites measure that gap
rather than assuming it away.

Padding beyond the larger graph adds only null nodes, so a compact
bijection at padded order n scores as one of the full group at the larger
graph's order m, extended by the identity on m..n-1, and the lex-smallest
optimum is such an extension.  A compact call therefore checks the order
guard at n and scans the full group at order m (``_prepare``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graphs import AttributedGraph, GraphMatrix, padded_order, to_matrix
from .orbits import (
    DEFAULT_ORDER_GUARD,
    Permutation,
    Witnessed,
    _cell_order,
    apply_action,
    check_order_guard,
    gather,
    max_inner_over_group,
    min_sq_over_group,
    optimum,
)

__all__ = [
    "EditScore",
    "DOT",
    "DELTA",
    "EditCost",
    "MORPHISM_CLASSES",
    "transformation_score",
    "transformation_cost",
    "edit_kernel",
    "induced_metric",
    "induced_metric_via_kernel",
    "general_ged",
    "mcs_kernel",
    "McsKernel",
    "greedy_bound",
    "GreedyBound",
]

MORPHISM_CLASSES = ("all", "compact")


@dataclass(frozen=True)
class EditScore:
    """Attribute-pair similarity.

    ``dot`` is the inner product on R^d.  ``delta`` scores 1 for equal
    non-null attributes and 0 otherwise; null-null pairs score 0 so that
    padding never inflates a kernel value.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("dot", "delta"):
            raise ValueError(f"unknown edit score kind {self.kind!r}")

    def __call__(self, a, b) -> float:
        ax = np.asarray(a, dtype=np.float64)
        bx = np.asarray(b, dtype=np.float64)
        if self.kind == "dot":
            # a product past the largest float is inf, and inf - inf is nan
            with np.errstate(over="ignore", invalid="ignore"):
                return float(ax @ bx)
        return 1.0 if np.array_equal(ax, bx) and np.any(ax != 0.0) else 0.0


DOT = EditScore("dot")
DELTA = EditScore("delta")

# Built-in costs and the _cell_scores kind that scores them; the kernel-dot
# cost goes through min_sq_over_group instead.
_COST_KINDS = {"kernel-delta": "cost-delta", "uniform": "uniform"}
# Per cost kind, the score it takes and whether it takes an fn.
_COST_FIELDS = {"kernel-dot": (DOT, False), "kernel-delta": (DELTA, False),
                "uniform": (None, False), "custom": (None, True)}


@dataclass(frozen=True)
class EditCost:
    """Attribute-pair dissimilarity.

    Built-ins: ``from_kernel(k)`` applies the kernel trick
    k(x,x) + k(y,y) - 2k(x,y); ``uniform`` charges 1 for any differing pair
    and 0 otherwise (dummy null-null operations are free either way).
    """

    kind: str
    score: EditScore | None = None
    fn: Callable | None = None

    def __post_init__(self):
        # the fields each kind reads; any other value would be ignored
        if self.kind not in _COST_FIELDS:
            raise ValueError(f"unknown edit cost kind {self.kind!r}")
        score, takes_fn = _COST_FIELDS[self.kind]
        if self.score != score or (self.fn is not None) != takes_fn:
            raise ValueError(f"edit cost {self.kind!r} takes score={score!r} "
                             f"and {'a' if takes_fn else 'no'} fn")

    @classmethod
    def from_kernel(cls, score: EditScore) -> "EditCost":
        return cls(kind=f"kernel-{score.kind}", score=score)

    @classmethod
    def uniform(cls) -> "EditCost":
        return cls(kind="uniform")

    @classmethod
    def custom(cls, fn: Callable) -> "EditCost":
        return cls(kind="custom", fn=fn)

    def __call__(self, a, b) -> float:
        if self.kind.startswith("kernel-"):
            k = self.score
            return k(a, a) + k(b, b) - 2.0 * k(a, b)
        if self.kind == "uniform":
            ax = np.asarray(a, dtype=np.float64)
            bx = np.asarray(b, dtype=np.float64)
            return 0.0 if np.array_equal(ax, bx) else 1.0
        return float(self.fn(a, b))


def _cell_scores(g: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """Per-cell integer scores (0, 1 or 2) of x's cells g against y's,
    broadcast over (..., d) cells."""
    if kind == "delta":
        return np.all(g == y, axis=-1) & np.any(y != 0.0, axis=-1)
    if kind == "cost-delta":
        nn_g = np.any(g != 0.0, axis=-1)
        nn_y = np.any(y != 0.0, axis=-1)
        eq = np.all(g == y, axis=-1)
        return nn_g.astype(np.int64) + nn_y - 2 * (eq & nn_y)
    if kind == "uniform":
        return ~np.all(g == y, axis=-1)
    raise ValueError(f"unknown score kind {kind!r}")


def _score_table(x: np.ndarray, y: np.ndarray, kind: str) -> np.ndarray:
    """The (n, n, n*n) cell-pair table of a built-in score (``orbits.optimum``)."""
    n, d = x.shape[0], x.shape[2]
    scores = _cell_scores(x.reshape(n * n, 1, d), y.reshape(1, n * n, d), kind)
    return scores.reshape(n, n, n * n)


def _cost_table(x: np.ndarray, y: np.ndarray, cost: EditCost) -> np.ndarray:
    """The cell-pair table of a Python cost: n**4 calls, one per cell pair.

    A cost of NaN has no place in a minimum, and an inf and a -inf cost in
    one row would total NaN, so either is rejected with its cells.
    """
    n, d = x.shape[0], x.shape[2]
    ys = [tuple(c) for c in y.reshape(n * n, d)]
    table = np.array([[cost(tuple(a), b) for b in ys] for a in x.reshape(n * n, d)])
    bad = np.argwhere(np.isnan(table) | (table == -math.inf))
    if len(bad):
        k, l = (divmod(int(c), n) for c in bad[0])
        raise ValueError(f"edit cost is {table[tuple(bad[0])]} for x cell {k} and y cell {l}")
    return table.reshape(n, n, n * n)


def _check_morphisms(morphisms: str) -> None:
    if morphisms not in MORPHISM_CLASSES:
        raise ValueError(f"unknown morphism class {morphisms!r}")


def transformation_score(
    x: GraphMatrix, y: GraphMatrix, perm: Permutation, score: EditScore
) -> float:
    """Sum of score(x[i,j], (gamma y)[i,j]) over all cells."""
    gy = apply_action(perm, y)
    if score.kind == "dot":
        return float(np.einsum("ijc,ijc->", x.cells, gy.cells))
    return float(_cell_scores(gy.cells, x.cells, "delta").sum())


def transformation_cost(
    x: GraphMatrix, y: GraphMatrix, perm: Permutation, cost: EditCost
) -> float:
    """Sum of cost(x[i,j], (gamma y)[i,j]) over all cells."""
    gy = apply_action(perm, y)
    if cost.kind == "kernel-dot":
        diff = x.cells - gy.cells
        return float(np.einsum("ijc,ijc->", diff, diff))
    if cost.kind in _COST_KINDS:
        return float(_cell_scores(gy.cells, x.cells, _COST_KINDS[cost.kind]).sum())
    # cell by cell in (k, l) order, as general_ged totals a custom cost, and
    # a cost of NaN or -inf is rejected with its cells, as general_ged rejects it
    q = perm.inverse().images  # (gamma y)[k, l] = y[q_k, q_l]
    total = 0.0
    for c, (a, b) in enumerate(zip(x.cells.reshape(-1, x.dim), gy.cells.reshape(-1, x.dim))):
        value = cost(tuple(a), tuple(b))
        if math.isnan(value) or value == -math.inf:
            k, l = divmod(c, x.n)
            raise ValueError(f"edit cost is {value} for x cell {(k, l)} and y cell {(q[k], q[l])}")
        total += value
    return total


def _prepare(
    x: AttributedGraph,
    y: AttributedGraph,
    padding: str,
    order: int | None,
    guard: int,
    morphisms: str = "all",
) -> tuple[GraphMatrix, GraphMatrix, int]:
    """The matrices of x and y at the order m a scan over the class runs
    at, and the padded order n, which the guard checks first: m = n for
    the full group, the larger graph's order for compact maps."""
    n = padded_order((x, y), padding, order)
    check_order_guard(n, guard)
    m = max(x.order, y.order) if morphisms == "compact" else n
    return to_matrix(x, m), to_matrix(y, m), n


def _extended(res: Witnessed, n: int) -> Witnessed:
    """res with its witness extended by the identity up to order n."""
    images = res.witness.images
    return Witnessed(res.value, Permutation(images + tuple(range(len(images), n))))


def edit_kernel(
    x: AttributedGraph,
    y: AttributedGraph,
    score: EditScore = DOT,
    morphisms: str = "all",
    padding: str = "bound",
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> Witnessed:
    """Maximum transformation score over the chosen bijection class.

    With ``morphisms="all"`` this is the orbit-space form
    max over gamma of <x, gamma y>; ``"compact"`` restricts to bijections
    mapping the smaller graph's real nodes onto real nodes.  The witness is
    the lexicographically smallest maximizer.
    """
    _check_morphisms(morphisms)
    xm, ym, n = _prepare(x, y, padding, order, guard, morphisms)
    if score.kind == "dot":
        return _extended(max_inner_over_group(xm.cells, ym.cells), n)
    return _extended(optimum(_score_table(xm.cells, ym.cells, score.kind), maximize=True), n)


def general_ged(
    x: AttributedGraph,
    y: AttributedGraph,
    cost: EditCost,
    morphisms: str = "all",
    padding: str = "bound",
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> Witnessed:
    """Minimum transformation cost over the chosen bijection class.

    The kernel-dot cost is the squared quotient metric, ``min_sq_over_group``.
    Other costs are totalled through their cell-pair table (``optimum``).
    A custom cost is called once per pair of cells (n**4 calls); a total
    adds its cells in (k, l) order, as ``transformation_cost`` does, and
    the prefix tree's totals only rank the rows.  Its table is built at the
    padded order n; a compact scan ranks the order-m block, and since
    cost(0, 0) need not be 0, the extended witness is totalled at order n.
    When that total is inf, every row's is, and the identity wins the tie.
    """
    _check_morphisms(morphisms)
    xm, ym, n = _prepare(x, y, padding, order, guard, morphisms)
    if cost.kind == "kernel-dot":
        return _extended(min_sq_over_group(xm.cells, ym.cells), n)
    if cost.kind != "custom":
        return _extended(optimum(_score_table(xm.cells, ym.cells, _COST_KINDS[cost.kind])), n)
    m = xm.n
    table = _cost_table(to_matrix(x, n).cells, to_matrix(y, n).cells, cost)
    block = table.reshape(n, n, n, n)[:m, :m, :m, :m].reshape(m, m, m * m)
    images = _extended(optimum(block), n).witness.images
    [total] = _cell_order(table, np.array([images], dtype=np.intp).reshape(1, n)).tolist()
    if total == math.inf:  # every row totals inf (cost(0, 0) may be): the first wins
        images = tuple(range(n))
    return Witnessed(total, Permutation(images))


def induced_metric(
    x: AttributedGraph,
    y: AttributedGraph,
    score: EditScore = DOT,
    padding: str = "bound",
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
    morphisms: str = "all",
) -> float:
    """The metric induced by the edit kernel, computed as the orbit minimum.

    For the dot score over the full group this is min over gamma of
    ||x - gamma y||, which is a metric unconditionally; zero exactly when the
    padded graphs are isomorphic.  ``morphisms="compact"`` minimizes over
    compact bijections only, as ``general_ged`` does.
    """
    res = general_ged(x, y, EditCost.from_kernel(score), morphisms, padding, order, guard)
    return math.sqrt(max(res.value, 0.0))


def induced_metric_via_kernel(
    x: AttributedGraph,
    y: AttributedGraph,
    score: EditScore = DOT,
    morphisms: str = "all",
    padding: str = "bound",
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> float:
    """The kernel-trick form sqrt(k(X,X) + k(Y,Y) - 2 k(X,Y)).

    Agrees with induced_metric when the kernel is evaluated over the full
    group; with compact morphisms and sign-indefinite attributes it can
    differ, which the suites report rather than hide.
    """
    kxx = edit_kernel(x, x, score, morphisms, padding, order, guard).value
    kyy = edit_kernel(y, y, score, morphisms, padding, order, guard).value
    kxy = edit_kernel(x, y, score, morphisms, padding, order, guard).value
    return math.sqrt(max(kxx + kyy - 2.0 * kxy, 0.0))


class McsKernel(NamedTuple):
    value: int
    nodes: int
    edges: int


def mcs_kernel(
    x: AttributedGraph, y: AttributedGraph, guard: int = DEFAULT_ORDER_GUARD
) -> McsKernel:
    """Delta-score edit kernel and the common-subgraph size it encodes.

    ``nodes`` counts matched equal diagonal cells, ``edges`` matched equal
    nonzero off-diagonal cells (each undirected edge counted once).  The raw
    kernel value counts ordered pairs: nodes + 2*edges for undirected input.
    """
    # at the larger graph's order every bijection is compact: the full group
    xm, ym, _ = _prepare(x, y, "bound", None, guard)
    res = optimum(_score_table(xm.cells, ym.cells, "delta"), maximize=True)
    g = gather(xm.cells, np.asarray([res.witness.images], dtype=np.intp))[0]
    matched = _cell_scores(g, ym.cells, "delta")
    nodes = int(np.trace(matched))
    ordered = int(matched.sum()) - nodes
    undirected = not x.directed and not y.directed
    return McsKernel(int(round(res.value)), nodes, ordered // 2 if undirected else ordered)


class GreedyBound(NamedTuple):
    lower_kernel: float
    upper_metric: float
    witness: Permutation


def greedy_bound(
    x: AttributedGraph, y: AttributedGraph, score: EditScore = DOT
) -> GreedyBound:
    """Cheap feasible bijection by greedy diagonal matching.

    Repeatedly pairs the free node pair with the largest node-attribute
    score, ties toward smallest indices; leftover nodes and padding pair off
    in index order.  The resulting score is a lower bound on the edit kernel
    and the kernel-trick cost gives an upper bound on the induced metric.
    No order guard: the construction is polynomial.
    """
    n = padded_order((x, y))
    xm, ym = to_matrix(x, n), to_matrix(y, n)
    free_x = list(range(x.order))
    free_y = list(range(y.order))
    phi: dict[int, int] = {}
    for _ in range(min(len(free_x), len(free_y))):
        best = None
        for i in free_x:
            for j in free_y:
                s = score(xm.cells[i, i], ym.cells[j, j])
                if best is None or s > best[0]:
                    best = (s, i, j)
        _, i, j = best
        phi[i] = j
        free_x.remove(i)
        free_y.remove(j)
    rest_x = free_x + [i for i in range(x.order, n) if i not in phi]
    rest_y = free_y + [j for j in range(y.order, n) if j not in phi.values()]
    for i, j in zip(rest_x, rest_y):
        phi[i] = j
    images = [0] * n
    for i, j in phi.items():
        images[j] = i
    perm = Permutation(tuple(images))
    lower = transformation_score(xm, ym, perm, score)
    upper_sq = transformation_cost(xm, ym, perm, EditCost.from_kernel(score))
    return GreedyBound(lower, math.sqrt(max(upper_sq, 0.0)), perm)
