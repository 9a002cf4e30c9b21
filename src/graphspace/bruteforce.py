"""Exhaustive reference computations used to verify the fast paths.

Everything here is deliberately independent of the optimized kernel and
alignment code: common subgraphs are enumerated outright, the domain
boundary distance is measured through bisector feet, mean candidates are
produced by trying every alignment combination, and the subpermutation metric
walks every partial permutation.  Desk scale only.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .graphs import AttributedGraph, GraphMatrix, pad_to_order, to_matrix
from .orbits import (
    DEFAULT_ORDER_GUARD,
    check_order_guard,
    gather,
    permutation_array,
)

__all__ = [
    "canonical_form",
    "partial_subgraph_sizes",
    "common_subgraph_maximum",
    "dirichlet_boundary_distance",
    "exhaustive_mean_optimum",
    "subperm_metric",
]


def canonical_form(g: AttributedGraph) -> bytes:
    """Isomorphism-invariant key: the lexicographically smallest orbit element."""
    m = to_matrix(g)
    stack = gather(m.cells, permutation_array(g.order))
    best = min(row.tobytes() for row in stack)
    return f"{g.order}:{g.dim}:{int(g.directed)}:".encode() + best


def partial_subgraph_sizes(g: AttributedGraph) -> dict[bytes, int]:
    """All partial subgraphs of g, keyed by canonical form, valued by
    node count plus edge count (undirected edges counted once)."""
    sizes: dict[bytes, int] = {}
    for r in range(g.order + 1):
        for nodes in itertools.combinations(range(g.order), r):
            index = {old: new for new, old in enumerate(nodes)}
            within = [
                (i, j, a) for i, j, a in g.edges if i in index and j in index
            ]
            for k in range(len(within) + 1):
                for chosen in itertools.combinations(within, k):
                    sub = AttributedGraph(
                        g.directed,
                        g.dim,
                        [g.node_attrs[i] for i in nodes],
                        [((index[i], index[j]), a) for i, j, a in chosen],
                    )
                    sizes[canonical_form(sub)] = r + k
    return sizes


def common_subgraph_maximum(x: AttributedGraph, y: AttributedGraph) -> int:
    """max |V| + |E| over all common partial subgraphs, by brute enumeration."""
    if x.directed != y.directed:
        raise ValueError("common subgraphs require a shared directedness")
    sx = partial_subgraph_sizes(x)
    sy = partial_subgraph_sizes(y)
    return max(sx[form] for form in set(sx) & set(sy))


def dirichlet_boundary_distance(
    z: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD
) -> float:
    """Distance from an ordinary center to its Dirichlet domain boundary.

    For each nontrivial permuted copy of the center, the bisector foot is
    the midpoint of the two; feet that pass the domain membership test are
    boundary points and the smallest center-to-foot distance is returned.
    """
    check_order_guard(z.n, guard)
    stack = gather(z.cells, permutation_array(z.n))
    center = z.cells
    candidates = []
    for row in stack[1:]:
        foot = (center + row) / 2.0
        inner = np.einsum("mijc,ijc->m", stack, foot)
        if inner[0] >= inner.max() - 1e-12:
            candidates.append(float(np.linalg.norm(center - row)) / 2.0)
    if not candidates:
        raise ValueError("no bisector foot lies in the domain; center singular?")
    return min(candidates)


def exhaustive_mean_optimum(
    graphs,
    order: int | None = None,
    guard: int = DEFAULT_ORDER_GUARD,
) -> tuple[float, GraphMatrix]:
    """Globally optimal mean over every alignment combination.

    Each combination assigns one orbit representation to every input graph;
    the arithmetic average of those representations is a candidate mean and
    its true summed squared distance is evaluated: to each input graph, the
    least squared distance to a row of its orbit stack.  The minimum over
    all combinations is the global optimum of the sample-mean objective at
    this padded order.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    n = max(g.order for g in graphs) if order is None else order
    check_order_guard(n, guard)
    mats = [to_matrix(pad_to_order(g, n)).cells for g in graphs]
    perms = permutation_array(n)
    stacks = [gather(m, perms) for m in mats]
    best = math.inf
    best_cells = None
    for combo in itertools.product(*(range(len(s)) for s in stacks)):
        cand = np.mean([stacks[i][c] for i, c in enumerate(combo)], axis=0)
        value = 0.0
        for s in stacks:
            diff = s - cand
            value += float(np.einsum("mijc,mijc->m", diff, diff).min())
        if value < best:
            best = value
            best_cells = cand
    return best, GraphMatrix(best_cells)


def subperm_metric(
    x: AttributedGraph, y: AttributedGraph, guard: int = DEFAULT_ORDER_GUARD
) -> float:
    """Frobenius distance minimized over subpermutation matrices (weights only).

    Minimizes ||A - P B P^T|| over every rank-min(n,m) subpermutation matrix
    P, 7! at a time, with A the larger adjacency matrix: the induced metric
    under bound padding, for weights of any sign.  It cross-checks the
    pairwise-sum padding of nonnegative weights, where (a - b)^2 <= a^2 + b^2.
    """
    if x.dim != 1 or y.dim != 1:
        raise ValueError("subpermutation metric is defined for weighted graphs (d = 1)")
    big, small = (x, y) if x.order >= y.order else (y, x)
    a = to_matrix(big).cells[:, :, 0]
    b = to_matrix(small).cells[:, :, 0]
    check_order_guard(big.order, guard)
    total_sq = float(np.einsum("ij,ij->", a, a))
    best = math.inf
    perms = itertools.permutations(range(big.order), small.order)
    while chunk := list(itertools.islice(perms, math.factorial(7))):
        q = np.array(chunk, dtype=np.intp).reshape(len(chunk), small.order)
        sub = a[q[:, :, None], q[:, None, :]]
        diff = sub - b
        cost = (
            total_sq
            - np.einsum("mij,mij->m", sub, sub)
            + np.einsum("mij,mij->m", diff, diff)
        )
        best = min(best, float(cost.min()))
    return math.sqrt(max(best, 0.0))
