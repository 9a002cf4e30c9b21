"""Independent exhaustive reference for pair answers.

Built from the graphs' public attributes with numpy and itertools only: it
shares no enumeration, gather or padding code with graphspace, so a fault in
the library's scan cannot hide behind the same fault here.  Desk scale only:
n = 9 enumerates 362880 permutations in about a second.
"""

from __future__ import annotations

import itertools

import numpy as np

_CHUNK = 20160


def dense(graph, order: int) -> np.ndarray:
    """(order, order, d) cells: node attributes on the diagonal, edges off it."""
    cells = np.zeros((order, order, graph.dim))
    for i, attr in enumerate(graph.node_attrs):
        cells[i, i] = attr
    for i, j, attr in graph.edges:
        cells[i, j] = attr
        if not graph.directed:
            cells[j, i] = attr
    return cells


def _permutation_chunks(n: int):
    it = itertools.permutations(range(n))
    while True:
        block = np.array(list(itertools.islice(it, _CHUNK)), dtype=np.intp)
        if block.size == 0:
            return
        yield block.reshape(len(block), n)


def _compact(block: np.ndarray, rx: int, ry: int) -> np.ndarray:
    # Cell (k, l) of a permuted x is x[p[k], p[l]], so y-node k receives
    # x-node p[k].  Compact maps keep the smaller graph's real nodes on real
    # nodes of the larger one.
    if rx <= ry:
        return np.all(block[:, ry:] >= rx, axis=1)
    return np.all(block[:, :ry] < rx, axis=1)


def exhaustive(x, y, order: int) -> dict:
    """Optima over every permutation of the order-padded pair (x, y).

    Keys: ``kernel_all`` (max dot score), ``sq_metric`` (min squared
    distance), ``kernel_compact`` (max dot score over compact maps) and
    ``mcs`` (max delta score over compact maps).
    """
    xc, yc = dense(x, order), dense(y, order)
    n, d = order, xc.shape[2]
    xflat = xc.reshape(n * n, d)
    yflat = yc.reshape(n * n, d)
    y_real = np.any(yflat != 0.0, axis=1)
    best = {"kernel_all": -np.inf, "sq_metric": np.inf, "kernel_compact": -np.inf, "mcs": -np.inf}
    for block in _permutation_chunks(n):
        flat_index = block[:, :, None] * n + block[:, None, :]
        g = np.take(xflat, flat_index.reshape(len(block), n * n), axis=0)
        dots = np.tensordot(g, yflat, axes=([1, 2], [0, 1]))
        sq = ((g - yflat) ** 2).sum(axis=(1, 2))
        delta = (np.all(g == yflat, axis=2) & y_real).sum(axis=1)
        mask = _compact(block, x.order, y.order)
        best["kernel_all"] = max(best["kernel_all"], float(dots.max()))
        best["sq_metric"] = min(best["sq_metric"], float(sq.min()))
        if mask.any():
            best["kernel_compact"] = max(best["kernel_compact"], float(dots[mask].max()))
            best["mcs"] = max(best["mcs"], float(delta[mask].max()))
    return best
