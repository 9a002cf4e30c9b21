"""Compare the public results of two graphspace source trees bit for bit.

    python tools/compare_trees.py OLD_SRC NEW_SRC

Each tree is imported in its own subprocess, which evaluates the same seeded
cases and prints one JSON line per result: floats as ``float.hex``,
permutations as image lists, matrices as shapes plus hex cells, and raised
exceptions by type.  The cases cover orders 1-9 and attribute dimensions 1-3
over six input families (Gaussian, small integers with ties, unit-labelled
cycles and stars, graphs padded up to a fixed order, relabelled copies, and
integers at the edge of the engine's exactness certificate, plus 1e160- and
0.1-scaled copies), integers on both sides of the float32 certificate
N (max|x| + max|y|)^2 < 2^24, Gaussian near-ties scaled so that
(||x|| + ||y||)^2 lies just inside and just outside 2^-100 and 2^100, and
near-ties with cells near 1e-160 and 1e-162, whose squares underflow.
Order-3 pairs with d = 116508 and 116509 put N + 3 = 9 d + 3 just under
and just over 2^20, where inner products switch from float32 to float64
totals, as Gaussian near-ties and as small integers on both sides of
2^24.  Plain Gaussian pairs just above N = 8192 cells (order 3 with d = 911
and 1000, order 9 with d = 102; four seeds each), whose shortlists often
hold one row, run the metric and the dot kernel, and a custom cost
infinite on every pair runs at orders 8 and 9, where every row totals inf.
At every order 1-9, so at every layout of the prefix tree and through both
of its reads, one x is scanned against many partners in one walk (25 at
orders up to 7, in two passes) and alone, and custom costs run that are
infinite for some x cells and on some cell pairs.
Padded pairs also come with the smaller graph first (orders 8 and 9), scaled by 1e160, and with a negative y-node
that compact bijections may not route through padding, at unit scale and
scaled so that 4 R^2 overflows; at order 9 that pair leaves a whole chunk
without a compact row.  They call the kernels, metrics, isotropy checks,
alignments and means of the package, and ``general_ged`` under both
bijection classes with every built-in cost and with custom costs at orders
up to 6, and at orders 7-9 for d = 1 and for Gaussian pairs: 0.5 plus
|a - b| for differing cells, the same with infinite entries, the
non-dyadic 0.1 |a - b|, one with negative values, and for Gaussian pairs
|a - b| scaled so that N max|entry| overflows and some cell-order totals
reach inf, and a signed cost as large.  The isotropy checks, Dirichlet
domains and custom-cost distances (0.1 |a - b| and 0.5 plus |a - b|, to
itself and to the other shape; ties that only the last bits of a total
separate) of order-9 unit stars and cycles and of ordinary copies of them
are compared too; ``gram`` CSVs of both kinds, and the stdout and exit code
of ``check`` for every suite, are compared byte for byte.
Compact calls run on both sides of m = max(rx, ry) = n, where a compact
class at padded order n is the full group at order m: rx < ry, rx > ry and
rx = ry, m = 0 and m = 1, padded by an order from m to m + 3 and by the
pairwise sum, with Gaussian and small-integer attributes, for both
kernels, every built-in cost, the compact metric, and custom costs with
cost(0, 0) = 0 and with 0.5 plus |a - b| on every pair; ``dist``,
``kernel`` and ``gram`` run with ``--class compact`` and ``--order N``
(and the pairwise sum) through the CLI, N over the guard among them.
Padding cases pad above the inputs' order (midpoints, alignments, means,
greedy bounds, ``gram --order N+1`` and ``gram --pad pairwise-sum``, and the
stdout and exit code of ``align`` and ``mean`` on one seeded set), and pass an
order below a graph's or above the guard, where only the error's type is
compared.  Fréchet means of larger batches mix members of every scan path
(integers on both sides of the float32 certificate, Gaussians, norms near
2^50 and 2^-51, cells near 1e-160 and 1e-162 beside unit-scale members,
1e160-scaled and padded members, unit stars): 8 members at order 7, 25 at
orders 3-5 and 3 at orders 8 and 9.  The graph layer is
compared on its own: JSON round trips of directed and undirected graphs whose
edges are listed forward, backward, mixed or in both orientations; their
matrices, edge listings, ``edge_attr`` and ``has_edge`` lookups in both
orientations and out of range, null nodes, stripping, padding, equality and
hashes; ``from_matrix`` of cells holding +0.0 and -0.0; the order, dimension,
node attributes (-0.0 components among them) and ``degree`` at every index
from -1 to the order of those graphs and of their padded, stripped and
``from_matrix``-built copies, with the outcome of ``is_null_node`` at -1 and
at the order; and the type and message of the errors for conflicting edges,
asymmetric undirected matrices and non-finite cells.  Inputs are built with numpy here, not with the trees'
own samplers, so both trees see the same graphs.  The warnings a case
raises are part of its result.

Exit status 0 when every result is identical, 1 otherwise (the differing
cases are listed).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

FAMILIES = ("gauss", "int", "unit", "padded", "relabelled", "edge")
SUITES = ("metric", "cauchy-schwarz", "homogeneity", "wgrt", "cone", "mcs", "mean", "ordinary")


def _canon(value):
    """A JSON-able form of a result in which equal means bit-identical."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if hasattr(value, "images"):  # Permutation
        return [int(v) for v in value.images]
    if hasattr(value, "cells"):  # GraphMatrix
        return _canon(np.asarray(value.cells))
    if isinstance(value, np.ndarray):
        return [list(value.shape), [float(v).hex() for v in value.reshape(-1)]]
    if hasattr(value, "node_attrs"):  # AttributedGraph
        import graphspace

        return graphspace.serialize_graph(value)
    if isinstance(value, (tuple, list)):
        return [_canon(v) for v in value]
    if hasattr(value, "__dict__"):
        return {k: _canon(v) for k, v in sorted(vars(value).items())}
    return repr(value)


def _cells(rng, n, d, family, step):
    """An (n, n, d) directed attribute matrix of one family."""
    if family == "int":
        return rng.integers(-1, 3, size=(n, n, d)).astype(float)
    if family == "unit":
        cells = np.zeros((n, n, d))
        for i in range(n):
            j = (i + 1) % n if step == 0 else 0  # a cycle, or a star at node 0
            if i != j:
                cells[i, j] = cells[j, i] = 1.0
        return cells
    if family == "edge":  # integers just under (step 0) or over the certificate
        m = math.isqrt((2**53 - 1) // (4 * n * n * d)) + step
        cells = rng.integers(-m, m + 1, size=(n, n, d)).astype(float)
        cells.flat[rng.integers(cells.size)] = m
        return cells
    return rng.normal(size=(n, n, d))


def _pairs(n, d):
    """(label, x cells, y cells, order) pairs of every family at order n."""
    rng = np.random.default_rng(1000 * n + 10 * d)
    out = []
    for family in FAMILIES:
        if family == "unit" and n < 3:
            continue
        x = _cells(rng, n, d, family, 0)
        y = _cells(rng, n, d, family, 1)
        if family == "padded":
            rx, ry = max(1, n - 2), max(1, n - 3)
            x, y = x[:rx, :rx], y[:ry, :ry]
        elif family == "relabelled":
            p = rng.permutation(n)
            y = x[np.ix_(p, p)].copy()
        out.append((family, x, y, n))
    if n >= 2:
        x = rng.integers(0, 3, size=(n, n, d)) * 1e160  # products overflow
        out.append(("huge", x, x[::-1, ::-1].copy(), n))
        star = 0.1 * _cells(rng, n, d, "unit", 1) if n >= 3 else 0.1 * np.ones((n, n, d))
        out.append(("tenth-star", star, star.copy(), n))
    # integers with max|x| = max|y| = m just under (step 0) and over the
    # float32 certificate N (2m)^2 < 2^24, as a nudged relabelled copy
    for step, side in enumerate(("under", "over")):
        m = math.isqrt((2**24 - 1) // (4 * n * n * d)) + step
        x = rng.integers(-m, m + 1, size=(n, n, d)).astype(float)
        x.flat[rng.integers(x.size)] = m
        p = rng.permutation(n)
        y = x[np.ix_(p, p)].copy()
        y.flat[rng.integers(y.size)] = -m
        out.append((f"int24-{side}", x, y, n))
    # Gaussian near-ties scaled to R^2 = (||x|| + ||y||)^2 just inside and
    # just outside 2^-100 and 2^100
    for side, r2 in (("low-in", 2.0**-100 * 1.001), ("low-out", 2.0**-100 / 1.001),
                     ("high-in", 2.0**100 / 1.001), ("high-out", 2.0**100 * 1.001)):
        x = rng.normal(size=(n, n, d))
        p = rng.permutation(n)
        y = x[np.ix_(p, p)] + 1e-13 * rng.normal(size=x.shape)
        scale = math.sqrt(r2) / (np.linalg.norm(x) + np.linalg.norm(y))
        out.append((f"window-{side}", x * scale, y * scale, n))
    # the same near-ties with cells near 1e-160, where the reference forms'
    # underflow term still leaves a ranking, and near 1e-162, where squares
    # underflow and every row is re-scored
    for scale in (1e-160, 1e-162):
        x = rng.normal(size=(n, n, d))
        p = rng.permutation(n)
        y = x[np.ix_(p, p)] + 1e-13 * rng.normal(size=x.shape)
        out.append((f"tiny-{scale:.0e}", x * scale, y * scale, n))
    if n >= 8:  # padded with the smaller graph first (rx < ry)
        x, y = rng.normal(size=(2, n, n, d))
        out.append(("padded-up", x[: n - 3, : n - 3], y[: n - 2, : n - 2], n))
    if n >= 3:  # 4 R^2 overflows: compact scans re-score the rows the class admits
        x = rng.integers(0, 3, size=(n - 1, n - 1, d)) * 1e160
        out.append(("huge-padded", x, x[::-1, ::-1][1:, 1:].copy(), n))
    if n >= 3 and d == 1:
        # x nonnegative and y-node 0 negative, so the best bijections route
        # y-node 0 through padding and compact optima differ from the
        # group's; at n = 9, rx = 6 > ry = 4 leaves the chunk of prefixes
        # from 6 on without a compact row
        rx, ry = (6, 4) if n == 9 else (n - 1, n - 2)
        x = np.abs(rng.normal(size=(rx, rx, d)))
        y = np.abs(rng.normal(size=(ry, ry, d)))
        y[0, :] = y[:, 0] = -3.0
        out.append(("negative-padded", x, y, n))
        # scaled to R = ||x|| + ||y|| = 1e154: 4 R^2 overflows, R^2 does not
        scale = 1e154 / (np.linalg.norm(x) + np.linalg.norm(y))
        out.append(("negative-overflow", x * scale, y * scale, n))
    return out


def _custom_cost(a, b):
    return float(sum(abs(u - v) for u, v in zip(a, b))) + (0.5 if a != b else 0.0)


def _inf_cost(a, b):
    """Infinite for x cells above 1.5: where x holds one, every row totals
    inf and the tie goes to the first row."""
    return math.inf if a[0] > 1.5 else _custom_cost(a, b)


def _half_cost(a, b):
    """0.5 plus |a - b| on every pair: cost(0, 0) = 0.5, so padding adds to
    every total."""
    return 0.5 + float(sum(abs(u - v) for u, v in zip(a, b)))


def _tenth_cost(a, b):
    """No multiple of a power of two: sums in another order than cell order
    differ in their last bits, and unit graphs tie in every bit but those."""
    return 0.1 * float(sum(abs(u - v) for u, v in zip(a, b)))


def _signed_cost(a, b):
    """Negative and positive finite values."""
    return float(sum(0.1 * u * v - 0.3 * abs(u - v) for u, v in zip(a, b)))


def _huge_costs(n):
    """|a - b| scaled so that the n*n cells of a Gaussian pair total about
    the largest float: N max|entry| overflows, and some cell-order totals
    reach inf while others stay finite; and a signed cost as large, whose
    tree totals can overflow where cell order stays finite."""
    scale = 1.7e308 / (n * n * 1.13)
    return {"custom-huge": lambda a, b: scale * abs(a[0] - b[0]),
            "custom-huge-signed": lambda a, b: 4 * scale * math.tanh(a[0] - b[0])}


def _cases(gs):
    """Yield (label, thunk) for every compared result."""
    for n in range(1, 10):
        for d in (1, 2, 3):
            for family, xc, yc, order in _pairs(n, d):
                x = gs.from_matrix(gs.GraphMatrix(xc), directed=True)
                y = gs.from_matrix(gs.GraphMatrix(yc), directed=True)
                xm = gs.to_matrix(gs.pad_to_order(x, order))
                ym = gs.to_matrix(gs.pad_to_order(y, order))
                tag = f"n={n} d={d} {family}"
                yield f"{tag} quotient_distance", lambda: gs.quotient_distance(xm, ym)
                for score in (gs.DOT, gs.DELTA):
                    for cls in ("all", "compact"):
                        yield (f"{tag} edit_kernel {score.kind} {cls}",
                               lambda s=score, c=cls: gs.edit_kernel(x, y, s, c, order=order))
                costs = {"uniform": gs.EditCost.uniform(),
                         "kernel-delta": gs.EditCost.from_kernel(gs.DELTA),
                         "kernel-dot": gs.EditCost.from_kernel(gs.DOT)}
                if n <= 6 or d == 1 or family == "gauss":  # custom costs at orders 7-9
                    customs = {"custom": _custom_cost, "custom-inf": _inf_cost,
                               "custom-tenth": _tenth_cost, "custom-signed": _signed_cost}
                    if family == "gauss":
                        customs |= _huge_costs(n)
                    costs |= {k: gs.EditCost.custom(f) for k, f in customs.items()}
                for kind, cost in costs.items():
                    for cls in ("all", "compact"):
                        yield (f"{tag} general_ged {kind} {cls}",
                               lambda c=cost, m=cls: gs.general_ged(x, y, c, m, order=order))
                yield (f"{tag} induced_metric",
                       lambda: gs.induced_metric(x, y, order=order))
                if n <= 8 or family in ("unit", "relabelled"):
                    yield f"{tag} mcs_kernel", lambda: gs.mcs_kernel(x, y)
                    yield f"{tag} isotropy_group", lambda: gs.isotropy_group(xm)
                    yield f"{tag} is_ordinary", lambda: gs.is_ordinary(ym)
                if n <= 7:
                    yield from _alignment_cases(gs, tag, x, y, ym, order)
                if n <= 5 and family in ("gauss", "int", "padded"):
                    yield (f"{tag} sample_mean",
                           lambda: gs.sample_mean([x, y, gs.scalar_mult(0.5, x)], max_iter=5))
                yield from _padding_cases(gs, tag, x, y, order)
    yield from _symmetric_cases(gs)
    yield from _compact_cases(gs)
    yield from _wide_cases(gs)
    yield from _lone_row_cases(gs)
    yield from _tree_cases(gs)
    yield from _mean_cases(gs)
    yield from _graph_cases(gs)


def _symmetric_cases(gs):
    """Scans without the identity at order 9: unit stars and cycles, whose
    isotropy is large, and copies with distinct node labels, which are
    ordinary, as integers and scaled by 0.1."""
    n = 9
    for step, shape in enumerate(("cycle", "star")):
        unit = _cells(None, n, 1, "unit", step)
        labelled = unit.copy()
        labelled[np.arange(n), np.arange(n), 0] = np.arange(1, n + 1)
        for name, cells in (("unit", unit), ("labelled", labelled),
                            ("labelled-tenth", 0.1 * labelled)):
            g = gs.from_matrix(gs.GraphMatrix(cells), directed=True)
            tag = f"n={n} {name} {shape}"
            yield f"{tag} is_ordinary", lambda m=gs.GraphMatrix(cells): gs.is_ordinary(m)
            yield f"{tag} rho_star", lambda g=g: gs.Alignment(g).rho_star
            yield (f"{tag} domain_margin",
                   lambda g=g: gs.Alignment(g).domain_margin(gs.GraphMatrix(unit)))
            other = gs.from_matrix(gs.GraphMatrix(_cells(None, n, 1, "unit", 1 - step)), True)
            for kind, fn in (("custom-tenth", _tenth_cost), ("custom", _custom_cost)):
                for h in (g, other):  # ties within the orbit, and across shapes
                    yield (f"{tag} general_ged {kind} {'self' if h is g else 'other'}",
                           lambda g=g, h=h, c=gs.EditCost.custom(fn): gs.general_ged(g, h, c))


# (rx, ry) of compact pairs: rx < ry, rx > ry and rx = ry, and m = max(rx,
# ry) = 0 and 1
_COMPACT_ORDERS = ((3, 5), (5, 3), (4, 4), (2, 6), (7, 5), (0, 0), (1, 0), (0, 1), (1, 1))


def _compact_cases(gs):
    """Compact calls at padded orders n = m and n > m, padded by an order
    and by the pairwise sum, with Gaussian and small-integer attributes."""
    rng = np.random.default_rng(23)
    for rx, ry in _COMPACT_ORDERS:
        m = max(rx, ry)
        for family in ("gauss", "int"):
            x, y = (gs.from_matrix(gs.GraphMatrix(_cells(rng, r, 2, family, 0)), True)
                    for r in (rx, ry))
            paddings = [("bound", order) for order in sorted({m, m + 1, min(m + 3, 9)})]
            if rx + ry <= 9:
                paddings.append(("pairwise-sum", None))
            for pad, order in paddings:
                tag = f"compact rx={rx} ry={ry} {family} {pad} order={order}"
                for score in (gs.DOT, gs.DELTA):
                    yield (f"{tag} edit_kernel {score.kind}",
                           lambda s=score: gs.edit_kernel(x, y, s, "compact", pad, order))
                costs = {"uniform": gs.EditCost.uniform(),
                         "kernel-delta": gs.EditCost.from_kernel(gs.DELTA),
                         "kernel-dot": gs.EditCost.from_kernel(gs.DOT),
                         "custom": gs.EditCost.custom(_custom_cost),
                         "custom-half": gs.EditCost.custom(_half_cost)}
                for kind, cost in costs.items():
                    yield (f"{tag} general_ged {kind}",
                           lambda c=cost: gs.general_ged(x, y, c, "compact", pad, order))
                yield (f"{tag} induced_metric",
                       lambda: gs.induced_metric(x, y, gs.DOT, pad, order, morphisms="compact"))


def _wide_cases(gs):
    """Order-3 pairs with N + 3 = 9 d + 3 just under 2^20 (d = 116508, float32
    totals) and just over it (d = 116509, float64 totals): Gaussian
    near-ties, and small integers whose N (max|x| + max|y|)^2 is just under
    and just over 2^24 on the same two sides."""
    rng = np.random.default_rng(116508)
    for d in (116508, 116509):
        x = rng.normal(size=(3, 3, d))
        p = rng.permutation(3)
        gauss = (x, x[np.ix_(p, p)] + 1e-13 * rng.normal(size=x.shape))
        ints = rng.integers(-1, 3, size=(2, 3, 3, d)).astype(float)
        ints[:, 0, 0, 0] = 2.0
        for family, (xc, yc) in (("gauss", gauss), ("int", ints)):
            tag = f"n=3 d={d} wide-{family}"
            yield (f"{tag} quotient_distance",
                   lambda xc=xc, yc=yc: gs.quotient_distance(gs.GraphMatrix(xc),
                                                             gs.GraphMatrix(yc)))
            for skip in (False, True):
                yield (f"{tag} max_inner_over_group skip_identity={skip}",
                       lambda xc=xc, yc=yc, s=skip: gs.orbits.max_inner_over_group(
                           xc, yc, skip_identity=s))


def _lone_row_cases(gs):
    """Plain Gaussian pairs just above N = 8192 cells, where np.einsum adds a
    lone row's cells in another order than a batch's and shortlists often
    hold one row, and a custom cost infinite on every pair at orders 8 and
    9, where no row is shortlisted and the walk's first row wins."""
    for (n, d), seed in itertools.product(((3, 911), (3, 1000), (9, 102)), range(4)):
        xc, yc = np.random.default_rng(seed).standard_normal((2, n, n, d))
        tag = f"n={n} d={d} seed={seed} lone-gauss"
        yield (f"{tag} quotient_distance",
               lambda xc=xc, yc=yc: gs.quotient_distance(gs.GraphMatrix(xc), gs.GraphMatrix(yc)))
        yield (f"{tag} max_inner_over_group",
               lambda xc=xc, yc=yc: gs.orbits.max_inner_over_group(xc, yc))
    infinite = gs.EditCost.custom(lambda a, b: math.inf)
    rng = np.random.default_rng(8192)
    for n in (8, 9):
        x, y = (gs.from_matrix(gs.GraphMatrix(rng.normal(size=(n, n, 1))), True) for _ in "xy")
        yield (f"n={n} general_ged custom-inf-everywhere",
               lambda x=x, y=y: gs.general_ged(x, y, infinite))


def _pair_inf_cost(a, b):
    """Infinite where an x cell above 1.2 meets a y cell below -1.2, so that
    some rows total inf and others do not; |a - b| elsewhere."""
    return math.inf if a[0] > 1.2 and b[0] < -1.2 else abs(a[0] - b[0])


def _tree_cases(gs):
    """Every order 1-9, so every layout of the prefix tree (m = 1-7) and both
    of its reads: one x against many partners in one walk (25 at n <= 7, two
    passes; 3 at n = 8, one pass of 24 columns; 2 at n = 9, a pass each),
    with Gaussian, relabelled, small-integer, 1e160-scaled and padded
    partners, integer x against integer partners (exact totals in every
    column), single scans of the metric, the dot kernel and isotropy, and
    custom costs infinite for some x cells (every row totals inf) and on
    some cell pairs (some rows do), whose closing tables add infinite
    entries that no row reads."""
    for n in range(1, 10):
        rng = np.random.default_rng(7000 + n)
        count = 25 if n <= 7 else 3 if n == 8 else 2
        x = rng.normal(size=(n, n, 2))
        ys = rng.normal(size=(count, n, n, 2))
        p = rng.permutation(n)
        ys[0] = x[np.ix_(p, p)]
        if count > 2:
            ys[1] = rng.integers(-1, 3, size=(n, n, 2))
            ys[2] *= 1e160
        ys[-1, n // 2 :, :] = ys[-1, :, n // 2 :] = 0.0
        ints = rng.integers(-1, 3, size=(count + 1, n, n, 2)).astype(float)
        tag = f"n={n} tree"
        yield f"{tag} min_sq_many", lambda x=x, ys=ys: gs.orbits._min_sq_many(x, ys)
        yield (f"{tag} min_sq_many int",
               lambda ints=ints: gs.orbits._min_sq_many(ints[0], ints[1:]))
        yield (f"{tag} max_inner_over_group",
               lambda x=x, y=ys[-1]: gs.orbits.max_inner_over_group(x, y))
        yield f"{tag} isotropy_group", lambda m=gs.GraphMatrix(ints[0]): gs.isotropy_group(m)
        xg, yg = (gs.from_matrix(gs.GraphMatrix(c[:, :, :1]), True) for c in (x, ys[-1]))
        for kind, fn in (("custom-inf", _inf_cost), ("custom-pair-inf", _pair_inf_cost)):
            yield (f"{tag} general_ged {kind}",
                   lambda c=gs.EditCost.custom(fn), xg=xg, yg=yg: gs.general_ged(xg, yg, c))


def _alignment_cases(gs, tag, x, y, ym, order):
    def aligner():
        return gs.Alignment(x, order=order)

    yield f"{tag} rho_star", lambda: aligner().rho_star
    yield f"{tag} domain_margin", lambda: aligner().domain_margin(ym)
    yield f"{tag} align", lambda: aligner().align(y)
    yield f"{tag} midpoint", lambda: gs.midpoint(x, y)


def _padding_cases(gs, tag, x, y, order):
    """Padding above the inputs' order, and the errors of an order below a
    graph's or above the guard (9), which every path raises before it scans."""
    for score in (gs.DOT, gs.DELTA):
        yield f"{tag} greedy_bound {score.kind}", lambda s=score: gs.greedy_bound(x, y, s)
    if order <= 6:
        up = order + 1
        yield f"{tag} midpoint order+1", lambda: gs.midpoint(x, y, order=up)
        yield f"{tag} Alignment order+1 rho_star", lambda: gs.Alignment(x, order=up).rho_star
        yield f"{tag} Alignment order+1 align", lambda: gs.Alignment(x, order=up).align(y)
        yield (f"{tag} Alignment order+1 expansion_check",
               lambda: gs.Alignment(x, order=up).expansion_check(x, y))
    if order <= 4:
        trio = [x, y, gs.scalar_mult(0.5, y)]
        yield (f"{tag} sample_mean order+1",
               lambda: gs.sample_mean(trio, max_iter=5, order=order + 1))
    for bad in (order - 1, 10):
        if bad < max(x.order, y.order) or bad > 9:
            yield f"{tag} edit_kernel order={bad}", lambda b=bad: gs.edit_kernel(x, y, order=b)
            yield f"{tag} midpoint order={bad}", lambda b=bad: gs.midpoint(x, y, order=b)
            yield f"{tag} sample_mean order={bad}", lambda b=bad: gs.sample_mean([x, y], order=b)
            yield f"{tag} Alignment order={bad}", lambda b=bad: gs.Alignment(x, order=b)


def _member(rng, n, d, kind):
    """(n, n, d) cells of one sample-mean member.  Scans of two members take
    every path: integers certified in float32 ("int" with "int") and only in
    float64 ("int" with "int-big"), Gaussians, members with norms near 2^50
    and 2^-51 ("high" and "low"), so that (||x|| + ||y||)^2 of their scans
    straddles 2^100 and 2^-100, members with cells near 1e-160 and 1e-162,
    whose scans against each other underflow, and a 1e160-scaled member,
    whose 4 R^2 overflows against any partner."""
    if kind == "int":
        return rng.integers(-1, 3, size=(n, n, d)).astype(float)
    if kind == "int-big":  # N (max|x| + m)^2 over 2^24 against small integers
        m = math.isqrt(2**26 // (n * n * d))
        return rng.integers(-m, m + 1, size=(n, n, d)).astype(float)
    if kind == "huge":
        return rng.integers(0, 3, size=(n, n, d)) * 1e160
    if kind in ("tiny-160", "tiny-162"):  # scans of two such members underflow
        return rng.normal(size=(n, n, d)) * float(f"1e-{kind[-3:]}")
    if kind == "star":
        return _cells(rng, n, d, "unit", 1)
    if kind == "padded":  # two null nodes, which the mean pads back
        return rng.normal(size=(n - 2, n - 2, d))
    cells = rng.normal(size=(n, n, d))
    norms = {"high-in": 2.0**50 / 1.01, "high-out": 2.0**50 * 1.01,
             "low-in": 2.0**-51 * 1.01, "low-out": 2.0**-51 * 0.99}
    return cells * (norms[kind] / np.linalg.norm(cells)) if kind in norms else cells


# sample_mean batches: K members of one order, by mix of member kinds
_MEAN_MIXES = (
    (7, 2, ("gauss", "int", "gauss", "padded", "gauss", "star", "gauss", "gauss")),
    (7, 2, ("int", "int", "int-big", "int", "padded", "int", "star", "int")),
    (7, 1, ("gauss", "high-in", "high-out", "high-in", "int", "gauss", "star", "int")),
    (7, 1, ("gauss", "int", "huge", "gauss", "int", "star", "padded", "gauss")),
    (7, 2, ("low-in", "low-in", "low-out", "low-out", "low-in", "low-out", "low-in", "low-out")),
    (5, 1, ("gauss", "int", "int-big", "star", "high-in", "high-out", "padded", "int") * 3
     + ("low-in",)),
    (4, 2, ("gauss",) * 12 + ("int",) * 12 + ("padded",)),
    (3, 1, ("int", "low-in", "low-out", "gauss", "star") * 5),
    (8, 1, ("gauss", "int", "gauss")),
    (8, 1, ("int", "huge", "gauss")),
    (8, 2, ("int", "int-big", "high-in")),
    (9, 1, ("gauss", "int", "padded")),
    (9, 1, ("int", "int-big", "int")),
    (7, 1, ("gauss", "tiny-160", "tiny-162", "int", "tiny-160", "star", "tiny-162", "gauss")),
    (5, 2, ("tiny-160", "tiny-162", "gauss", "high-in", "low-out", "int") * 4 + ("tiny-162",)),
)


def _mean_cases(gs):
    """Fréchet means of K members: 8 at n = 7 (the benchmark's batch), 25 at
    n <= 5 (more partners than one pass totals), and 3 at n = 8 and 9 (3
    partners of 8 blocks fill a pass at n = 8; each is a pass at n = 9)."""
    for n, d, mix in _MEAN_MIXES:
        rng = np.random.default_rng(100 * n + len(mix))
        graphs = [gs.from_matrix(gs.GraphMatrix(_member(rng, n, d, kind)), True) for kind in mix]
        yield (f"sample_mean K={len(mix)} n={n} d={d} {'+'.join(sorted(set(mix)))}",
               lambda graphs=graphs: gs.sample_mean(graphs))


def _outcome(fn):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn()
    except Exception as exc:
        return f"raises {type(exc).__name__}: {exc}"


# Edge listings of one 5-node graph: node 4 is null, node 3 has the zero
# attribute but an edge.  The attribute depends only on the unordered pair,
# so every listing is consistent.
_LISTINGS = {
    "forward": ((0, 1), (1, 2), (0, 3)),
    "backward": ((1, 0), (2, 1), (3, 0)),
    "mixed": ((0, 1), (2, 1), (3, 0)),
    "both": ((0, 1), (1, 0), (2, 1), (1, 2), (0, 3), (3, 0)),
}


def _listed_graph(directed, pairs):
    nodes = [[1.5, -0.0], [0.0, 2.0], [-1.0, 0.25], [0.0, 0.0], [-0.0, 0.0]]
    edges = [{"from": i, "to": j, "attr": [float(i + j), -0.5]} for i, j in pairs]
    return json.dumps({"directed": directed, "attr_dim": 2, "nodes": nodes, "edges": edges})


def _signed_zero_cells(asymmetric):
    """(4, 4, 2) cells with -0.0 nodes, +-0.0 non-edges and -0.0 components
    of edges; ``asymmetric`` adds an edge from 3 to 0 only."""
    cells = np.zeros((4, 4, 2))
    cells[0, 0], cells[1, 1], cells[2, 2] = (-0.0, -0.0), (-0.0, 1.0), (2.0, 0.0)
    for (i, j), attr in (((0, 1), (-0.0, 0.0)), ((1, 2), (-0.0, -0.0)),
                         ((0, 2), (-0.0, 3.0)), ((2, 3), (0.5, -0.0))):
        cells[i, j] = cells[j, i] = attr
    if asymmetric:
        cells[3, 0] = (1.0, -0.0)
    return cells


def _node_layer(g):
    """Order, dimension, node attributes and degrees of g, with the outcome
    of ``is_null_node`` just outside the nodes at -1 and at the order."""
    return [g.order, g.dim, g.node_attrs, [g.degree(i) for i in range(-1, g.order + 1)],
            _outcome(lambda: g.is_null_node(-1)), _outcome(lambda: g.is_null_node(g.order))]


def _graph_cases(gs):
    """The graph layer: parsing, serialization, lookups, degrees, stripping,
    padding, equality, hashes and matrices, and the errors of bad input."""
    for directed in (False, True):
        kind = "directed" if directed else "undirected"
        graphs = {name: gs.parse_graph(_listed_graph(directed, pairs))
                  for name, pairs in _LISTINGS.items()}
        for name, g in graphs.items():
            tag = f"graph {kind} {name}"
            yield (f"{tag} round trip",
                   lambda g=g: gs.serialize_graph(gs.parse_graph(gs.serialize_graph(g))))
            yield f"{tag} to_matrix", lambda g=g: gs.to_matrix(g, 6)
            yield f"{tag} edges", lambda g=g: [g.edges, repr(g)]
            yield (f"{tag} lookups",
                   lambda g=g: [[g.edge_attr(i, j), g.has_edge(i, j)]
                                for i in range(-1, 7) for j in range(-1, 7)])
            yield f"{tag} null nodes", lambda g=g: [g.is_null_node(i) for i in range(g.order)]
            yield (f"{tag} node layers",
                   lambda g=g, d=directed: [_node_layer(h) for h in (
                       g, gs.pad_to_order(g, 7), gs.strip_null_nodes(g),
                       gs.from_matrix(gs.to_matrix(g, 6), d))])
            yield f"{tag} strip", lambda g=g: gs.strip_null_nodes(g)
            yield (f"{tag} pad",
                   lambda g=g: [gs.pad_to_order(g, 7), gs.pad_to_order(gs.strip_null_nodes(g), 5),
                                _outcome(lambda: gs.pad_to_order(g, 4))])
        listed = list(graphs.values())
        yield f"graph {kind} equality", lambda gl=listed: [[a == b for b in gl] for a in gl]
        yield f"graph {kind} hashes", lambda gl=listed: [hash(g) for g in gl]
        for asymmetric in (False, True):
            cells = _signed_zero_cells(asymmetric)
            tag = f"graph {kind} signed zeros{' asymmetric' * asymmetric}"
            yield tag, lambda c=cells, d=directed: _outcome(
                lambda: gs.from_matrix(gs.GraphMatrix(c), d))
            yield f"{tag} matrix", lambda c=cells, d=directed: _outcome(
                lambda: gs.to_matrix(gs.from_matrix(gs.GraphMatrix(c), d)))
            yield f"{tag} node layers", lambda c=cells, d=directed: _outcome(
                lambda: [_node_layer(h) for g in [gs.from_matrix(gs.GraphMatrix(c), d)]
                         for h in (g, gs.pad_to_order(g, 6), gs.strip_null_nodes(g))])
        for name, cells in (("empty", np.zeros((0, 0, 1))), ("d=1", [[-0.0, 2.0], [2.0, 1.0]]),
                            ("inf node", [[math.inf, 1.0], [1.0, 0.0]]),
                            ("nan edge", [[0.0, math.nan], [0.0, 1.0]]),
                            ("nan mirror", [[0.0, math.nan], [math.nan, 1.0]]),
                            ("inf mirror", [[0.0, -math.inf], [-math.inf, 1.0]]),
                            ("asymmetric", [[0.0, 1.0], [2.0, 0.0]])):
            yield (f"graph {kind} from_matrix {name}",
                   lambda c=cells, d=directed: _outcome(
                       lambda: gs.from_matrix(gs.GraphMatrix(c), d)))
        for name, edges in (("mirror", (((0, 1), (3.0,)), ((1, 0), (4.0,)))),
                            ("reversed mirror", (((1, 0), (3.0,)), ((0, 1), (4.0,)))),
                            ("repeat", (((0, 1), (3.0,)), ((0, 1), (4.0,)))),
                            ("agreeing", (((1, 0), (3.0,)), ((0, 1), (3.0,)), ((1, 0), (3.0,))))):
            yield (f"graph {kind} conflict {name}",
                   lambda e=edges, d=directed: _outcome(
                       lambda: gs.AttributedGraph(d, 1, [(1.0,), (2.0,)], e)))


def _gram_cases(gs, cli):
    for n, d, k in ((4, 1, 5), (7, 2, 5), (8, 3, 4), (9, 1, 3)):
        rng = np.random.default_rng(7 * n + d)
        graphs = [gs.from_matrix(gs.GraphMatrix(_cells(rng, n - i % 2, d, family, 0)), True)
                  for i, family in zip(range(k), ("gauss", "int", "unit", "gauss", "int"))]
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp, "graphs")
            folder.mkdir()
            for i, g in enumerate(graphs):
                (folder / f"g{i}.json").write_text(gs.serialize_graph(g), encoding="utf-8")
            for kind in ("kernel", "distance"):
                for flags in ([], ["--order", str(n + 1)], ["--pad", "pairwise-sum"],
                              ["--class", "compact", "--order", str(n + 1)],
                              ["--class", "compact", "--pad", "pairwise-sum"]):
                    out = Path(tmp, "gram.csv")
                    out.unlink(missing_ok=True)
                    code = cli.main(["gram", str(folder), "--kind", kind, *flags, "-o", str(out)])
                    text = out.read_text(encoding="utf-8") if out.exists() else ""
                    yield f"gram n={n} d={d} k={k} {kind} {' '.join(flags)}".rstrip(), [code, text]


def _align_mean_cases(gs, cli):
    """stdout and exit code of ``align`` and ``mean`` on one seeded set each."""
    rng = np.random.default_rng(11)
    graphs = [gs.from_matrix(gs.GraphMatrix(_cells(rng, o, 2, "gauss", 0)), True)
              for o in (4, 3, 4, 2)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, g in enumerate(graphs):
            paths.append(str(Path(tmp, f"g{i}.json")))
            Path(paths[-1]).write_text(gs.serialize_graph(g), encoding="utf-8")
        for argv in (["align", *paths], ["align", *paths, "--order", "5"],
                     ["mean", *paths, "--max-iter", "5"], ["mean", *paths, "--order", "5"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            yield " ".join(a for a in argv if a not in paths), [code, out.getvalue()]


def _compact_cli_cases(gs, cli):
    """stdout and exit code of ``dist`` and ``kernel --class compact`` on
    pairs with rx < ry, rx > ry and rx = ry, at the larger order, above it,
    over the guard and padded by the pairwise sum."""
    rng = np.random.default_rng(13)
    graphs = [gs.from_matrix(gs.GraphMatrix(_cells(rng, o, 2, family, 0)), True)
              for o, family in ((3, "gauss"), (5, "gauss"), (5, "int"), (1, "int"))]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, g in enumerate(graphs):
            paths.append(str(Path(tmp, f"g{i}.json")))
            Path(paths[-1]).write_text(gs.serialize_graph(g), encoding="utf-8")
        for a, b in ((0, 1), (1, 0), (1, 2), (3, 0), (3, 3)):
            for flags in (["--order", "5"], ["--order", "8"], ["--order", "10"],
                          ["--pad", "pairwise-sum"]):
                for command in ("dist", "kernel"):
                    argv = [command, paths[a], paths[b], "--class", "compact", *flags, "--witness"]
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                    label = f"{command} g{a} g{b} --class compact {' '.join(flags)} --witness"
                    yield label, [code, out.getvalue()]


def _check_cases(cli):
    for suite in SUITES:
        flags = [] if suite == "mcs" else ["--trials", "4", "--seed", "3"]  # mcs takes none
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check", "--suite", suite, *flags])
        yield f"check {suite} {' '.join(flags)}".rstrip(), [code, out.getvalue()]


def emit(src: str) -> None:
    sys.path.insert(0, src)
    import graphspace as gs
    from graphspace import cli

    for label, thunk in _cases(gs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = _canon(thunk())
            except Exception as exc:  # a raised error is a result too
                result = f"raises {type(exc).__name__}"
        if caught:  # and so is a warning
            result = [result, sorted({f"{w.category.__name__}: {w.message}" for w in caught})]
        print(json.dumps([label, result]), flush=True)
    for label, result in (*_gram_cases(gs, cli), *_align_mean_cases(gs, cli),
                          *_compact_cli_cases(gs, cli), *_check_cases(cli)):
        print(json.dumps([label, result]), flush=True)


def _run(src: str) -> list[tuple[str, object]]:
    proc = subprocess.run([sys.executable, __file__, "--emit", src],
                          capture_output=True, text=True, check=True)
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        emit(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old, new = (_run(str(Path(src).resolve())) for src in argv)
    labels = [label for label, _ in old]
    if labels != [label for label, _ in new]:
        print("the trees evaluated different cases", file=sys.stderr)
        return 1
    differ = [label for (label, a), (_, b) in zip(old, new) if a != b]
    for label in differ:
        print(f"DIFFERS: {label}")
    print(f"{len(old) - len(differ)} of {len(old)} results identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
