"""Differential tests of the permutation-scan engine in ``graphspace.orbits``.

The reference enumerates ``itertools.permutations`` in lexicographic order,
scores each permutation from the definitions, and keeps the first optimum.
It walks the group in blocks of ``REF_BLOCK`` (not the engine's 5040), so a
block-boundary error in the engine cannot hide behind the same one here.
Most attributes are small integers, so every value is exact and ties are
common: values are compared with ``==`` and witnesses must be the
lex-smallest.  The near-tie tests use float attributes and compare bit for
bit with the diff form evaluated on every row.
"""

import itertools
import math
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphspace
from graphspace import kernels, orbits
from graphspace import (
    DELTA,
    DOT,
    Alignment,
    EditCost,
    GraphMatrix,
    edit_kernel,
    from_matrix,
    general_ged,
    is_ordinary,
    isotropy_group,
    pad_to_order,
    quotient_distance,
    to_matrix,
)
from graphspace.sampling import (
    random_graph,
    random_ordinary_graph,
    relabeled,
    unit_cycle,
    unit_path,
    unit_star,
)

REF_BLOCK = 1000


def ref_optimum(n, score, maximize=False, feasible=None):
    """(best value, first permutation reaching it), scanning REF_BLOCK at a time."""
    best, best_p = None, None
    perms = itertools.permutations(range(n))
    while chunk := list(itertools.islice(perms, REF_BLOCK)):
        p = np.array(chunk, dtype=np.intp).reshape(len(chunk), n)
        vals = score(p)
        ok = np.ones(len(chunk), bool) if feasible is None else feasible(p)
        for v, row, good in zip(vals.tolist(), chunk, ok):
            if good and (best is None or (v > best if maximize else v < best)):
                best, best_p = v, row
    return best, best_p


def permuted(x, p):
    """x[ix_(q, q)] for every row q of p."""
    return x[p[:, :, None], p[:, None, :]]


def compact(rx, ry):
    """Bijections sending every real node of the smaller graph to a real node;
    the node map sends x-node p[k] to y-node k."""

    def feasible(p):
        if rx <= ry:
            return np.all(np.argsort(p, axis=1)[:, :rx] < ry, axis=1)
        return np.all(p[:, :ry] < rx, axis=1)

    return feasible


def matrices(x, y, n):
    return to_matrix(pad_to_order(x, n)).cells, to_matrix(pad_to_order(y, n)).cells


def dot_score(xm, ym):
    return lambda p: np.sum(permuted(xm, p) * ym, axis=(1, 2, 3))


def delta_score(xm, ym):
    def score(p):
        same = np.all(permuted(xm, p) == ym, axis=-1) & np.any(ym != 0.0, axis=-1)
        return same.sum(axis=(1, 2)).astype(float)

    return score


def uniform_score(xm, ym):
    return lambda p: (~np.all(permuted(xm, p) == ym, axis=-1)).sum(axis=(1, 2)).astype(float)


def sq_score(xm, ym):
    return lambda p: np.sum((permuted(xm, p) - ym) ** 2, axis=(1, 2, 3))


def _cells_cost(a, b):
    return float(sum(abs(u - v) for u, v in zip(a, b))) + (0.5 if a != b else 0.0)


def custom_score(xm, ym, cost=_cells_cost):
    n = xm.shape[0]

    def score(p):
        return np.array([
            sum(cost(tuple(xm[q[k], q[l]]), tuple(ym[k, l]))
                for k in range(n) for l in range(n))
            for q in p
        ])

    return score


def _pairs(max_order):
    """Tie-heavy pairs: small-integer attributes, unit graphs, padding."""
    rng = np.random.default_rng(31)
    units = (unit_cycle, unit_path, unit_star)
    pairs = []
    for order in range(1, max_order + 1):
        for _ in range(2):
            x = random_graph(rng, order, int(rng.integers(1, 3)), attrs="int")
            y = random_graph(rng, int(rng.integers(1, order + 1)), x.dim, attrs="int")
            pairs.append((x, y, order + int(rng.integers(0, 2))))
            if x.order + y.order <= 7:  # pairwise-sum padding: both have null slots
                pairs += [(x, y, x.order + y.order), (y, x, x.order + y.order)]
        if order >= 3:
            x = units[int(rng.integers(3))](order)
            y = units[int(rng.integers(3))](int(rng.integers(3, order + 1)))
            pairs.append((x, y, order))
    return pairs


PAIRS = _pairs(6)


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_edit_kernel_matches_reference(k):
    x, y, n = PAIRS[k]
    xm, ym = matrices(x, y, n)
    for score, ref_score in ((DOT, dot_score), (DELTA, delta_score)):
        for morphisms, feasible in (("all", None), ("compact", compact(x.order, y.order))):
            res = edit_kernel(x, y, score, morphisms, order=n)
            value, p = ref_optimum(n, ref_score(xm, ym), True, feasible)
            assert (res.value, res.witness.images) == (value, p), (score.kind, morphisms)


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_general_ged_matches_reference(k):
    x, y, n = PAIRS[k]
    xm, ym = matrices(x, y, n)
    costs = [(EditCost.uniform(), uniform_score)]
    if n <= 5:
        costs.append((EditCost.custom(_cells_cost), custom_score))
    for cost, ref_score in costs:
        for morphisms, feasible in (("all", None), ("compact", compact(x.order, y.order))):
            res = general_ged(x, y, cost, morphisms, order=n)
            value, p = ref_optimum(n, ref_score(xm, ym), False, feasible)
            assert (res.value, res.witness.images) == (value, p), (cost.kind, morphisms)


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_quotient_distance_matches_reference(k):
    x, y, n = PAIRS[k]
    xm, ym = matrices(x, y, n)
    res = quotient_distance(to_matrix(pad_to_order(x, n)), to_matrix(pad_to_order(y, n)))
    sq, p = ref_optimum(n, sq_score(xm, ym))
    assert (res.value, res.witness.images) == (math.sqrt(sq), p)


def _fixers(z):
    n = z.shape[0]
    return [q for q in itertools.permutations(range(n))
            if np.array_equal(permuted(z, np.array([q], dtype=np.intp).reshape(1, n))[0], z)]


@pytest.mark.parametrize("k", range(len(PAIRS)))
def test_isotropy_and_ordinary_match_reference(k):
    x, _, n = PAIRS[k]
    xm = to_matrix(pad_to_order(x, n))
    fixers = _fixers(xm.cells)
    assert [g.images for g in isotropy_group(xm)] == fixers
    assert is_ordinary(xm) == (fixers == [tuple(range(n))])


def test_rho_star_matches_reference():
    rng = np.random.default_rng(37)
    for order in range(2, 7):
        center = random_ordinary_graph(rng, order, 1, attrs="int")
        z = to_matrix(center).cells
        not_identity = lambda p: np.any(p != np.arange(order), axis=1)  # noqa: E731
        sq, _ = ref_optimum(order, sq_score(z, z), feasible=not_identity)
        assert Alignment(center).rho_star == 0.25 * math.sqrt(sq)


def test_order_nine_optimum_in_a_later_block():
    rng = np.random.default_rng(41)
    x = random_ordinary_graph(rng, 9, 1, attrs="int")
    y = relabeled(rng, x)
    while to_matrix(y) == to_matrix(x):
        y = relabeled(rng, x)
    xm, ym = matrices(x, y, 9)
    res = quotient_distance(to_matrix(x), to_matrix(y))
    sq, p = ref_optimum(9, sq_score(xm, ym))
    assert (res.value, res.witness.images) == (0.0, p) and sq == 0.0
    ker = edit_kernel(x, y)
    assert (ker.value, ker.witness.images) == ref_optimum(9, dot_score(xm, ym), True)
    assert ker.witness.images == p
    # a block holds 7! permutations sharing their first two images
    assert p[0] > 0


def test_order_nine_ties_across_blocks_resolve_to_lex_smallest():
    # The 18 automorphisms of the 9-cycle lie in 9 different blocks.
    x, y = unit_cycle(9), unit_cycle(9)
    xm, ym = matrices(x, y, 9)
    res = edit_kernel(x, y)
    assert (res.value, res.witness.images) == ref_optimum(9, dot_score(xm, ym), True)
    res = quotient_distance(to_matrix(x), to_matrix(y))
    assert res.witness.images == ref_optimum(9, sq_score(xm, ym))[1] == tuple(range(9))
    star = to_matrix(unit_star(9)).cells
    res = general_ged(unit_star(9), x, EditCost.uniform())
    assert (res.value, res.witness.images) == ref_optimum(9, uniform_score(star, ym))


def test_only_orbits_enumerates_permutation_blocks():
    src = Path(graphspace.__file__).parent
    users = [f.name for f in sorted(src.glob("*.py"))
             if "iter_permutation_blocks" in f.read_text(encoding="utf-8")]
    assert users == ["orbits.py"]


@pytest.mark.parametrize("n", range(10))
def test_blocks_concatenate_to_the_lex_ordered_group(n):
    perms = itertools.permutations(range(n))
    offset = 0
    for sigmas in orbits.iter_permutation_blocks(n):
        assert 1 <= len(sigmas) <= orbits._CHUNK
        for block in sigmas[:, orbits._base(n)]:
            assert 1 <= len(block) <= 5040
            expected = np.array(list(itertools.islice(perms, len(block))), dtype=np.intp)
            assert np.array_equal(block, expected.reshape(len(block), n))
            offset += len(block)
    assert offset == math.factorial(n) and next(perms, None) is None


def _classes(n):
    """(allowed, skip_identity) of the whole group, the group without the
    identity, and compact classes with rx < ry and with rx > ry, which
    excludes whole blocks at n = 9."""
    return {
        "all": (None, False),
        "non-identity": (None, True),
        "compact-up": (kernels._allowed(max(n - 4, 0), max(n - 3, 0), "compact", n), False),
        "compact-down": (kernels._allowed(max(n - 3, 0), max(n - 4, 0), "compact", n), False),
    }


def _admitted(allowed, p):
    """Row mask of the permutations p that allowed admits."""
    return np.ones(len(p), bool) if allowed is None else allowed[np.arange(p.shape[1]), p].all(1)


@pytest.mark.parametrize("n, d", [(0, 1), (1, 2), (5, 3), (8, 2), (9, 1)])
def test_flat_gather_equals_reference_gather(n, d, monkeypatch):
    # The rows a scan gathers, picked by their flat positions in the
    # lex-ordered group, are the reference gathers of those permutations;
    # a scan without the identity starts at the group's second row.
    monkeypatch.setattr(orbits, "_CHUNK", 5)  # divides neither 8 nor 72 blocks
    cells = np.random.default_rng(n).normal(size=(n, n, d))
    group = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    group = group.reshape(math.factorial(n), n)
    for skip_identity in (False, True):
        flat = np.arange(int(skip_identity), len(group))
        start = 0
        for chunk in orbits._chunks(n, skip_identity):
            assert chunk.count > 0
            rows = flat[start : start + chunk.count]
            assert np.array_equal(chunk.perms(np.arange(chunk.count)), group[rows])
            ref = orbits.gather(cells, group[rows[::7]])
            assert np.array_equal(chunk.gather(cells, np.arange(0, chunk.count, 7)), ref)
            start += chunk.count
        assert start == len(flat), skip_identity


def test_order_nine_scan_builds_no_table_beyond_seven(monkeypatch):
    orders = []
    real = orbits.permutation_array

    def counting(n):
        orders.append(n)
        return real(n)

    monkeypatch.setattr(orbits, "permutation_array", counting)
    orbits._base.cache_clear()
    orbits._tree.cache_clear()
    try:
        x, y = unit_cycle(9), unit_path(9)
        quotient_distance(to_matrix(x), to_matrix(y))
        edit_kernel(x, y, DELTA, "compact")
        assert not is_ordinary(to_matrix(x))
    finally:
        orbits._base.cache_clear()
        orbits._tree.cache_clear()
    assert orders and max(orders) <= 7


def test_totals_reuse_the_buffers_of_their_thread():
    # A multi-block chunk totals into buffers of its thread: a second scan on
    # the thread reuses them, and a scan on another thread has its own.
    x = np.random.default_rng(4).normal(size=(8, 8, 1))

    def buffers():
        return dict(vars(orbits._buffers))

    def scan():
        orbits.min_sq_over_group(x, x[::-1, ::-1])
        chunk = next(orbits._chunks(8))
        return chunk.totals(_table("dot", x, x).astype(np.float32))

    first, mine = scan(), buffers()
    assert mine  # n = 8 is one chunk of 8 blocks
    second = scan()
    assert buffers().keys() == mine.keys()
    assert all(buffers()[k] is v for k, v in mine.items())
    assert np.shares_memory(first, second)
    theirs = {}

    def other():
        theirs["totals"] = scan()
        theirs.update(buffers())

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert theirs.keys() - {"totals"} == mine.keys()
    assert not any(np.shares_memory(theirs[k], v) for k, v in mine.items())
    assert not np.shares_memory(theirs["totals"], second)
    assert np.array_equal(theirs["totals"], second)


def test_concurrent_scans_equal_serial_scans():
    # Three threads run order 8 and 9 kernel and metric scans at once, each
    # in its own order; every value and witness equals the serial run's.
    rng = np.random.default_rng(12)
    jobs = []
    for n in (8, 9):
        gx, gy = rng.normal(size=(2, n, n, 1))
        ix, iy = rng.integers(-2, 3, size=(2, n, n, 1)).astype(float)
        jobs += [
            lambda gx=gx, gy=gy: orbits.min_sq_over_group(gx, gy),
            lambda gx=gx, gy=gy: orbits.max_inner_over_group(gx, gy),
            lambda ix=ix, iy=iy: orbits.min_sq_over_group(ix, iy),
            lambda ix=ix, iy=iy: orbits.optimum(_table("delta", ix, iy), maximize=True),
        ]

    def bits(res):
        return _bits(res.value, res.witness.images)

    serial = [bits(job()) for job in jobs]
    start = threading.Barrier(3, timeout=60)
    found = [None] * 3

    def run(t):
        order = list(range(len(jobs)))[t:] + list(range(len(jobs)))[:t]
        start.wait()
        found[t] = {i: bits(jobs[i]()) for i in order}

    threads = [threading.Thread(target=run, args=(t,)) for t in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside every scan
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in found:
        assert [got[i] for i in range(len(jobs))] == serial


def diff_form(x, y):
    """The diff-form score evaluated on every row, as a scan of all rows would."""

    def score(p):
        diff = permuted(x, p) - y
        return np.einsum("mijc,mijc->m", diff, diff)

    return score


# R^2 = (||x|| + ||y||)^2 just inside and just outside 2^-100 and 2^100:
# far from 1, where float32 rankings rely on the power-of-two scaling.
WINDOW_EDGES = {
    "low-inside": 2.0**-100 * 1.001,
    "low-outside": 2.0**-100 / 1.001,
    "high-inside": 2.0**100 / 1.001,
    "high-outside": 2.0**100 * 1.001,
}


def _near_tie_pair(n, d, seed, kind, scale):
    """x and y times scale; a WINDOW_EDGES name scales them to that R^2."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        x = np.full((n, n, d), rng.normal())
        y = x.copy()
    elif kind == "float":
        x, y = rng.normal(size=(2, n, n, d))
    else:  # relabelled copy plus noise; "symmetric" and "float32-ties" start
        # from a unit cycle, and "float32-ties" takes noise near float32's 2^-24
        x = rng.normal(size=(n, n, d))
        if kind in ("symmetric", "float32-ties"):
            x = to_matrix(unit_cycle(n)).cells * x[0, 0] if n >= 3 else x
        noise = 2.0**-24 if kind == "float32-ties" else 1e-13
        p = rng.permutation(n)
        y = x[np.ix_(p, p)] + noise * rng.normal(size=x.shape)
        x = x + noise * rng.normal(size=x.shape)
    if scale in WINDOW_EDGES:
        scale = math.sqrt(WINDOW_EDGES[scale]) / (np.linalg.norm(x) + np.linalg.norm(y))
    return x * scale, y * scale


NEAR_TIES = dict(
    n=st.integers(1, 8),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["float", "noisy-copy", "symmetric", "float32-ties", "constant"]),
    scale=st.sampled_from([1.0, 1e-150, 1e-160, 1e-162, 1e150, 1e160, *WINDOW_EDGES]),
)


def _bits(value, witness):
    return value.hex(), tuple(witness)


@settings(max_examples=60, deadline=None)
@given(**NEAR_TIES)
def test_min_sq_over_group_matches_diff_form_bit_for_bit(n, d, seed, kind, scale):
    x, y = _near_tie_pair(n, d, seed, kind, scale)
    res = orbits.min_sq_over_group(x, y)
    assert _bits(res.value, res.witness.images) == _bits(*ref_optimum(n, diff_form(x, y)))


@settings(max_examples=30, deadline=None)
@given(**NEAR_TIES)
def test_rho_star_matches_diff_form_bit_for_bit(n, d, seed, kind, scale):
    z = _near_tie_pair(max(n, 2), d, seed, kind, scale)[0]
    center = from_matrix(GraphMatrix(z), directed=True)
    assert np.array_equal(to_matrix(center).cells, z)
    not_identity = lambda p: np.any(p != np.arange(len(z)), axis=1)  # noqa: E731
    sq, _ = ref_optimum(len(z), diff_form(z, z), feasible=not_identity)
    if not 0.0 < sq < math.inf:  # fixed by some gamma, or distances under- or overflow
        with pytest.raises(ValueError):
            Alignment(center).rho_star
        return
    assert Alignment(center).rho_star.hex() == (0.25 * math.sqrt(sq)).hex()


# ------------------------------------------------------------ cell-pair tables


def _ref_totals(kind, g, x, y):
    """Per-row totals of a gathered block g from the score definitions."""
    if kind == "dot":
        return np.einsum("mijc,ijc->m", g, y)
    if kind == "delta":
        same = np.all(g == y, axis=-1) & np.any(y != 0.0, axis=-1)
        return same.sum(axis=(1, 2)).astype(float)
    if kind == "cost-delta":
        nn_g, nn_y = np.any(g != 0.0, axis=-1), np.any(y != 0.0, axis=-1)
        eq = np.all(g == y, axis=-1)
        return (nn_g.astype(int) + nn_y - 2 * (eq & nn_y)).sum(axis=(1, 2)).astype(float)
    if kind == "uniform":
        return (~np.all(g == y, axis=-1)).sum(axis=(1, 2)).astype(float)
    if kind == "equality":
        return np.all(g == x, axis=-1).sum(axis=(1, 2)).astype(float)
    raise ValueError(kind)


def _table(kind, x, y):
    if kind == "dot":
        n, d = x.shape[0], x.shape[2]
        return (x.reshape(n * n, 1, d) * y.reshape(1, n * n, d)).sum(axis=-1).reshape(n, n, n * n)
    if kind == "equality":
        return orbits._equal_table(GraphMatrix(x))
    return kernels._score_table(x, y, kind)


TOTAL_KINDS = ("dot", "delta", "cost-delta", "uniform", "equality")


@pytest.mark.parametrize("n", range(10))
def test_table_totals_equal_reference_totals(n, monkeypatch):
    # Chunks of 5 blocks leave a short last chunk at n = 8 and n = 9.  Small
    # integer attributes make every total exact, so the batched totals must
    # equal the definitions bit for bit, per feasible row.  They are under
    # the float32 certificate too, so every kind is totalled from a float32
    # and a float64 table, each in its own dtype, and every integer kind
    # from its table as built (boolean or integer), in float32.
    # A class's excluded rows total the worst value of their kind's scan,
    # -inf for the kernels and the equality count, inf for the costs.
    monkeypatch.setattr(orbits, "_CHUNK", 5)
    rng = np.random.default_rng(100 + n)
    d = 1 + n % 2 if n < 9 else 1
    x = rng.integers(-1, 3, size=(n, n, d)).astype(float)
    y = rng.integers(-1, 3, size=(n, n, d)).astype(float)
    y[:1] = 0.0  # null cells
    assert orbits._integral_many(x, y[None])[0] < 2**24
    tables = {(kind, dtype): _table(kind, x, y).astype(dtype)
              for kind in TOTAL_KINDS for dtype in (np.float32, np.float64)}
    tables |= {(kind, None): _table(kind, x, y) for kind in TOTAL_KINDS if kind != "dot"}
    worst = {kind: math.inf if kind in ("cost-delta", "uniform") else -math.inf
             for kind in TOTAL_KINDS}
    cost = EditCost.custom(_cells_cost)
    custom = kernels._cost_table(x, y, cost) if n < 9 else None
    for name, (allowed, skip_identity) in _classes(n).items():
        scanned = tables if allowed is None else {
            (kind, dtype): orbits._penalised(table, allowed, worst[kind])
            for (kind, dtype), table in tables.items()}
        for chunk in orbits._chunks(n, skip_identity):
            # a result is valid until the next totals call on the thread
            got = {key: chunk.totals(table).copy() for key, table in scanned.items()}
            for start in range(0, chunk.count, 5040):
                which = np.arange(start, min(start + 5040, chunk.count))
                p = chunk.perms(which)
                g, ok = orbits.gather(x, p), _admitted(allowed, p)
                for kind, dtype in tables:
                    ref = np.where(ok, _ref_totals(kind, g, x, y), worst[kind])
                    total = got[kind, dtype]
                    assert total.dtype == (dtype or np.float32), (name, kind)
                    assert np.array_equal(total[which].astype(np.float64), ref), (name, kind, dtype)
        if custom is None:
            continue
        # a custom cost's reference total adds its cells left to right, as
        # Python's sum does; the cell-order form re-scores a row so
        table = custom if allowed is None else orbits._penalised(custom, allowed, math.inf)
        for chunk in orbits._chunks(n, skip_identity):
            sample = np.arange(0, chunk.count, 53)
            p = chunk.perms(sample)
            ref = [float(sum(cost(tuple(row[k, l]), tuple(y[k, l]))
                             for k in range(n) for l in range(n))) if good else math.inf
                   for row, good in zip(orbits.gather(x, p), _admitted(allowed, p))]
            got = orbits._cell_order(table, p)
            assert got.dtype == np.float64
            assert [v.hex() for v in got] == [v.hex() for v in ref], name


def test_custom_cost_is_called_once_per_cell_pair():
    calls = []

    def counting(a, b):
        calls.append(1)
        return _cells_cost(a, b)

    rng = np.random.default_rng(7)
    x = random_graph(rng, 5, 2, attrs="int")
    y = random_graph(rng, 3, 2, attrs="int")
    for morphisms in ("all", "compact"):
        calls.clear()
        res = general_ged(x, y, EditCost.custom(counting), morphisms, order=5)
        assert 0 < len(calls) <= 5**4
        xm, ym = matrices(x, y, 5)
        feasible = compact(x.order, y.order) if morphisms == "compact" else None
        assert (res.value, res.witness.images) == ref_optimum(5, custom_score(xm, ym), False, feasible)


def _inf_cost(a, b):
    """Infinite where an x cell above 1.5 meets a different y cell."""
    return math.inf if a[0] > 1.5 and a != b else _cells_cost(a, b)


def test_infinite_custom_cost_ties_resolve_as_among_the_class():
    # Rows that meet an infinite cost total inf, as do the rows a padded
    # compact scan excludes; where every compact row totals inf, the tie
    # resolves to the identity, the first row and a compact one.
    rng = np.random.default_rng(11)
    infinite = set()
    for _ in range(12):
        x = random_graph(rng, 4, 1, attrs="int")
        y = random_graph(rng, 3, 1, attrs="int")
        xm, ym = matrices(x, y, 5)
        ref_score = custom_score(xm, ym, _inf_cost)
        for morphisms in ("all", "compact"):
            res = general_ged(x, y, EditCost.custom(_inf_cost), morphisms, order=5)
            feasible = compact(x.order, y.order) if morphisms == "compact" else None
            ref = ref_optimum(5, ref_score, False, feasible)
            assert _bits(res.value, res.witness.images) == _bits(*ref), morphisms
            infinite.add(math.isinf(res.value))
    assert infinite == {True, False}


def _tenth_cost(a, b):
    return 0.1 * abs(a[0] - b[0])


@pytest.mark.parametrize("n", [4, 6, 8])
def test_custom_cost_totals_add_cells_left_to_right(n):
    # 0.1 |a - b| on Gaussian attributes is no multiple of a power of two, so
    # a total added up in any other order differs in its last bits.
    rng = np.random.default_rng(200 + n)
    x, y = random_graph(rng, n, 1), random_graph(rng, n - 1, 1)
    xm, ym = matrices(x, y, n)
    cost = EditCost.custom(_tenth_cost)

    def left_to_right(p):
        total = np.zeros(len(p))
        for k in range(n):
            for l in range(n):
                total += 0.1 * np.abs(xm[p[:, k], p[:, l], 0] - ym[k, l, 0])
        return total

    for morphisms, feasible in (("all", None), ("compact", compact(x.order, y.order))):
        res = general_ged(x, y, cost, morphisms, order=n)
        ref = ref_optimum(n, left_to_right, False, feasible)
        assert _bits(res.value, res.witness.images) == _bits(*ref), morphisms
    perm = graphspace.Permutation(tuple(int(v) for v in rng.permutation(n)))
    q = np.argsort(perm.images)  # (perm y)[a, b] = y[q_a, q_b]
    total = 0.0
    for a in range(n):
        for b in range(n):
            total += 0.1 * abs(xm[a, b, 0] - ym[q[a], q[b], 0])
    got = graphspace.transformation_cost(GraphMatrix(xm), GraphMatrix(ym), perm, cost)
    assert got.hex() == total.hex()


def test_only_orbits_and_bruteforce_enumerate_permutations():
    # A scan that builds a list of all n! permutations would hold them all in
    # memory at once; permutations come from orbits' block generators.
    src = Path(graphspace.__file__).parent
    named = re.compile(r"itertools\.permutations|from itertools import[^\n]*\bpermutations\b")
    users = {f.name for f in src.glob("*.py") if named.search(f.read_text(encoding="utf-8"))}
    assert users <= {"orbits.py", "bruteforce.py"} and "orbits.py" in users


def test_subperm_metric_streams_its_partial_permutations():
    rng = np.random.default_rng(9)
    x, y = random_graph(rng, 9, 1), random_graph(rng, 9, 1)
    tracemalloc.start()
    try:
        graphspace.subperm_metric(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    small, big = random_graph(rng, 3, 1), random_graph(rng, 5, 1)
    a, b = to_matrix(big).cells[:, :, 0], to_matrix(small).cells[:, :, 0]
    best = min(
        float(np.sum(a**2) - np.sum(a[np.ix_(q, q)] ** 2) + np.sum((a[np.ix_(q, q)] - b) ** 2))
        for q in map(list, itertools.permutations(range(5), 3))
    )
    assert math.isclose(graphspace.subperm_metric(big, small), math.sqrt(max(best, 0.0)),
                        rel_tol=1e-12)


# -------------------------------------- the integer certificate and its boundary


def dot_form(x, y):
    """The reference dot evaluated on every row, as a scan of all rows would."""
    return lambda p: np.einsum("mijc,ijc->m", permuted(x, p), y)


def _boundary_cells(rng, n, d, kind):
    """Integer cells at the edge of the exactness certificate
    N (max|x| + max|y|)^2 < 2^53, with max|x| = max|y| = m: the largest m
    under the limit, one more, or twice it, where sums of squares round.
    The kinds ending in 24 take the largest m under the float32 limit 2^24,
    or one more, and put m in cell (0, 0), which padding keeps."""
    limit = 2**24 if kind.endswith("24") else 2**53
    m = math.isqrt((limit - 1) // (4 * n * n * d))
    if kind == "huge":  # nonnegative, so products overflow to +inf, never to nan
        x = rng.integers(0, 3, size=(n, n, d)) * 1e160
    else:
        m = {"over": m + 1, "over24": m + 1, "twice": 2 * m}.get(kind, m)
        x = rng.integers(-m, m + 1, size=(n, n, d)).astype(float)
        x.flat[0 if limit == 2**24 else rng.integers(x.size)] = m
    p = rng.permutation(n)
    y = x[np.ix_(p, p)].copy()  # a relabelled copy, nudged: near-ties
    y.flat[rng.integers(y.size)] = -x.max() if kind != "huge" else 0.0
    if kind == "half":
        x.flat[rng.integers(x.size)] += 0.5
    return x, y


BOUNDARY = dict(
    n=st.integers(2, 7),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["under", "over", "twice", "half", "huge", "under24", "over24"]),
)


@settings(max_examples=60, deadline=None)
@given(**BOUNDARY)
def test_dot_kernel_and_metric_match_reference_at_the_certificate_boundary(n, d, seed, kind):
    rng = np.random.default_rng(seed)
    x, y = _boundary_cells(rng, n, d, kind)
    rx, ry = int(rng.integers(1, n + 1)), n
    xg = from_matrix(GraphMatrix(x[:rx, :rx]), directed=True)
    yg = from_matrix(GraphMatrix(y), directed=True)
    xm, ym = matrices(xg, yg, n)
    if kind.endswith("24"):  # the float32 certificate holds on one side only
        assert (orbits._integral_many(xm, ym[None])[0] < 2**24) == (kind == "under24")
    for morphisms, feasible in (("all", None), ("compact", compact(rx, ry))):
        res = edit_kernel(xg, yg, DOT, morphisms, order=n)
        ref = ref_optimum(n, dot_form(xm, ym), True, feasible)
        assert _bits(res.value, res.witness.images) == _bits(*ref), morphisms
    res = orbits.min_sq_over_group(xm, ym)
    assert _bits(res.value, res.witness.images) == _bits(*ref_optimum(n, diff_form(xm, ym)))


@settings(max_examples=40, deadline=None)
@given(**BOUNDARY)
def test_domain_margin_matches_reference_at_the_certificate_boundary(n, d, seed, kind):
    rng = np.random.default_rng(seed)
    x, z = _boundary_cells(rng, n, d, kind)
    center = from_matrix(GraphMatrix(z), directed=True)
    if not is_ordinary(to_matrix(center)):
        return
    not_identity = lambda p: np.any(p != np.arange(n), axis=1)  # noqa: E731
    rest, _ = ref_optimum(n, dot_form(x, z), True, not_identity)
    margin = Alignment(center).domain_margin(GraphMatrix(x))
    assert margin.hex() == (GraphMatrix(x).inner(GraphMatrix(z)) - rest).hex()


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("kind", ["int", "gauss", "huge"])
def test_infeasible_scan_has_no_witness(n, kind):
    # At n <= 1 the identity is the only permutation, so a scan without it
    # has no row.  Certified integers reduce through optimum, Gaussian cells
    # through the re-scoring loop, and cells whose 4 R^2 overflows through
    # the loop without a table; each reports the start value of its
    # reduction, -inf or inf, and no witness.
    rng = np.random.default_rng(n)
    if kind == "int":
        x, y = (rng.integers(-1, 3, size=(n, n, 2)).astype(float) for _ in range(2))
    else:
        x, y = rng.normal(size=(n, n, 2)), rng.normal(size=(n, n, 2))
        if kind == "huge":
            x, y = 1e160 * x, 1e160 * y
    if n:  # an empty pair is certified
        assert (orbits._integral_many(x, y[None])[0] is not None) == (kind == "int")
    assert orbits.min_sq_over_group(x, y, skip_identity=True) == (math.inf, None)
    assert orbits.max_inner_over_group(x, y, skip_identity=True) == (-math.inf, None)
    with np.errstate(over="ignore", invalid="ignore"):  # huge products overflow
        table = _table("dot", x, y)
    assert orbits.optimum(table, True, skip_identity=True) == (-math.inf, None)
    assert orbits.optimum(table, skip_identity=True) == (math.inf, None)


def test_scans_total_in_float32_where_exact_or_ranked(monkeypatch):
    # Integer score tables and every inner product total in float32: exact
    # integers under 2^24, and ranked ones at any scale (integers over 2^24
    # among them).  Custom costs, and inner products with N + 3 >= 2^20,
    # total in float64.
    dtypes = []
    real = orbits._Chunk.totals

    def recording(chunk, table):
        totals = real(chunk, table)
        dtypes.append(totals.dtype)
        return totals

    monkeypatch.setattr(orbits._Chunk, "totals", recording)

    def dtype_of(scan):
        dtypes.clear()
        scan()
        assert len(set(dtypes)) == 1
        return dtypes[0]

    rng = np.random.default_rng(5)
    for kind in ("under24", "over24"):
        x, y = _boundary_cells(rng, 5, 2, kind)
        assert dtype_of(lambda: orbits.min_sq_over_group(x, y)) == np.float32, kind
        assert dtype_of(lambda: orbits.max_inner_over_group(x, y)) == np.float32, kind
    for scale in (1.0, 1e-162, 1e-160, 1e150, *WINDOW_EDGES):
        x, y = _near_tie_pair(5, 2, 6, "float", scale)
        assert dtype_of(lambda: orbits.min_sq_over_group(x, y)) == np.float32, scale
        assert dtype_of(lambda: orbits.max_inner_over_group(x, y)) == np.float32, scale
        assert dtype_of(lambda: orbits._min_sq_many(x, [y, x, 2 * y])) == np.float32, scale
    for d, want in ((2**18 - 1, np.float32), (2**18, np.float64)):  # N + 3 = 2^20 - 1, 2^20 + 3
        x, y = rng.normal(size=(2, 2, 2, d))
        assert dtype_of(lambda: orbits.min_sq_over_group(x, y)) == want, d
        assert dtype_of(lambda: orbits.max_inner_over_group(x, y)) == want, d
    g, h = random_graph(rng, 5, 2, attrs="int"), random_graph(rng, 4, 2, attrs="int")
    assert dtype_of(lambda: edit_kernel(g, h, DELTA)) == np.float32
    assert dtype_of(lambda: general_ged(g, h, EditCost.uniform())) == np.float32
    assert dtype_of(lambda: general_ged(g, h, EditCost.from_kernel(DELTA))) == np.float32
    assert dtype_of(lambda: isotropy_group(to_matrix(g))) == np.float32
    assert dtype_of(lambda: general_ged(g, h, EditCost.custom(_cells_cost))) == np.float64


# ------------------------------------- bijection classes and memory of a scan


def test_compact_class_without_padding_builds_no_mask(monkeypatch):
    # When the larger graph fills the padded order, every bijection is
    # compact, so the compact scans are the scans of the whole group and
    # penalise no table.
    calls = []
    real = orbits._penalised

    def counting(table, allowed, worst):
        calls.append(allowed)
        return real(table, allowed, worst)

    monkeypatch.setattr(orbits, "_penalised", counting)
    rng = np.random.default_rng(43)
    for order in (3, 6, 8):
        x = random_graph(rng, order, 2, attrs="int")
        y = random_graph(rng, order - 2, 2)
        for a, b in ((x, y), (y, x)):
            assert kernels._allowed(a.order, b.order, "compact", order) is None
            for score in (DOT, DELTA):
                res = edit_kernel(a, b, score, "compact")
                assert res == edit_kernel(a, b, score, "all")
            for cost in (EditCost.uniform(), EditCost.from_kernel(DOT)):
                assert general_ged(a, b, cost, "compact") == general_ged(a, b, cost, "all")
        graphspace.mcs_kernel(x, y)
    assert calls and all(allowed is None for allowed in calls)
    calls.clear()
    edit_kernel(x, y, DELTA, "compact", order=9)  # padding: the class applies
    assert [allowed.shape for allowed in calls] == [(9, 9)]


def _left_to_right_tenth(xm, ym):
    """Totals of ``_tenth_cost`` over every row, cell by cell in (k, l) order."""
    n = len(xm)

    def score(p):
        total = np.zeros(len(p))
        for k in range(n):
            for l in range(n):
                total += 0.1 * np.abs(xm[p[:, k], p[:, l], 0] - ym[k, l, 0])
        return total

    return score


@pytest.mark.parametrize("n", [8, 9])
def test_compact_scans_skip_chunks_without_a_compact_row(n, monkeypatch):
    # With one block per chunk and rx > ry, every chunk whose prefix sends a
    # y-node below ry to padding holds no compact row.  Its totals are all
    # the worst value; a scan that shortlisted them would re-score excluded
    # rows.  Here y-node 0 is negative and x nonnegative, so the best
    # excluded rows send y-node 0 to padding, in those chunks, and beat
    # every compact row.
    monkeypatch.setattr(orbits, "_CHUNK", 1)
    rng = np.random.default_rng(300 + n)
    rx, ry = n - 1, n - 4
    def cost_delta(xm, ym):
        return lambda p: _ref_totals("cost-delta", permuted(xm, p), xm, ym)

    kinds = {
        "int": [(DOT, dot_score, True), (DELTA, delta_score, True),
                (EditCost.uniform(), uniform_score, False),
                (EditCost.from_kernel(DELTA), cost_delta, False)],
        "gauss": [(DOT, dot_form, True), (EditCost.from_kernel(DOT), diff_form, False),
                  (EditCost.custom(_tenth_cost), _left_to_right_tenth, False)],
    }
    for attrs, scans in kinds.items():
        if attrs == "int":
            xc, yc = rng.integers(0, 3, size=(rx, rx, 1)), rng.integers(0, 3, size=(ry, ry, 1))
        else:
            xc, yc = np.abs(rng.normal(size=(rx, rx, 1))), np.abs(rng.normal(size=(ry, ry, 1)))
        yc[0, :] = yc[:, 0] = -5.0  # y-node 0 and its edges
        x = from_matrix(GraphMatrix(xc.astype(float)), directed=True)
        y = from_matrix(GraphMatrix(yc.astype(float)), directed=True)
        xm, ym = matrices(x, y, n)
        for how, ref_score, maximize in scans:
            if maximize:
                res = edit_kernel(x, y, how, "compact", order=n)
            else:
                res = general_ged(x, y, how, "compact", order=n)
            ref = ref_optimum(n, ref_score(xm, ym), maximize, compact(rx, ry))
            assert _bits(res.value, res.witness.images) == _bits(*ref), (attrs, how)


def test_custom_cost_near_ties_decide_in_cell_order():
    # y's last two nodes are twins, so a row p and p composed with their swap
    # add the same terms in other orders.  Under 0.1 |a - b| the tree here
    # totals the cell-order optimum an ulp below another row, so a scan that
    # trusted the tree's totals, or re-scored only its ties, would miss it.
    n = 8
    rng = np.random.default_rng(71)
    y = rng.normal(size=(n, n, 1))
    y[n - 1] = y[n - 2]
    y[:, n - 1] = y[:, n - 2]
    y[n - 2, n - 1] = y[n - 1, n - 2] = rng.normal()
    p = rng.permutation(n)
    x = y[np.ix_(p, p)] + 0.5 * rng.normal(size=y.shape)
    xg, yg = (from_matrix(GraphMatrix(c), directed=True) for c in (x, y))
    xm, ym = matrices(xg, yg, n)
    res = general_ged(xg, yg, EditCost.custom(_tenth_cost))
    ref = ref_optimum(n, _left_to_right_tenth(xm, ym), False)
    assert _bits(res.value, res.witness.images) == _bits(*ref)
    table = kernels._cost_table(xm, ym, EditCost.custom(_tenth_cost))
    [(_, first)] = orbits._pass(-table[None], [None], False, n * n, None)  # trusts the tree
    assert first.images != tuple(ref[1])


def _left_to_right(table):
    """Totals of a cell-pair cost table over every row, cell by cell in
    (k, l) order."""
    n = len(table)

    def score(p):
        total = np.zeros(len(p))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n):
                for l in range(n):
                    total += table[p[:, k], p[:, l], k * n + l]
        return total

    return score


@pytest.mark.parametrize("case", ["abs all", "abs compact", "signed all"])
def test_custom_cost_past_overflow_equals_cell_order(case):
    # Costs near 1e307: 2 N max|entry| overflows, so the tree ranks nothing
    # and every row of the class is re-scored in cell order.  Under |a - b|
    # some cell-order totals reach inf and others stay finite; under the
    # signed cost the optimum's total is finite where the tree's overflows.
    kind, morphisms = case.split()
    if kind == "abs":
        n, rng = 7, np.random.default_rng(17)
        xc, yc = rng.normal(size=(n, n, 1)), rng.normal(size=(n - 2, n - 2, 1))
        cost = EditCost.custom(lambda a, b: 1.7e308 / (n * n) * abs(a[0] - b[0]))
    else:
        n, rng = 6, np.random.default_rng(19)
        xc, yc = rng.normal(size=(2, n, n, 1))
        cost = EditCost.custom(lambda a, b: 1.7e308 / 9 * math.tanh(a[0] - b[0]))
    x, y = (from_matrix(GraphMatrix(c), directed=True) for c in (xc, yc))
    xm, ym = matrices(x, y, n)
    table = kernels._cost_table(xm, ym, cost)
    assert not math.isfinite(2 * n * n * np.abs(table).max())
    res = general_ged(x, y, cost, morphisms)
    feasible = compact(n, len(yc)) if morphisms == "compact" else None
    ref = ref_optimum(n, _left_to_right(table), False, feasible)
    assert _bits(res.value, res.witness.images) == _bits(*ref)
    totals = _left_to_right(table)(np.array(list(itertools.permutations(range(n)))))
    assert 0 < np.isinf(totals).sum() < len(totals) if kind == "abs" else math.isfinite(ref[0])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_dot_kernel_rescores_float_ties_in_bounded_memory():
    # 0.1 is no integer, so the inner products only rank, and the 8! rows that
    # fix the star tie at the best: all are re-scored, _RESCORE_CELLS cells
    # at a time.
    x = 0.1 * to_matrix(unit_star(9)).cells
    res, peak = _traced_peak(lambda: orbits.max_inner_over_group(x, x))
    assert peak < 12 * 2**20
    assert _bits(res.value, res.witness.images) == _bits(*ref_optimum(9, dot_form(x, x), True))


def test_rescoring_memory_does_not_grow_with_the_attribute_dimension():
    # Every row that fixes the star ties at the best and is re-scored; parts
    # hold _RESCORE_CELLS cells, so d = 256 re-scores a few rows at a time.
    rng = np.random.default_rng(29)
    x = 0.1 * np.repeat(to_matrix(unit_star(8)).cells, 256, axis=2)
    p = rng.permutation(8)
    y = x[np.ix_(p, p)].copy()
    res, peak = _traced_peak(lambda: orbits.min_sq_over_group(x, y))
    assert res.value == 0.0
    assert peak < 16 * 2**20


def test_memory_stays_bounded_beyond_the_default_guard():
    # Order 10 is 720 blocks of 7!; a scan holds one chunk of them at a time.
    rng = np.random.default_rng(47)
    x = random_graph(rng, 10, 1)
    y = relabeled(rng, x)
    res, peak = _traced_peak(lambda: quotient_distance(to_matrix(x), to_matrix(y), guard=10))
    assert res.value == 0.0
    assert peak < 16 * 2**20


# ------------------------------------------- one x against many partners


def _partners(rng, x, n, d):
    """Partners of x that take every path of a scan: small integers (exact
    totals) and integers above 2^24 (ranked, with exact reference forms)
    when x holds integers, Gaussians, scaled by 1e60 (ranked in a frame
    scaled down) and by 1e160 (4 R^2 overflows: no ranking), a relabelled copy
    of x (an exact zero), the unit star (ties) and a graph padded with
    null nodes.  Orders 8 and 9 take one unranked partner, whose scan
    re-scores every row."""
    big = math.isqrt(2**30 // (n * n * d))  # N (max|x| + big)^2 over 2^24
    p = rng.permutation(n)
    star = to_matrix(unit_star(n)).cells if n >= 3 else np.ones((n, n, 1))
    padded = np.zeros((n, n, d))
    padded[: n // 2, : n // 2] = rng.normal(size=(n // 2, n // 2, d))
    ys = [
        rng.integers(-1, 3, size=(n, n, d)).astype(float),
        rng.integers(-big, big + 1, size=(n, n, d)).astype(float),
        rng.normal(size=(n, n, d)),
        1e60 * rng.normal(size=(n, n, d)),
        x[np.ix_(p, p)].copy(),
        np.repeat(star[:, :, :1], d, axis=2),
        padded,
    ]
    if n <= 7 or x.max() < 1e100:
        ys.append(1e160 * rng.normal(size=(n, n, d)))
    return ys


def _xs(rng, n, d):
    """Integer, Gaussian, 0.1-scaled unit-star and 1e160-scaled cells."""
    star = to_matrix(unit_star(n)).cells if n >= 3 else np.ones((n, n, 1))
    return {
        "int": rng.integers(-1, 3, size=(n, n, d)).astype(float),
        "gauss": rng.normal(size=(n, n, d)),
        "tenth-star": 0.1 * np.repeat(star[:, :, :1], d, axis=2),
        "huge": 1e160 * rng.normal(size=(n, n, d)),
    }


def _many_bits(results):
    return [_bits(r.value, r.witness.images) for r in results]


@pytest.mark.parametrize("n", range(1, 10))
def test_many_partner_scans_equal_single_scans(n):
    # Each partner of one batch decides as its own scan would: the same
    # value (as hex) and the same lex-first witness, whichever path it takes.
    rng = np.random.default_rng(500 + n)
    d = 1 if n >= 8 else 1 + n % 3
    for name, x in _xs(rng, n, d).items():
        if n >= 8 and name in ("tenth-star", "huge"):
            continue  # these re-score every row of every partner
        ys = _partners(rng, x, n, d)
        single = [orbits.min_sq_over_group(x, y) for y in ys]
        assert _many_bits(orbits._min_sq_many(x, ys)) == _many_bits(single), name
        assert _many_bits(orbits._min_sq_many(x, ys[2:3])) == _many_bits(single[2:3]), name


def test_many_partner_paths_are_the_single_scans_paths(monkeypatch):
    # The batch of an integer x holds every kind of partner: exact totals,
    # certified integers over 2^24, Gaussians at unit scale and scaled by
    # 1e60, and no ranking.  One walk of the group serves them all, and each
    # decides as its single scan does.
    rng = np.random.default_rng(17)
    x = rng.integers(-1, 3, size=(5, 5, 2)).astype(float)
    ys = _partners(rng, x, 5, 2)
    bounds = [orbits._integral_many(x, y[None])[0] for y in ys]
    assert bounds[0] < 2**24 <= bounds[1] < 2**53
    assert bounds[2:4] == [None, None] and bounds[-1] is None
    assert orbits._integral_many(x, np.stack(ys)) == bounds
    single = [orbits.min_sq_over_group(x, y) for y in ys]
    walks = []
    real = orbits.iter_permutation_blocks
    monkeypatch.setattr(orbits, "iter_permutation_blocks", lambda m: walks.append(m) or real(m))
    assert _many_bits(orbits._min_sq_many(x, ys)) == _many_bits(single)
    assert walks == [5]


@pytest.mark.parametrize("n", [5, 7])
def test_twenty_five_partners_take_two_passes(n, monkeypatch):
    # At n <= 7 a pass totals up to 24 (partner, block) columns, one block
    # each; a 25th partner takes a second pass.
    walks = []
    real = orbits.iter_permutation_blocks

    def counting(m):
        walks.append(m)
        return real(m)

    monkeypatch.setattr(orbits, "iter_permutation_blocks", counting)
    rng = np.random.default_rng(40 + n)
    x = rng.normal(size=(n, n, 2))
    ys = [rng.normal(size=(n, n, 2)) for _ in range(23)]
    ys += [x[::-1, ::-1].copy(), 0.5 * x]
    many = orbits._min_sq_many(x, ys)
    assert walks == [n, n]
    assert _many_bits(many) == _many_bits([orbits.min_sq_over_group(x, y) for y in ys])


@pytest.mark.parametrize("n, partners, walks", [(6, 8, 1), (7, 8, 1), (8, 8, 3), (9, 2, 2)])
def test_a_pass_totals_up_to_twenty_four_columns(n, partners, walks, monkeypatch):
    # 24 partners a pass at n <= 7, 3 at n = 8 (8 blocks each), 1 at n = 9.
    counted = []
    real = orbits.iter_permutation_blocks
    monkeypatch.setattr(orbits, "iter_permutation_blocks", lambda m: counted.append(m) or real(m))
    rng = np.random.default_rng(60 + n)
    x = rng.normal(size=(n, n, 1))
    orbits._min_sq_many(x, rng.normal(size=(partners, n, n, 1)))
    assert len(counted) == walks


@pytest.mark.parametrize("n", [5, 7, 8])
def test_stacked_totals_equal_each_tables_totals(n):
    # A stack of tables totals as its tables one by one: the (partner,
    # block) columns do not mix.
    rng = np.random.default_rng(80 + n)
    tables = rng.normal(size=(3, n, n, n * n)).astype(np.float32)
    for chunk in orbits._chunks(n, skip_identity=True):
        each = [chunk.totals(t).copy() for t in tables]
        stacked = chunk.totals(tables)
        assert stacked.shape == (3, chunk.count)
        assert all(np.array_equal(s, e) for s, e in zip(stacked, each))


def test_concurrent_many_partner_scans_equal_serial_scans():
    # Two threads run batched scans at once (n = 7: 8 columns; n = 8: 24
    # columns, three partners of 8 blocks); their totals share no buffer.
    rng = np.random.default_rng(91)
    jobs = []
    for n, k in ((7, 8), (8, 3)):
        x = rng.normal(size=(n, n, 1))
        ys = rng.normal(size=(k, n, n, 1))
        jobs.append(lambda x=x, ys=ys: _many_bits(orbits._min_sq_many(x, ys)))
    serial = [job() for job in jobs]
    start = threading.Barrier(2, timeout=60)
    found = [None, None]

    def run(t):
        start.wait()
        got = {i: jobs[i]() for i in (t, 1 - t)}  # each thread in its own order
        found[t] = [got[0], got[1]]

    threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert found == [serial, serial]
