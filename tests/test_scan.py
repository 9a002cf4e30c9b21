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
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphspace
from graphspace import orbits
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


def custom_score(xm, ym):
    n = xm.shape[0]

    def score(p):
        return np.array([
            sum(_cells_cost(tuple(xm[q[k], q[l]]), tuple(ym[k, l]))
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
    for start, block in orbits.iter_permutation_blocks(n):
        assert start == offset and 1 <= len(block) <= 5040
        expected = np.array(list(itertools.islice(perms, len(block))), dtype=np.intp)
        assert np.array_equal(block, expected.reshape(len(block), n))
        offset += len(block)
    assert offset == math.factorial(n) and next(perms, None) is None


@pytest.mark.parametrize("n, d", [(0, 1), (1, 2), (5, 3), (8, 2), (9, 1)])
def test_flat_gather_equals_reference_gather(n, d):
    cells = np.random.default_rng(n).normal(size=(n, n, d))
    dense = lambda block: np.arange(len(block)) % 3 != 1  # noqa: E731
    sparse = lambda block: np.arange(len(block)) % 3 == 1  # noqa: E731
    for feasible in (None, dense, sparse):
        for block in orbits._blocks(n, feasible):
            got, ref = block.gather(cells), orbits.gather(cells, block.perms)
            assert got.flags.c_contiguous and np.array_equal(got, ref)


def test_order_nine_scan_builds_no_table_beyond_seven(monkeypatch):
    orders = []
    real = orbits.permutation_array

    def counting(n):
        orders.append(n)
        return real(n)

    monkeypatch.setattr(orbits, "permutation_array", counting)
    orbits._base.cache_clear()
    orbits._flat_index.cache_clear()
    try:
        x, y = unit_cycle(9), unit_path(9)
        quotient_distance(to_matrix(x), to_matrix(y))
        edit_kernel(x, y, DELTA, "compact")
        assert not is_ordinary(to_matrix(x))
    finally:
        orbits._base.cache_clear()
        orbits._flat_index.cache_clear()
    assert orders and max(orders) <= 7


def diff_form(x, y):
    """The diff-form score evaluated on every row, as a scan of all rows would."""

    def score(p):
        diff = permuted(x, p) - y
        return np.einsum("mijc,mijc->m", diff, diff)

    return score


def _near_tie_pair(n, d, seed, kind, scale):
    rng = np.random.default_rng(seed)
    if kind == "constant":
        x = np.full((n, n, d), rng.normal())
        y = x.copy()
    elif kind == "float":
        x, y = rng.normal(size=(2, n, n, d))
    else:  # relabelled copy plus noise; "symmetric" starts from a unit cycle
        x = rng.normal(size=(n, n, d))
        if kind == "symmetric":
            x = to_matrix(unit_cycle(n)).cells * x[0, 0] if n >= 3 else x
        p = rng.permutation(n)
        y = x[np.ix_(p, p)] + 1e-13 * rng.normal(size=x.shape)
        x = x + 1e-13 * rng.normal(size=x.shape)
    return x * scale, y * scale


NEAR_TIES = dict(
    n=st.integers(1, 8),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["float", "noisy-copy", "symmetric", "constant"]),
    scale=st.sampled_from([1.0, 1e-150, 1e150, 1e160]),
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
