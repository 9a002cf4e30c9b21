import math
import re

import numpy as np
import pytest

from graphspace import (
    DELTA,
    DOT,
    AttributedGraph,
    EditCost,
    EditScore,
    GraphMatrix,
    Permutation,
    edit_kernel,
    from_matrix,
    general_ged,
    greedy_bound,
    induced_metric,
    induced_metric_via_kernel,
    mcs_kernel,
    subperm_metric,
    to_matrix,
    transformation_cost,
    transformation_score,
)
from graphspace.bruteforce import common_subgraph_maximum
from graphspace.sampling import random_graph, unit_catalog, unit_complete, unit_path


def single(v, directed=False) -> AttributedGraph:
    return AttributedGraph(directed, 1, [(float(v),)])


def nodes_only(*values) -> AttributedGraph:
    return AttributedGraph(False, 1, [(float(v),) for v in values])


ARROW2 = AttributedGraph(True, 1, [(0.0,), (0.0,)], [((0, 1), (2.0,))])
ARROW3 = AttributedGraph(True, 1, [(0.0,), (0.0,)], [((0, 1), (3.0,))])
TRIANGLE = unit_complete(3)


def test_edit_scores():
    assert DOT((1.0, 2.0), (3.0, 4.0)) == 11.0
    assert DELTA((2.0,), (2.0,)) == 1.0
    assert DELTA((2.0,), (3.0,)) == 0.0
    assert DELTA((0.0, 0.0), (0.0, 0.0)) == 0.0  # null-null pairs score nothing
    with pytest.raises(ValueError):
        EditScore("hamming")


def test_edit_costs():
    cost = EditCost.from_kernel(DOT)
    assert cost((3.0,), (5.0,)) == 4.0
    assert cost((3.0,), (3.0,)) == 0.0
    uniform = EditCost.uniform()
    assert uniform((1.0,), (2.0,)) == 1.0
    assert uniform((0.0,), (0.0,)) == 0.0
    custom = EditCost.custom(lambda a, b: abs(a[0] - b[0]))
    assert custom((1.0,), (4.0,)) == 3.0


@pytest.mark.parametrize("fields, message", [
    (("kernel-dot", DELTA), "edit cost 'kernel-dot' takes score=EditScore(kind='dot') and no fn"),
    (("uniform", DOT), "edit cost 'uniform' takes score=None and no fn"),
    (("bogus",), "unknown edit cost kind 'bogus'"),
    (("custom",), "edit cost 'custom' takes score=None and a fn"),
], ids=["kernel-dot-with-delta", "uniform-with-score", "unknown-kind", "custom-without-fn"])
def test_edit_cost_rejects_fields_its_kind_would_ignore(fields, message):
    # kernel-dot with DELTA scanned as the dot cost but was called as the
    # delta one; uniform ignored its score; an unknown kind and a custom cost
    # without fn failed only inside general_ged.
    with pytest.raises(ValueError, match=re.escape(message)):
        EditCost(*fields)


def test_transformation_score_examples():
    x = to_matrix(TRIANGLE)
    ident = Permutation.identity(3)
    assert transformation_score(x, x, ident, DOT) == x.norm() ** 2
    a, b = to_matrix(ARROW2), to_matrix(ARROW3)
    assert transformation_score(a, b, Permutation.identity(2), DOT) == 6.0
    assert transformation_score(a, b, Permutation((1, 0)), DOT) == 0.0
    assert transformation_score(x, x, ident, DELTA) == 9.0  # 3 nodes + 6 ordered edges


def test_transformation_cost_examples():
    x = to_matrix(TRIANGLE)
    assert transformation_cost(x, x, Permutation.identity(3), EditCost.from_kernel(DOT)) == 0.0
    a, b = to_matrix(single(3)), to_matrix(single(5))
    assert transformation_cost(a, b, Permutation.identity(1), EditCost.from_kernel(DOT)) == 4.0
    c, d = to_matrix(single(1)), to_matrix(single(2))
    assert transformation_cost(c, d, Permutation.identity(1), EditCost.uniform()) == 1.0


def test_transformation_cost_matches_norm_identity():
    rng = np.random.default_rng(14)
    cost = EditCost.from_kernel(DOT)
    for _ in range(20):
        x = GraphMatrix(rng.standard_normal((4, 4, 2)))
        y = GraphMatrix(rng.standard_normal((4, 4, 2)))
        p = Permutation(tuple(int(v) for v in rng.permutation(4)))
        direct = float(np.sum((x.cells - np.asarray(y.cells)[np.ix_(*(np.argsort(p.images),) * 2)]) ** 2))
        # apply_action(p, y)[i, j] = y[p^-1(i), p^-1(j)]
        assert transformation_cost(x, y, p, cost) == pytest.approx(direct, rel=1e-12)


def test_edit_kernel_examples():
    res = edit_kernel(single(3), nodes_only(3, 4), DOT, "compact")
    assert res.value == 12.0 and res.witness.images == (1, 0)
    x = TRIANGLE
    self_res = edit_kernel(x, x, DOT)
    assert self_res.value == to_matrix(x).norm() ** 2
    assert self_res.witness.is_identity()
    assert edit_kernel(ARROW2, ARROW3, DOT, "all").value == 6.0


def test_edit_kernel_compact_never_exceeds_all():
    rng = np.random.default_rng(21)
    gaps = 0
    for _ in range(60):
        x = random_graph(rng, int(rng.integers(1, 5)), 1)
        y = random_graph(rng, int(rng.integers(1, 5)), 1)
        k_all = edit_kernel(x, y, DOT, "all", "pairwise-sum").value
        k_compact = edit_kernel(x, y, DOT, "compact", "pairwise-sum").value
        assert k_compact <= k_all + 1e-12
        if k_all - k_compact > 1e-9:
            gaps += 1
        # the kernel-trick formula with the compact kernel can only overshoot
        assert induced_metric_via_kernel(x, y, DOT, "compact", "pairwise-sum") >= (
            induced_metric(x, y, DOT, "pairwise-sum") - 1e-9
        )
    # sign-indefinite attributes do produce strict gaps in this regime
    assert gaps >= 1


def test_edit_kernel_classes_agree_on_nonnegative_attributes():
    rng = np.random.default_rng(22)
    for _ in range(60):
        x = random_graph(rng, int(rng.integers(1, 5)), 1, attrs="nonneg")
        y = random_graph(rng, int(rng.integers(1, 5)), 1, attrs="nonneg")
        k_all = edit_kernel(x, y, DOT, "all", "pairwise-sum").value
        k_compact = edit_kernel(x, y, DOT, "compact", "pairwise-sum").value
        assert abs(k_all - k_compact) <= 1e-9 * (1.0 + abs(k_all))


def test_induced_metric_examples():
    assert induced_metric(single(3), single(5)) == 2.0
    g = AttributedGraph(False, 1, [(1.0,), (2.0,)], [((0, 1), (3.0,))])
    assert induced_metric(g, g) == 0.0
    assert induced_metric(single(3), nodes_only(3, 4)) == pytest.approx(
        math.sqrt(10), abs=1e-12
    )


def test_induced_metric_with_delta_score():
    # one matched unit node; the extra node and its two edge cells each cost 1
    assert induced_metric(unit_path(2), unit_path(1), DELTA) == pytest.approx(
        math.sqrt(3), abs=1e-12
    )
    assert induced_metric(TRIANGLE, TRIANGLE, DELTA) == 0.0


def test_general_ged_uniform_counts_ordered_edge_cells():
    # turning the unit path into the unit triangle inserts one undirected
    # edge, which occupies two ordered cells
    assert general_ged(unit_path(3), TRIANGLE, EditCost.uniform()).value == 2.0


def test_kernel_trick_consistency():
    rng = np.random.default_rng(33)
    for _ in range(50):
        dim = int(rng.integers(1, 3))
        x = random_graph(rng, int(rng.integers(1, 5)), dim)
        y = random_graph(rng, int(rng.integers(1, 5)), dim)
        direct = induced_metric(x, y)
        via = induced_metric_via_kernel(x, y)
        assert abs(direct - via) <= 1e-9


def test_general_ged_examples():
    g = AttributedGraph(False, 1, [(1.0,), (2.0,)], [((0, 1), (3.0,))])
    h = AttributedGraph(False, 1, [(2.0,), (1.0,)], [((0, 1), (3.0,))])
    assert general_ged(g, h, EditCost.uniform()).value == 0.0
    empty = AttributedGraph(False, 1, [])
    assert general_ged(single(3), empty, EditCost.uniform(), padding="pairwise-sum").value == 1.0
    res = general_ged(single(3), nodes_only(3, 4), EditCost.from_kernel(DOT))
    assert res.value == pytest.approx(10.0, abs=1e-12)


def test_general_ged_squares_the_metric():
    rng = np.random.default_rng(41)
    for _ in range(30):
        x = random_graph(rng, int(rng.integers(1, 5)), 2)
        y = random_graph(rng, int(rng.integers(1, 5)), 2)
        ged = general_ged(x, y, EditCost.from_kernel(DOT)).value
        assert math.sqrt(max(ged, 0.0)) == pytest.approx(induced_metric(x, y), abs=1e-12)


def test_general_ged_custom_cost_matches_uniform():
    rng = np.random.default_rng(43)
    fn = EditCost.custom(lambda a, b: 0.0 if a == b else 1.0)
    for _ in range(10):
        x = random_graph(rng, 3, 1, attrs="int")
        y = random_graph(rng, 3, 1, attrs="int")
        assert general_ged(x, y, fn).value == general_ged(x, y, EditCost.uniform()).value


def test_general_ged_rejects_nan_custom_cost():
    y = AttributedGraph(True, 1, [(0.0,), (0.0,), (1.0,)], [((0, 1), (3.0,))])
    finite = EditCost.custom(lambda a, b: abs(a[0] - b[0]))
    nan = EditCost.custom(lambda a, b: math.nan if (a, b) == ((2.0,), (3.0,)) else finite(a, b))
    for cls in ("all", "compact"):
        assert general_ged(ARROW2, y, finite, cls) == (2.0, Permutation.identity(3))
        with pytest.raises(ValueError, match=r"x cell \(0, 1\) and y cell \(0, 1\)"):
            general_ged(ARROW2, y, nan, cls)


def test_transformation_cost_rejects_nan_custom_cost():
    # The per-bijection reference rejects a NaN cost as general_ged does,
    # naming the x cell and the y cell (before the action) it compared.
    x, y = to_matrix(ARROW2), to_matrix(ARROW3)
    finite = EditCost.custom(lambda a, b: abs(a[0] - b[0]))
    nan = EditCost.custom(lambda a, b: math.nan if b == (3.0,) else finite(a, b))
    identity, swap = Permutation.identity(2), Permutation((1, 0))
    assert transformation_cost(x, y, identity, finite) == 1.0
    assert transformation_cost(x, y, swap, finite) == 5.0
    with pytest.raises(ValueError, match=r"x cell \(0, 1\) and y cell \(0, 1\)"):
        transformation_cost(x, y, identity, nan)
    with pytest.raises(ValueError, match=r"x cell \(1, 0\) and y cell \(0, 1\)"):
        transformation_cost(x, y, swap, nan)


def test_minus_infinite_custom_cost_is_rejected():
    # A cost of -inf is rejected as NaN is, with its cells, under both
    # classes: a row holding an inf and a -inf cost would total NaN.  The
    # compact scan at the larger graph's order still builds the table at the
    # padded order, so it names the same cells.
    x = AttributedGraph(True, 1, [(0.0,), (2.0,), (0.0,)], [((0, 1), (1.0,))])
    y = AttributedGraph(True, 1, [(1.0,), (0.0,)], [((0, 1), (3.0,))])
    minus = EditCost.custom(lambda a, b: -math.inf if a[0] > 1.5 else abs(a[0] - b[0]))
    for cls in ("all", "compact"):
        with pytest.raises(ValueError, match=r"-inf for x cell \(1, 1\) and y cell \(0, 0\)"):
            general_ged(x, y, minus, cls, order=5)
    xm, ym = to_matrix(x), to_matrix(y, 3)
    with pytest.raises(ValueError, match=r"-inf for x cell \(1, 1\) and y cell \(1, 1\)"):
        transformation_cost(xm, ym, Permutation.identity(3), minus)


def test_mcs_kernel_examples():
    same = mcs_kernel(TRIANGLE, TRIANGLE)
    assert same == (9, 3, 3)
    res = mcs_kernel(unit_path(3), TRIANGLE)
    assert (res.nodes, res.edges) == (3, 2)
    assert res.value == 7
    assert common_subgraph_maximum(unit_path(3), TRIANGLE) == 5
    assert mcs_kernel(single(1), single(2)) == (0, 0, 0)


def test_mcs_kernel_matches_enumeration_on_catalog_sample():
    catalog = unit_catalog(3)
    for a in catalog:
        for b in catalog:
            res = mcs_kernel(a, b)
            assert res.nodes + res.edges == common_subgraph_maximum(a, b)
            assert res.value == res.nodes + 2 * res.edges


def test_subperm_metric_examples():
    g = AttributedGraph(False, 1, [(1.0,), (2.0,)], [((0, 1), (3.0,))])
    assert subperm_metric(g, g) == 0.0
    null2 = AttributedGraph(False, 1, [(0.0,), (0.0,)])
    assert subperm_metric(single(1), null2) == 1.0
    assert subperm_metric(nodes_only(1, 2), nodes_only(5, 0)) == pytest.approx(
        math.sqrt(10), abs=1e-12
    )
    with pytest.raises(ValueError):
        subperm_metric(
            AttributedGraph(False, 2, [(1.0, 0.0)]), AttributedGraph(False, 2, [(0.0, 1.0)])
        )


def test_subperm_metric_is_symmetric_and_matches_padded_metric():
    rng = np.random.default_rng(55)
    for _ in range(40):
        x = random_graph(rng, int(rng.integers(1, 5)), 1, attrs="nonneg")
        y = random_graph(rng, int(rng.integers(1, 5)), 1, attrs="nonneg")
        d = subperm_metric(x, y)
        assert d == pytest.approx(subperm_metric(y, x), abs=1e-12)
        assert d == pytest.approx(
            induced_metric(x, y, DOT, "pairwise-sum"), abs=1e-9
        )


def test_greedy_bound_examples():
    g = nodes_only(1, 5)
    exact = edit_kernel(g, g, DOT).value
    bound = greedy_bound(g, g, DOT)
    assert bound.lower_kernel == exact
    assert bound.upper_metric == 0.0
    res = greedy_bound(single(3), single(5), DOT)
    assert res.lower_kernel == 15.0 and res.upper_metric == 2.0


def test_greedy_bound_never_crosses_exact_values():
    rng = np.random.default_rng(61)
    for _ in range(100):
        x = random_graph(rng, 4, 1)
        y = random_graph(rng, 4, 1)
        bound = greedy_bound(x, y, DOT)
        assert bound.lower_kernel <= edit_kernel(x, y, DOT).value + 1e-12
        assert bound.upper_metric >= induced_metric(x, y) - 1e-12


@pytest.mark.parametrize("signed", [False, True])
def test_greedy_bound_past_the_largest_float_warns_nothing(signed):
    # At 1e160 two node attributes' product passes the largest float: the
    # dot lower bound is inf, or nan once inf - inf meets, as the edit
    # kernel's value is; no RuntimeWarning reaches the caller.
    rng = np.random.default_rng(44)
    cells = rng.normal(size=(5, 5, 2)) if signed else rng.integers(0, 3, size=(5, 5, 2))
    x = from_matrix(GraphMatrix(1e160 * cells), directed=True)
    y = from_matrix(GraphMatrix(1e160 * cells[::-1, ::-1]), directed=True)
    want = "nan" if signed else "inf"
    assert repr(greedy_bound(x, y, DOT).lower_kernel) == repr(edit_kernel(x, y, DOT).value) == want


def test_unknown_morphism_class_rejected():
    with pytest.raises(ValueError):
        edit_kernel(single(1), single(2), DOT, morphisms="loose")
