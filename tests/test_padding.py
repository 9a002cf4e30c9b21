"""Padding to a common order happens in matrix space, after every check.

``padded_order`` decides the order and ``to_matrix(g, n)`` writes the null
nodes as zero cells; no library path rebuilds a padded graph.  An order below
a graph's is an input error before the order guard is consulted, and the
guard is consulted before any matrix is allocated.
"""

import sys
import tracemalloc

import pytest

import graphspace
from graphspace import (
    Alignment,
    AttributedGraph,
    EditCost,
    OrderGuardError,
    edit_kernel,
    general_ged,
    greedy_bound,
    induced_metric,
    mcs_kernel,
    midpoint,
    sample_mean,
    serialize_graph,
)
from graphspace import cli

CENTER = AttributedGraph(True, 1, [(1.0,), (2.0,), (4.0,)], [((0, 1), (3.0,))])
SMALL = AttributedGraph(True, 1, [(5.0,)], [])
PAIR = AttributedGraph(True, 1, [(1.0,), (0.0,)], [((1, 0), (2.0,))])
BIG = AttributedGraph(False, 1, [(1.0,)] * 11)


@pytest.fixture
def pad_calls(monkeypatch):
    """Count pad_to_order calls through every module that can name it."""
    calls = []
    original = graphspace.graphs.pad_to_order

    def counting(g, n):
        calls.append(n)
        return original(g, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("graphspace") and hasattr(module, "pad_to_order"):
            monkeypatch.setattr(module, "pad_to_order", counting)
    return calls


def _gram(tmp_path):
    for name, g in (("a", CENTER), ("b", SMALL), ("c", PAIR)):
        (tmp_path / f"{name}.json").write_text(serialize_graph(g), encoding="utf-8")
    out = tmp_path / "gram.csv"
    for pad in ("bound", "pairwise-sum"):
        assert cli.main(["gram", str(tmp_path), "--kind", "distance", "--pad", pad,
                         "-o", str(out)]) == 0


CALLERS = {
    "edit_kernel": lambda tmp: edit_kernel(CENTER, SMALL, order=4),
    "edit_kernel pairwise-sum": lambda tmp: edit_kernel(CENTER, SMALL, padding="pairwise-sum"),
    "general_ged": lambda tmp: general_ged(CENTER, SMALL, EditCost.uniform(), "compact"),
    "induced_metric": lambda tmp: induced_metric(CENTER, PAIR),
    "mcs_kernel": lambda tmp: mcs_kernel(CENTER, PAIR),
    "greedy_bound": lambda tmp: greedy_bound(CENTER, SMALL),
    "midpoint": lambda tmp: midpoint(CENTER, SMALL, order=4),
    "sample_mean": lambda tmp: sample_mean([CENTER, SMALL, PAIR], max_iter=3, order=4),
    "Alignment": lambda tmp: Alignment(CENTER, order=4),
    "Alignment.align": lambda tmp: Alignment(CENTER).align(SMALL),
    "Alignment.expansion_check": lambda tmp: Alignment(CENTER).expansion_check(SMALL, PAIR),
    "gram": _gram,
}


@pytest.mark.parametrize("caller", CALLERS)
def test_no_library_path_rebuilds_a_padded_graph(caller, pad_calls, tmp_path):
    CALLERS[caller](tmp_path)
    assert pad_calls == []


def test_pad_calls_fixture_counts_pad_to_order(pad_calls):
    graphspace.pad_to_order(SMALL, 3)
    assert pad_calls == [3]


ORDER_BELOW = {
    "edit_kernel": lambda order: edit_kernel(BIG, SMALL, order=order),
    "midpoint": lambda order: midpoint(BIG, AttributedGraph(False, 1, [(2.0,)]), order=order),
    "sample_mean": lambda order: sample_mean([BIG], order=order),
    "Alignment": lambda order: Alignment(BIG, order=order),
}


@pytest.mark.parametrize("path", ORDER_BELOW)
def test_order_below_a_graph_is_rejected_before_the_guard(path):
    # order 10 is below the order-11 graph and above the default guard 9
    with pytest.raises(ValueError, match="below graph order 11"):
        ORDER_BELOW[path](10)
    with pytest.raises(OrderGuardError):
        ORDER_BELOW[path](None)


OVER_GUARD = {
    "edit_kernel": lambda: edit_kernel(CENTER, SMALL, order=10**7),
    "midpoint": lambda: midpoint(CENTER, SMALL, order=10**7),
    "sample_mean": lambda: sample_mean([CENTER], order=10**7),
    "Alignment": lambda: Alignment(CENTER, order=10**7),
}


@pytest.mark.parametrize("path", OVER_GUARD)
def test_over_guard_order_allocates_no_matrix(path):
    # the matrices at order 10**7 would take 8e14 bytes
    tracemalloc.start()
    try:
        with pytest.raises(OrderGuardError):
            OVER_GUARD[path]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mcs_kernel_builds_each_matrix_once(monkeypatch):
    # One padded matrix per graph: the witness's matched cells are read from
    # the matrices its scan used.
    calls = []
    original = graphspace.kernels.to_matrix

    def counting(g, n=None):
        calls.append(n)
        return original(g, n)

    monkeypatch.setattr(graphspace.kernels, "to_matrix", counting)
    for x, y in ((CENTER, PAIR), (PAIR, CENTER), (SMALL, SMALL)):
        calls.clear()
        res = mcs_kernel(x, y)
        assert calls == [max(x.order, y.order)] * 2
        assert res.value == edit_kernel(x, y, graphspace.DELTA, "compact").value
