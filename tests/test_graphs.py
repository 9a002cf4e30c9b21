import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graphspace
from graphspace import (
    AttributedGraph,
    GraphFormatError,
    GraphMatrix,
    from_matrix,
    pad_to_order,
    padded_order,
    parse_graph,
    serialize_graph,
    strip_null_nodes,
    to_matrix,
)
from graphspace.sampling import random_graph

TWO_NODE = '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[{"from":0,"to":1,"attr":[3.0]}]}'


def test_parse_two_node_undirected():
    g = parse_graph(TWO_NODE)
    assert not g.directed
    assert g.order == 2
    assert g.node_attrs == ((1.0,), (2.0,))
    assert g.edge_attr(0, 1) == (3.0,)
    assert g.edge_attr(1, 0) == (3.0,)  # the mirror of the stored edge
    assert g.has_edge(1, 0) and not g.has_edge(0, 0)


def test_parse_single_zero_node_directed():
    g = parse_graph('{"directed":true,"attr_dim":1,"nodes":[[0.0]],"edges":[]}')
    assert g.directed and g.order == 1 and g.node_attrs == ((0.0,),)


def test_parse_rejects_zero_edge_attr():
    bad = '{"directed":false,"attr_dim":1,"nodes":[[1.0],[2.0]],"edges":[{"from":0,"to":1,"attr":[0.0]}]}'
    with pytest.raises(GraphFormatError, match="zero edge attribute"):
        parse_graph(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "not json",
        '{"attr_dim":1,"nodes":[],"edges":[]}',  # missing key
        '{"directed":false,"attr_dim":0,"nodes":[],"edges":[]}',
        '{"directed":false,"attr_dim":1,"nodes":[[1.0,2.0]],"edges":[]}',  # dim mismatch
        '{"directed":false,"attr_dim":1,"nodes":[[1.0]],"edges":[{"from":0,"to":0,"attr":[1.0]}]}',
        '{"directed":false,"attr_dim":1,"nodes":[[1.0]],"edges":[{"from":0,"to":5,"attr":[1.0]}]}',
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(GraphFormatError):
        parse_graph(bad)


def test_conflicting_mirror_edges_rejected():
    with pytest.raises(GraphFormatError, match="conflicting"):
        AttributedGraph(
            False, 1, [(1.0,), (2.0,)], [((0, 1), (3.0,)), ((1, 0), (4.0,))]
        )


def test_round_trip_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = random_graph(
            rng,
            int(rng.integers(0, 5)),
            int(rng.integers(1, 4)),
            directed=bool(rng.integers(0, 2)),
            attrs=("gauss", "int")[int(rng.integers(0, 2))],
        )
        assert parse_graph(serialize_graph(g)) == g


def test_serialization_round_trips_awkward_floats():
    g = AttributedGraph(False, 1, [(0.1,), (1.0 / 3.0,)], [((0, 1), (2.0**-45,))])
    assert parse_graph(serialize_graph(g)) == g


def test_pad_appends_null_nodes():
    g = AttributedGraph(False, 1, [(3.0,)])
    padded = pad_to_order(g, 2)
    assert padded.node_attrs == ((3.0,), (0.0,))
    assert padded.edges == ()
    assert padded.is_null_node(1)


def test_pad_identity_and_inverse():
    g = parse_graph(TWO_NODE)
    assert pad_to_order(g, g.order) == g
    assert strip_null_nodes(pad_to_order(g, 4)) == g
    with pytest.raises(ValueError):
        pad_to_order(g, 1)


def test_strip_null_nodes_cases():
    padded = AttributedGraph(False, 1, [(3.0,), (0.0,)])
    assert strip_null_nodes(padded) == AttributedGraph(False, 1, [(3.0,)])
    g = parse_graph(TWO_NODE)
    assert strip_null_nodes(g) is g  # nothing to strip: no rebuilt copy
    all_null = AttributedGraph(False, 1, [(0.0,), (0.0,)])
    assert strip_null_nodes(all_null).order == 0


def test_degree_counts_each_edge_once():
    path = AttributedGraph(False, 1, [(1.0,)] * 3 + [(0.0,)], [((0, 1), (2.0,)), ((2, 1), (3.0,))])
    assert [path.degree(i) for i in range(4)] == [1, 2, 1, 0]
    assert path.is_null_node(3)
    arrows = AttributedGraph(True, 1, [(1.0,)] * 3, [((0, 1), (2.0,)), ((1, 0), (3.0,)),
                                                     ((2, 1), (4.0,))])
    assert [arrows.degree(i) for i in range(3)] == [2, 3, 1]  # in-edges plus out-edges


def test_zero_attr_connected_node_is_not_null():
    g = AttributedGraph(False, 1, [(0.0,), (1.0,)], [((0, 1), (2.0,))])
    assert not g.is_null_node(0)
    assert strip_null_nodes(g) == g


def test_to_matrix_examples():
    g = parse_graph(TWO_NODE)
    assert to_matrix(g).cells[:, :, 0].tolist() == [[1.0, 3.0], [3.0, 2.0]]
    single = AttributedGraph(False, 1, [(0.0,)])
    assert to_matrix(single).cells[:, :, 0].tolist() == [[0.0]]
    arrow = AttributedGraph(True, 1, [(0.0,), (0.0,)], [((0, 1), (2.0,))])
    assert to_matrix(arrow).cells[:, :, 0].tolist() == [[0.0, 2.0], [0.0, 0.0]]


def test_matrix_symmetry_tracks_directedness():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, 4, 2, directed=False, edge_prob=0.7)
        assert to_matrix(g).is_symmetric()
    asym = AttributedGraph(True, 1, [(1.0,), (2.0,)], [((0, 1), (3.0,))])
    assert not to_matrix(asym).is_symmetric()


def test_to_matrix_injective_at_fixed_order():
    rng = np.random.default_rng(23)
    graphs = [random_graph(rng, 3, 1, attrs="int") for _ in range(40)]
    seen = {}
    for g in graphs:
        key = to_matrix(g).to_bytes()
        if key in seen:
            assert seen[key] == g
        else:
            seen[key] = g


def test_from_matrix_round_trip_and_symmetry_check():
    rng = np.random.default_rng(3)
    for directed in (False, True):
        g = random_graph(rng, 4, 2, directed=directed, edge_prob=0.6)
        assert from_matrix(to_matrix(g), directed) == g
    with pytest.raises(GraphFormatError, match="asymmetric"):
        from_matrix(GraphMatrix([[0.0, 1.0], [0.0, 0.0]]), directed=False)


def test_pad_pair_modes():
    a = AttributedGraph(False, 1, [(1.0,)])
    b = AttributedGraph(False, 1, [(2.0,), (3.0,)])
    assert padded_order((a, b), "pairwise-sum") == 3
    assert padded_order((a, b), "bound") == padded_order((a, b)) == 2
    assert padded_order((a, b), "bound", order=5) == 5
    assert padded_order((a, b, b), "pairwise-sum") == 5
    assert padded_order(()) == padded_order((), "pairwise-sum") == 0
    with pytest.raises(ValueError, match="below graph order 2"):
        padded_order((a, b), "bound", order=1)
    with pytest.raises(ValueError, match="pairwise-sum"):
        padded_order((a, b), "pairwise-sum", order=5)
    with pytest.raises(ValueError, match="unknown padding mode"):
        padded_order((a, b), "sum")
    with pytest.raises(GraphFormatError, match="mismatch: mixed attribute dimensions 1 vs 2"):
        padded_order((a, AttributedGraph(False, 2, [(1.0, 1.0)])), "bound")
    with pytest.raises(GraphFormatError, match="dimension mismatch"):
        padded_order((a, AttributedGraph(False, 2, [(1.0, 1.0)])), "pairwise-sum")


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_to_matrix_pads_with_zero_cells(directed, d):
    # Padding in matrix space is bit for bit the matrix of the padded graph.
    rng = np.random.default_rng(10 * d + directed)
    neg_zero = AttributedGraph(directed, d, [(-0.0,) * d, (1.0,) * d], [((0, 1), (2.0,) * d)])
    for g in (AttributedGraph(directed, d, []), neg_zero,
              random_graph(rng, 4, d, directed=directed, edge_prob=0.6)):
        for n in range(g.order, g.order + 4):
            got, ref = to_matrix(g, n), to_matrix(pad_to_order(g, n))
            assert got.cells.shape == (n, n, d)
            assert got.to_bytes() == ref.to_bytes()
        assert to_matrix(g, None) == to_matrix(g)
        if g.order:
            with pytest.raises(ValueError, match="cannot pad"):
                to_matrix(g, g.order - 1)
    assert np.signbit(to_matrix(neg_zero, 3).cells[0, 0]).all()  # the -0.0 node survives


def test_serialized_form_is_stable():
    g = parse_graph(TWO_NODE)
    doc = json.loads(serialize_graph(g))
    assert list(doc) == ["directed", "attr_dim", "nodes", "edges"]
    assert serialize_graph(g) == serialize_graph(parse_graph(serialize_graph(g)))


def test_parsed_graphs_hold_only_their_cells():
    # A graph keeps one (n, n, d) array and no second form of its edges, so a
    # collection of parsed order-7, d = 2 graphs costs about its cells' bytes.
    rng = np.random.default_rng(4)
    texts = [serialize_graph(random_graph(rng, 7, 2)) for _ in range(200)]
    parse_graph(texts[0])  # first-use allocations are not the graphs'
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graphs = [parse_graph(text) for text in texts]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(graphs) <= 1500


@pytest.mark.parametrize("directed", [False, True])
def test_lookups_out_of_range_find_nothing(directed):
    # Indices past either end find no edge: -1 does not wrap to the last node.
    g = AttributedGraph(directed, 1, [(1.0,), (2.0,), (3.0,)], [((0, 2), (4.0,)), ((2, 1), (5.0,))])
    n = g.order
    for i, j in ((-1, 0), (0, -1), (-1, 2), (2, -1), (-1, -1), (n, 0), (0, n), (n, 2), (2, n), (n, n)):
        assert g.edge_attr(i, j) is None and not g.has_edge(i, j)
    assert g.edge_attr(0, 2) == (4.0,) and g.has_edge(2, 1)
    assert g.edge_attr(2, True) == g.edge_attr(2, 1) == (5.0,)  # True is 1, not a mask
    assert g.has_edge(2, 0) != directed and g.has_edge(1, 2) != directed
    assert g.degree(-1) == g.degree(n) == 0


def test_graphs_differing_in_a_signed_zero_are_equal():
    a = AttributedGraph(False, 2, [(0.0, 1.0), (2.0, 0.0)], [((0, 1), (3.0, 0.0))])
    b = AttributedGraph(False, 2, [(-0.0, 1.0), (2.0, 0.0)], [((0, 1), (3.0, -0.0))])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert math.copysign(1.0, b.node_attrs[0][0]) == -1.0  # the sign is kept
    assert math.copysign(1.0, b.edges[0][2][1]) == -1.0


def test_graph_values_are_python_floats():
    g = AttributedGraph(True, 2, [(1, 0.5), (0.0, -2)], [((1, 0), (3, 0.25))])
    assert g.node_attrs == ((1.0, 0.5), (0.0, -2.0)) and g.edges == ((1, 0, (3.0, 0.25)),)
    values = [v for attr in g.node_attrs for v in attr] + [v for *_, attr in g.edges for v in attr]
    assert all(type(v) is float for v in values)
    assert all(type(k) is int for i, j, _ in g.edges for k in (i, j))
    assert type(g.degree(0)) is int and type(g.order) is int and type(g.dim) is int


def test_graph_hashes_agree_across_interpreters():
    # Graph hashes hash floats, ints and bools only, which Python does not
    # salt per process, so every interpreter computes the same values.
    script = (
        "from graphspace import parse_graph\n"
        f"print(hash(parse_graph({TWO_NODE!r})))"
    )
    src = str(Path(graphspace.__file__).resolve().parent.parent)
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1] == f"{hash(parse_graph(TWO_NODE))}\n"


def test_equal_matrices_hash_alike_across_signed_zeros():
    # -0.0 == 0.0, so matrices that differ only in the sign of a zero are
    # equal, and a set or dict keeps one of them.
    a, b = GraphMatrix([[0.0]]), GraphMatrix([[-0.0]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    cells = np.array([[[1.0, -0.0], [0.0, 2.0]], [[-0.0, 0.0], [3.0, -0.0]]])
    flipped = GraphMatrix(np.where(cells == 0.0, -cells, cells))
    assert flipped == GraphMatrix(cells) and len({flipped, GraphMatrix(cells)}) == 1
    assert np.signbit(b.cells[0, 0, 0])  # hashing reads the cells without changing them
