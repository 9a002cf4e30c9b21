"""Attributed graphs over a fixed real feature space, and their matrix form.

Nodes and edges carry attributes from R^d.  The zero vector doubles as the
null attribute: a zero off-diagonal cell means "no edge", and an isolated
node with zero attribute is a padding ("null") node.  Because of this
convention a genuine zero edge attribute is unrepresentable, and the format
rejects it.  Node attributes may be zero.

Graph file format (JSON, UTF-8)::

    {
      "directed": false,
      "attr_dim": 1,
      "nodes": [[1.0], [2.0]],
      "edges": [{"from": 0, "to": 1, "attr": [3.0]}]
    }

``nodes`` lists one length-d attribute per node.  ``edges`` uses 0-based
endpoints with ``from != to``; undirected graphs list each edge once, in
either orientation.  Serialization writes floats with full round-trip
precision.

A graph of order n maps to an n x n matrix of attributes: node attributes on
the diagonal, edge attributes off it (an undirected edge in both mirror
cells, so the matrix is symmetric), zero cells for non-edges.  Flattened
row-major, that matrix is a point of the Euclidean space R^(n*n*d) on which
all norms and inner products below are taken.  Graphs compared together are
padded with null nodes to one order n, which ``padded_order`` decides;
``to_matrix(g, n)`` writes the padding as zero cells, without a padded graph.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "GraphFormatError",
    "AttributedGraph",
    "GraphMatrix",
    "parse_graph",
    "serialize_graph",
    "load_graph",
    "pad_to_order",
    "strip_null_nodes",
    "to_matrix",
    "from_matrix",
    "padded_order",
    "PADDING_MODES",
]

PADDING_MODES = ("bound", "pairwise-sum")


class GraphFormatError(ValueError):
    """Malformed graph input or violated structural invariant."""


def _as_attr(value, dim: int, what: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise GraphFormatError(f"{what}: attribute must be a sequence of reals")
    attr = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise GraphFormatError(f"{what}: attribute components must be reals")
        f = float(v)
        if not math.isfinite(f):
            raise GraphFormatError(f"{what}: attribute components must be finite")
        attr.append(f)
    if len(attr) != dim:
        raise GraphFormatError(
            f"{what}: attribute has dimension {len(attr)}, expected {dim}"
        )
    return tuple(attr)


@lru_cache(maxsize=4096)
def _edge_key(i: int, j: int) -> tuple[int, int]:
    """The key (i, j) of an edge, one tuple shared by every graph with an
    edge from node i to node j (up to 4096 pairs, every pair at order 64),
    so that graphs kept together hold their edge keys once."""
    return (i, j)


def _is_zero(attr: tuple[float, ...]) -> bool:
    return all(v == 0.0 for v in attr)


class AttributedGraph:
    """Immutable graph with node and edge attributes in R^d.

    An undirected edge is stored once, under (i, j) with i < j, and readers
    derive its mirror (j, i); a directed edge is stored as listed.  Zero edge
    attributes are rejected (zero means "no edge").
    """

    __slots__ = ("directed", "dim", "node_attrs", "_edges")

    def __init__(
        self,
        directed: bool,
        dim: int,
        node_attrs: Iterable,
        edge_attrs: Mapping | Iterable = (),
    ):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise GraphFormatError("attr_dim must be an integer >= 1")
        object.__setattr__(self, "directed", bool(directed))
        object.__setattr__(self, "dim", dim)
        nodes = tuple(_as_attr(a, dim, f"node {i}") for i, a in enumerate(node_attrs))
        object.__setattr__(self, "node_attrs", nodes)
        n = len(nodes)

        items = edge_attrs.items() if isinstance(edge_attrs, Mapping) else edge_attrs
        edges: dict[tuple[int, int], tuple[float, ...]] = {}
        for (i, j), raw in items:
            if not isinstance(i, int) or not isinstance(j, int):
                raise GraphFormatError("edge endpoints must be integers")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge ({i},{j}) endpoint out of range")
            if i == j:
                raise GraphFormatError(
                    f"self-loop edge entry ({i},{i}); node attributes belong in nodes"
                )
            attr = _as_attr(raw, dim, f"edge ({i},{j})")
            if _is_zero(attr):
                raise GraphFormatError(f"zero edge attribute on ({i},{j})")
            key = _edge_key(*self._ordered(i, j))
            if edges.setdefault(key, attr) != attr:
                raise GraphFormatError(f"conflicting attributes for edge {(i, j)}")
        object.__setattr__(self, "_edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("AttributedGraph is immutable")

    @property
    def order(self) -> int:
        return len(self.node_attrs)

    def _ordered(self, i: int, j: int) -> tuple[int, int]:
        """The pair under which the edge between i and j is stored."""
        return (i, j) if self.directed or i < j else (j, i)

    def edge_attr(self, i: int, j: int) -> tuple[float, ...] | None:
        return self._edges.get(self._ordered(i, j))

    def has_edge(self, i: int, j: int) -> bool:
        return self._ordered(i, j) in self._edges

    @property
    def edges(self) -> tuple[tuple[int, int, tuple[float, ...]], ...]:
        """Canonical edge listing: each undirected edge appears once (i < j)."""
        return tuple((i, j, attr) for (i, j), attr in sorted(self._edges.items()))

    def degree(self, i: int) -> int:
        """Edges at node i; a directed graph counts in- and out-edges."""
        return sum(i in key for key in self._edges)

    def is_null_node(self, i: int) -> bool:
        """True for an isolated node carrying the zero attribute."""
        return _is_zero(self.node_attrs[i]) and self.degree(i) == 0

    def _key(self):
        return (self.directed, self.dim, self.node_attrs, self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"AttributedGraph({kind}, order={self.order}, dim={self.dim}, "
            f"edges={len(self._edges)})"
        )


class GraphMatrix:
    """Order-n square array of attribute vectors: one point of R^(n*n*d).

    The diagonal holds node attributes, off-diagonal cells hold edge
    attributes (zero meaning no edge).  Cells are read-only float64.
    """

    __slots__ = ("cells",)

    def __init__(self, cells):
        arr = np.array(cells, dtype=np.float64)
        if arr.ndim == 2:  # d = 1 convenience
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] < 1:
            raise GraphFormatError(
                f"matrix cells must have shape (n, n, d), got {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "cells", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GraphMatrix is immutable")

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @property
    def dim(self) -> int:
        return self.cells.shape[2]

    def flatten(self) -> np.ndarray:
        """Row-major flattening: the Euclidean point representing the graph."""
        return self.cells.ravel()

    def norm(self) -> float:
        return float(np.linalg.norm(self.cells))

    def inner(self, other: "GraphMatrix") -> float:
        return float(np.einsum("ijc,ijc->", self.cells, other.cells))

    def is_symmetric(self) -> bool:
        return bool(np.array_equal(self.cells, self.cells.transpose(1, 0, 2)))

    def to_bytes(self) -> bytes:
        return self.cells.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GraphMatrix):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(
            np.array_equal(self.cells, other.cells)
        )

    def __hash__(self) -> int:
        return hash((self.cells.shape, self.to_bytes()))

    def __repr__(self) -> str:
        return f"GraphMatrix(n={self.n}, dim={self.dim})"


def parse_graph(text: str) -> AttributedGraph:
    """Parse the JSON graph format; raises GraphFormatError on any violation."""
    try:
        doc = json.loads(
            text, parse_constant=lambda c: (_ for _ in ()).throw(ValueError(c))
        )
    except ValueError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level value must be an object")
    for key in ("directed", "attr_dim", "nodes", "edges"):
        if key not in doc:
            raise GraphFormatError(f"missing key {key!r}")
    if not isinstance(doc["directed"], bool):
        raise GraphFormatError("directed must be a boolean")
    dim = doc["attr_dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise GraphFormatError("attr_dim must be an integer >= 1")
    if not isinstance(doc["nodes"], list) or not isinstance(doc["edges"], list):
        raise GraphFormatError("nodes and edges must be arrays")
    edge_items = []
    for k, e in enumerate(doc["edges"]):
        if not isinstance(e, dict) or not {"from", "to", "attr"} <= set(e):
            raise GraphFormatError(f"edge {k}: expected object with from/to/attr")
        i, j = e["from"], e["to"]
        if isinstance(i, bool) or isinstance(j, bool):
            raise GraphFormatError(f"edge {k}: endpoints must be integers")
        edge_items.append(((i, j), e["attr"]))
    return AttributedGraph(doc["directed"], dim, doc["nodes"], edge_items)


def serialize_graph(g: AttributedGraph) -> str:
    """Serialize to the JSON format; round-trips through parse_graph exactly."""
    doc = {
        "directed": g.directed,
        "attr_dim": g.dim,
        "nodes": [list(a) for a in g.node_attrs],
        "edges": [
            {"from": i, "to": j, "attr": list(attr)} for i, j, attr in g.edges
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def load_graph(path) -> AttributedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def pad_to_order(g: AttributedGraph, n: int) -> AttributedGraph:
    """Append null-nodes until the graph has order n (isomorphism-preserving)."""
    if n < g.order:
        raise ValueError(f"cannot pad order {g.order} down to {n}")
    if n == g.order:
        return g
    zero = (0.0,) * g.dim
    nodes = g.node_attrs + (zero,) * (n - g.order)
    return AttributedGraph(g.directed, g.dim, nodes, g._edges)


def strip_null_nodes(g: AttributedGraph) -> AttributedGraph:
    """Remove every isolated zero-attribute node (g itself if there is none)."""
    keep = [i for i in range(g.order) if not g.is_null_node(i)]
    if len(keep) == g.order:
        return g
    index = {old: new for new, old in enumerate(keep)}
    nodes = [g.node_attrs[i] for i in keep]
    edges = [((index[i], index[j]), a) for i, j, a in g.edges]
    return AttributedGraph(g.directed, g.dim, nodes, edges)


def to_matrix(g: AttributedGraph, order: int | None = None) -> GraphMatrix:
    """Matrix representation: diagonal node attributes, off-diagonal edges,
    and zero cells for the null nodes that pad g to ``order``."""
    n = g.order if order is None else order
    if n < g.order:
        raise ValueError(f"cannot pad order {g.order} down to {n}")
    cells = np.zeros((n, n, g.dim))
    for i, attr in enumerate(g.node_attrs):
        cells[i, i] = attr
    for (i, j), attr in g._edges.items():
        cells[i, j] = attr
        if not g.directed:
            cells[j, i] = attr
    return GraphMatrix(cells)


def from_matrix(m: GraphMatrix, directed: bool) -> AttributedGraph:
    """Inverse of to_matrix.  Undirected output requires symmetric cells."""
    if not directed and not m.is_symmetric():
        raise GraphFormatError("asymmetric matrix cannot represent an undirected graph")
    off = m.cells.any(axis=2) & ~np.eye(m.n, dtype=bool)  # -0.0 cells are zero: no edge
    rows, cols = np.nonzero(off if directed else np.triu(off))
    edges = zip(zip(rows.tolist(), cols.tolist()), m.cells[rows, cols].tolist())
    return AttributedGraph(directed, m.dim, m.cells.diagonal().T.tolist(), edges)


def padded_order(
    graphs: Sequence[AttributedGraph],
    padding: str = "bound",
    order: int | None = None,
) -> int:
    """The common order to which ``to_matrix`` pads graphs compared together.

    ``pairwise-sum`` pads to the sum of the orders and takes no ``order``;
    ``bound`` pads to ``order``, or by default to the largest graph's order,
    and rejects an order below any graph's.  Fixed-order padding is what
    makes distances across a whole collection a metric.  The graphs must
    share one attribute dimension.
    """
    orders = [g.order for g in graphs]
    dims = list(dict.fromkeys(g.dim for g in graphs))
    if len(dims) > 1:
        mixed = " vs ".join(map(str, dims))
        raise GraphFormatError(f"dimension mismatch: mixed attribute dimensions {mixed}")
    if padding == "pairwise-sum":
        if order is not None:
            raise ValueError("pairwise-sum padding takes no order; use bound padding")
        return sum(orders)
    if padding != "bound":
        raise ValueError(f"unknown padding mode {padding!r}")
    largest = max(orders, default=0)
    n = largest if order is None else order
    if n < largest:
        raise ValueError(f"bound order {n} below graph order {largest}")
    return n
