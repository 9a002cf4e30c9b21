import math

import numpy as np
import pytest

from graphspace import (
    AttributedGraph,
    angle_cosine,
    cauchy_schwarz_gap,
    exhaustive_mean_optimum,
    is_orthogonal,
    is_orthogonal_to_set,
    kernel_value,
    length,
    metric,
    midpoint,
    orbit,
    sample_mean,
    scalar_mult,
    to_matrix,
)
from graphspace import orbits
from graphspace.sampling import random_graph, unit_complete

ARROW2 = AttributedGraph(True, 1, [(0.0,), (0.0,)], [((0, 1), (2.0,))])
ARROW3 = AttributedGraph(True, 1, [(0.0,), (0.0,)], [((0, 1), (3.0,))])


def single(v, dim=1):
    attr = tuple(float(x) for x in (v if isinstance(v, (tuple, list)) else (v,)))
    return AttributedGraph(False, dim, [attr])


def nodes_only(*values):
    return AttributedGraph(False, 1, [(float(v),) for v in values])


def test_scalar_mult_examples():
    g = unit_complete(3)
    assert scalar_mult(1.0, g) == g
    assert scalar_mult(2.0, single(3)) == single(6)
    with pytest.raises(ValueError):
        scalar_mult(0.0, g)


def test_kernel_positive_homogeneity_example():
    assert kernel_value(ARROW2, ARROW3) == 6.0
    assert kernel_value(ARROW2, scalar_mult(2.0, ARROW3)) == 12.0


def test_length_examples():
    assert length(single(3)) == 3.0
    assert length(unit_complete(3)) == 3.0  # sqrt(3 nodes + 6 ordered unit edges)
    g = random_graph(np.random.default_rng(1), 4, 2)
    assert length(scalar_mult(2.5, g)) == pytest.approx(2.5 * length(g), rel=1e-12)


def test_length_equals_norm_of_every_orbit_element():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng, 3, 1, attrs="int")
        l = length(g)
        for element in orbit(to_matrix(g)).elements:
            assert element.norm() == l


def test_angle_examples():
    g = random_graph(np.random.default_rng(3), 3, 1)
    assert angle_cosine(g, g) == pytest.approx(1.0, abs=1e-12)
    assert angle_cosine(g, scalar_mult(3.0, g)) == pytest.approx(1.0, abs=1e-12)
    e1, e2 = single((1.0, 0.0), dim=2), single((0.0, 1.0), dim=2)
    assert angle_cosine(e1, e2) == 0.0
    with pytest.raises(ValueError):
        angle_cosine(g, AttributedGraph(False, 1, [(0.0,)]))


def test_orthogonality():
    e1, e2 = single((1.0, 0.0), dim=2), single((0.0, 1.0), dim=2)
    assert is_orthogonal(e1, e2)
    g = random_graph(np.random.default_rng(4), 3, 1)
    assert not is_orthogonal(g, g)
    # duplicate set: constant kernel regardless of its value
    assert is_orthogonal_to_set(g, [g, g])
    assert is_orthogonal_to_set(e1, [e2, e2])


def test_cauchy_schwarz_gap():
    g = random_graph(np.random.default_rng(5), 4, 1)
    assert abs(cauchy_schwarz_gap(g, scalar_mult(2.0, g))) <= 1e-9
    assert cauchy_schwarz_gap(single(3), single(5)) == 0.0
    rng = np.random.default_rng(6)
    for _ in range(100):
        x = random_graph(rng, int(rng.integers(1, 5)), 2)
        y = random_graph(rng, int(rng.integers(1, 5)), 2)
        assert cauchy_schwarz_gap(x, y) >= -1e-9


def test_midpoint_examples():
    g = random_graph(np.random.default_rng(7), 3, 1)
    assert midpoint(g, g) == g
    m = midpoint(nodes_only(1, 2), nodes_only(5, 0))
    assert m.node_attrs == ((0.5,), (3.5,))
    assert metric(nodes_only(1, 2), m) == pytest.approx(math.sqrt(2.5), abs=1e-12)
    assert midpoint(single(3), single(5)) == single(4)


def test_midpoint_bisects_random_pairs():
    rng = np.random.default_rng(8)
    for _ in range(40):
        dim = int(rng.integers(1, 3))
        directed = bool(rng.integers(0, 2))
        x = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        y = random_graph(rng, int(rng.integers(1, 5)), dim, directed=directed)
        n = max(x.order, y.order)
        m = midpoint(x, y, order=n)
        half = metric(x, y, order=n) / 2.0
        assert abs(metric(x, m, order=n) - half) <= 1e-9
        assert abs(metric(m, y, order=n) - half) <= 1e-9


def test_midpoint_requires_common_directedness():
    with pytest.raises(ValueError):
        midpoint(ARROW2, nodes_only(1, 2))


def test_sample_mean_fixed_points():
    g = random_graph(np.random.default_rng(9), 3, 1)
    res = sample_mean([g])
    assert res.mean == g and res.frechet_value == 0.0
    res = sample_mean([g, g, g])
    assert res.mean == g and res.frechet_value == 0.0
    with pytest.raises(ValueError):
        sample_mean([])


def test_sample_mean_trace_and_oracle():
    rng = np.random.default_rng(10)
    for _ in range(12):
        graphs = [random_graph(rng, 3, 1, edge_prob=0.4) for _ in range(3)]
        res = sample_mean(graphs, max_iter=60)
        for earlier, later in zip(res.trace, res.trace[1:]):
            assert later <= earlier + 1e-12
        optimum, _ = exhaustive_mean_optimum(graphs)
        assert res.frechet_value >= optimum - 1e-9


def test_mean_oracle_runs_without_the_scan_engine(monkeypatch):
    # The oracle scores each candidate against the orbit rows it enumerates
    # itself, so it stays independent of the scans sample_mean runs.
    rng = np.random.default_rng(10)
    graphs = [random_graph(rng, 3, 1, edge_prob=0.4) for _ in range(3)]
    value, mean = exhaustive_mean_optimum(graphs)

    def engine(*args, **kwargs):
        raise AssertionError("the oracle called the scan engine")

    for name in ("_pass", "min_sq_over_group"):
        monkeypatch.setattr(orbits, name, engine)
    assert exhaustive_mean_optimum(graphs) == (value, mean)


def test_sample_mean_is_deterministic():
    rng = np.random.default_rng(11)
    graphs = [random_graph(rng, 3, 1) for _ in range(3)]
    a = sample_mean(graphs)
    b = sample_mean(graphs)
    assert a.mean == b.mean and a.trace == b.trace


def test_sample_mean_rejects_a_negative_max_iter():
    rng = np.random.default_rng(12)
    graphs = [random_graph(rng, 3, 1) for _ in range(3)]
    for bad in (-1, -3):
        with pytest.raises(ValueError, match="max_iter"):
            sample_mean(graphs, max_iter=bad)
    # no round: the start graph, the input nearest to all others
    res = sample_mean(graphs, max_iter=0)
    assert len(res.trace) == 1 and not res.converged
    assert res.mean in graphs
