import math

import numpy as np
import pytest

from graphspace import (
    Alignment,
    AttributedGraph,
    GraphFormatError,
    GraphMatrix,
    dirichlet_boundary_distance,
    is_ordinary,
    is_orthogonal_to_set,
    quotient_distance,
    scalar_mult,
    to_matrix,
)
from graphspace.sampling import random_graph, random_ordinary_graph


def diag_graph(*values):
    return AttributedGraph(True, 1, [(float(v),) for v in values])


def diag_matrix(*values):
    return GraphMatrix(np.diag(np.asarray(values, dtype=float)))


Z12 = Alignment(diag_graph(1, 2))


def test_alignment_rejects_singular_center():
    with pytest.raises(ValueError, match="ordinary"):
        Alignment(diag_graph(3, 3))


def test_dirichlet_contains_examples():
    z = Z12.center_matrix
    assert Z12.contains(z) and Z12.contains(z, interior=True)
    assert Z12.contains(diag_matrix(0, 5))
    assert not Z12.contains(diag_matrix(5, 0))
    with pytest.raises(ValueError):
        Z12.contains(diag_matrix(1, 2, 3))


def test_rho_star_closed_form():
    assert Z12.rho_star == pytest.approx(math.sqrt(2) / 4, abs=1e-12)
    a3 = Alignment(diag_graph(1, 2, 3))
    assert a3.rho_star == pytest.approx(math.sqrt(2) / 4, abs=1e-12)
    scaled = Alignment(scalar_mult(10.0, diag_graph(1, 2)))
    assert scaled.rho_star == pytest.approx(10 * Z12.rho_star, rel=1e-12)


def test_rho_star_matches_bisector_oracle():
    rng = np.random.default_rng(19)
    for _ in range(25):
        center = random_ordinary_graph(rng, int(rng.integers(2, 5)), 1, directed=True)
        align = Alignment(center)
        oracle = dirichlet_boundary_distance(align.center_matrix)
        assert abs(2.0 * align.rho_star - oracle) <= 1e-9


def test_align_examples():
    assert Z12.align(diag_graph(1, 2)) == Z12.center_matrix
    mu = Z12.align(diag_graph(5, 0))
    assert mu.cells[:, :, 0].tolist() == [[0.0, 0.0], [0.0, 5.0]]
    assert float(np.linalg.norm(Z12.center_matrix.cells - mu.cells)) == pytest.approx(
        math.sqrt(10), abs=1e-12
    )


def test_align_of_singular_graph_sits_on_boundary():
    mu = Z12.align(diag_graph(1, 1))
    assert Z12.contains(mu)
    assert not Z12.contains(mu, interior=True)


def test_align_is_center_isometric_and_in_domain():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 3))
        center = random_ordinary_graph(rng, n, dim, directed=True)
        align = Alignment(center)
        x = random_graph(rng, int(rng.integers(1, n + 1)), dim, directed=True)
        mu = align.align(x)
        assert align.contains(mu)
        delta = quotient_distance(align.center_matrix, align._padded_matrix(x)).value
        assert abs(float(np.linalg.norm(align.center_matrix.cells - mu.cells)) - delta) <= 1e-12


def test_expansion_check():
    same = Z12.expansion_check(diag_graph(1, 2), diag_graph(1, 2))
    assert same == (0.0, 0.0)
    via_center = Z12.expansion_check(diag_graph(1, 2), diag_graph(5, 0))
    assert via_center.delta == pytest.approx(via_center.aligned_distance, abs=1e-12)
    rng = np.random.default_rng(27)
    strict = 0
    for _ in range(60):
        center = random_ordinary_graph(rng, 3, 1, directed=True)
        align = Alignment(center)
        x = random_graph(rng, 3, 1, directed=True)
        y = random_graph(rng, 3, 1, directed=True)
        res = align.expansion_check(x, y)
        assert res.delta <= res.aligned_distance + 1e-9
        if res.aligned_distance - res.delta > 1e-6:
            strict += 1
    assert strict >= 1  # the alignment is an expansion, not an isometry


def test_cone_membership():
    z = Z12.center_matrix
    assert Z12.cone_contains(GraphMatrix(2.0 * z.cells), 1e-6)
    assert Z12.cone_contains(z, 1e-9)
    assert not Z12.cone_contains(diag_matrix(2, 1), 0.3)
    assert not Z12.cone_contains(GraphMatrix(np.zeros((2, 2, 1))), 0.5)
    with pytest.raises(ValueError):
        Z12.cone_contains(z, 0.0)


def test_conic_isometry_example():
    res = Z12.conic_isometry_check(diag_graph(1.1, 2.0), diag_graph(0.9, 2.1), Z12.rho_star)
    assert res.in_cone
    assert res.delta == pytest.approx(math.sqrt(0.05), abs=1e-12)
    assert res.aligned_distance == pytest.approx(res.delta, abs=1e-12)
    # swapped assignment would cost sqrt(2.21); the aligned one must win
    assert res.delta < 0.3


def test_conic_isometry_scaled_center():
    doubled = scalar_mult(2.0, diag_graph(1, 2))
    res = Z12.conic_isometry_check(doubled, diag_graph(1, 2), Z12.rho_star)
    assert res.in_cone
    assert res.delta == pytest.approx(math.sqrt(5), abs=1e-12)
    assert res.aligned_distance == pytest.approx(math.sqrt(5), abs=1e-12)


def test_conic_isometry_gates_outside_graphs():
    stranger = diag_graph(-7, 1)
    res = Z12.conic_isometry_check(stranger, diag_graph(1, 2), Z12.rho_star)
    assert not res.in_cone
    with pytest.raises(ValueError):
        Z12.conic_isometry_check(diag_graph(1, 2), diag_graph(1, 2), Z12.rho_star * 1.01)


def test_correspondence_report_at_center():
    report = Z12.correspondence_report(diag_graph(1, 2))
    assert report.kernel_residual == 0.0
    assert report.length_residual == 0.0
    assert report.angle_residual == 0.0
    assert not report.graph_orthogonal and not report.vector_orthogonal


def test_correspondence_report_orthogonal_case():
    center = AttributedGraph(True, 2, [((1.0, 0.0))])
    align = Alignment(center)
    other = AttributedGraph(True, 2, [((0.0, 1.0))])
    report = align.correspondence_report(other)
    assert report.graph_orthogonal and report.vector_orthogonal
    assert report.max_residual <= 1e-12


def test_correspondence_report_random():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        center = random_ordinary_graph(rng, n, 1, directed=True)
        align = Alignment(center)
        x = random_graph(rng, int(rng.integers(1, n + 1)), 1, directed=True)
        report = align.correspondence_report(x)
        assert report.max_residual <= 1e-9
        assert report.graph_orthogonal == report.vector_orthogonal


def test_set_orthogonality_transfers_to_aligned_images():
    # forward direction of the set-orthogonality correspondence
    center = AttributedGraph(True, 2, [((1.0, 0.0))])
    align = Alignment(center)
    u = [AttributedGraph(True, 2, [((0.0, 1.0))]), AttributedGraph(True, 2, [((0.0, 2.0))])]
    assert is_orthogonal_to_set(center, u)
    z = align.center_matrix
    inners = [align.align(g).inner(z) for g in u]
    assert max(inners) - min(inners) <= 1e-9


def test_genericity_of_ordinary_graphs():
    rng = np.random.default_rng(50)
    assert all(
        is_ordinary(to_matrix(random_graph(rng, 4, 1))) for _ in range(200)
    )


def test_alignment_order_and_guard_checks():
    center = diag_graph(1, 2)
    with pytest.raises(ValueError):
        Alignment(center, order=1)
    align = Alignment(center, order=3)
    assert align.n == 3
    with pytest.raises(ValueError):
        align.align(diag_graph(1, 2, 3, 4))


@pytest.mark.parametrize("scale", [1.0, 1e160])
def test_alignment_rejects_another_attribute_dimension(scale):
    # A d = 1 graph against a d = 2 center: at scale 1 numpy failed to
    # reshape, at 1e160 every product overflowed and align returned a
    # (4, 4, 1) matrix with an expansion check of (0.0, 0.0).
    rng = np.random.default_rng(0)
    center = scalar_mult(scale, random_ordinary_graph(rng, 4, 2, directed=True))
    align = Alignment(center)
    g = scalar_mult(scale, AttributedGraph(True, 1, [(1.0,), (2.0,)], [((0, 1), (3.0,))]))
    for query in (lambda: align.align(g), lambda: align.expansion_check(g, g),
                  lambda: align.expansion_check(center, g),
                  lambda: align.cone_contains_graph(g, 1.0),
                  lambda: align.correspondence_report(g)):
        with pytest.raises(GraphFormatError, match="dimension mismatch"):
            query()
