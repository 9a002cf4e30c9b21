import itertools
import math

import numpy as np
import pytest

from graphspace import (
    GraphMatrix,
    OrderGuardError,
    Permutation,
    apply_action,
    is_ordinary,
    isotropy_group,
    orbit,
    quotient_distance,
    to_matrix,
)
from graphspace.orbits import permutation_array
from graphspace.sampling import random_graph


def diag(*values) -> GraphMatrix:
    return GraphMatrix(np.diag(np.asarray(values, dtype=float)))


def unit_cycle_matrix(n) -> GraphMatrix:
    cells = np.zeros((n, n))
    for i in range(n):
        cells[i, (i + 1) % n] = cells[(i + 1) % n, i] = 1.0
    return GraphMatrix(cells)


@pytest.mark.parametrize("n", range(9))
def test_permutation_array_is_the_lex_enumeration(n):
    ref = list(itertools.permutations(range(n)))
    perms = permutation_array(n)
    assert perms.shape == (len(ref), n)  # (1, 0) at n = 0: the empty permutation
    assert perms.dtype == np.intp
    assert not perms.flags.writeable
    assert [tuple(map(int, row)) for row in perms] == ref


def test_permutation_validation_and_group_ops():
    with pytest.raises(ValueError):
        Permutation((0, 0))
    p = Permutation((1, 2, 0))
    assert p.inverse().images == (2, 0, 1)
    assert p.compose(p.inverse()).is_identity()
    assert Permutation.identity(3).is_identity()
    assert p(0) == 1


def test_apply_action_examples():
    x = GraphMatrix([[1.0, 3.0], [0.0, 2.0]])
    assert apply_action(Permutation.identity(2), x) == x
    swapped = apply_action(Permutation((1, 0)), x)
    assert swapped.cells[:, :, 0].tolist() == [[2.0, 0.0], [3.0, 1.0]]
    with pytest.raises(ValueError):
        apply_action(Permutation((0, 1, 2)), x)


def test_action_is_compatible_with_composition():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = GraphMatrix(rng.standard_normal((4, 4, 2)))
        g1 = Permutation(tuple(int(v) for v in rng.permutation(4)))
        g2 = Permutation(tuple(int(v) for v in rng.permutation(4)))
        assert apply_action(g1.compose(g2), x) == apply_action(g1, apply_action(g2, x))


def test_action_is_isometric_exact_on_integers():
    rng = np.random.default_rng(9)
    for _ in range(30):
        x = GraphMatrix(rng.integers(-3, 4, (4, 4, 1)).astype(float))
        y = GraphMatrix(rng.integers(-3, 4, (4, 4, 1)).astype(float))
        g = Permutation(tuple(int(v) for v in rng.permutation(4)))
        gx, gy = apply_action(g, x), apply_action(g, y)
        assert gx.inner(gy) == x.inner(y)
        assert gx.norm() == x.norm()


def test_orbit_sizes():
    assert orbit(diag(1, 2, 3)).size == 6
    assert orbit(diag(1, 1, 1)).size == 1
    # 4-cycle with unit weights: dihedral symmetry leaves 24/8 arrangements
    assert orbit(unit_cycle_matrix(4)).size == 3


def test_orbit_contains_and_closure():
    x = diag(3, 0)
    orb = orbit(x)
    assert orb.contains(diag(0, 3))
    assert not orb.contains(diag(3, 3))
    for element in orb.elements:
        assert orbit(element).size == orb.size


def test_isotropy_groups():
    assert [p.images for p in isotropy_group(diag(1, 2))] == [(0, 1)]
    assert len(isotropy_group(diag(5, 5, 5))) == 6
    assert len(isotropy_group(unit_cycle_matrix(4))) == 8


def test_isotropy_is_subgroup():
    group = isotropy_group(unit_cycle_matrix(4))
    images = {p.images for p in group}
    for a in group:
        assert a.inverse().images in images
        for b in group:
            assert a.compose(b).images in images


def test_orbit_stabilizer_relation():
    rng = np.random.default_rng(17)
    cases = [diag(1, 2, 3), diag(1, 1, 1), unit_cycle_matrix(4)]
    cases += [to_matrix(random_graph(rng, 4, 1, attrs="int")) for _ in range(15)]
    for x in cases:
        assert orbit(x).size * len(isotropy_group(x)) == math.factorial(x.n)


def test_is_ordinary():
    assert is_ordinary(diag(1, 2, 3))
    assert not is_ordinary(diag(4, 4))
    assert not is_ordinary(unit_cycle_matrix(4))
    rng = np.random.default_rng(31)
    assert all(
        is_ordinary(GraphMatrix(rng.standard_normal((4, 4, 1)))) for _ in range(150)
    )


def test_ordinary_is_constant_on_orbits():
    x = to_matrix(random_graph(np.random.default_rng(4), 3, 1))
    flags = {is_ordinary(e) for e in orbit(x).elements}
    assert len(flags) == 1


def test_quotient_distance_examples():
    x = diag(1, 2)
    same = quotient_distance(x, x)
    assert same.value == 0.0 and same.witness.is_identity()
    assert quotient_distance(diag(3, 0), diag(0, 3)).value == 0.0
    res = quotient_distance(diag(1, 2), diag(5, 0))
    assert res.value == pytest.approx(math.sqrt(10), abs=1e-12)
    assert res.witness.images == (1, 0)


def test_quotient_distance_ties_resolve_to_lex_smallest():
    # every permutation attains the minimum here; the identity must win
    flat = diag(1, 1, 1)
    assert quotient_distance(flat, flat).witness.is_identity()


def test_quotient_distance_well_defined_on_orbits():
    rng = np.random.default_rng(8)
    x = to_matrix(random_graph(rng, 3, 2))
    y = to_matrix(random_graph(rng, 3, 2))
    base = quotient_distance(x, y).value
    for element in orbit(y).elements:
        assert quotient_distance(x, element).value == pytest.approx(base, abs=1e-12)


def test_quotient_distance_metric_axioms_on_integers():
    rng = np.random.default_rng(77)
    mats = [to_matrix(random_graph(rng, 3, 1, attrs="int")) for _ in range(12)]
    for a in mats:
        for b in mats:
            dab = quotient_distance(a, b).value
            assert dab == quotient_distance(b, a).value
            assert (dab == 0.0) == orbit(a).contains(b)
            for c in mats:
                assert dab <= quotient_distance(a, c).value + quotient_distance(c, b).value + 1e-9


def test_order_guard():
    x = diag(1, 2, 3, 4)
    with pytest.raises(OrderGuardError):
        orbit(x, guard=3)
    with pytest.raises(OrderGuardError):
        quotient_distance(x, x, guard=3)
    with pytest.raises(OrderGuardError):
        isotropy_group(x, guard=3)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        quotient_distance(diag(1, 2), diag(1, 2, 3))


def test_empty_matrix_is_handled():
    empty = GraphMatrix(np.zeros((0, 0, 1)))
    assert quotient_distance(empty, empty).value == 0.0
    assert orbit(empty).size == 1


def test_quotient_distance_across_permutation_blocks():
    # order 9 enumerates 362880 permutations in several blocks; the reversal
    # witness lives in the last one
    rng = np.random.default_rng(0)
    x = GraphMatrix(rng.standard_normal((9, 9, 1)))
    rev = Permutation(tuple(reversed(range(9))))
    res = quotient_distance(x, apply_action(rev, x))
    assert res.value == 0.0
    assert res.witness.images == rev.images
