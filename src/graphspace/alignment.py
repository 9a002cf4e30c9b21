"""Dirichlet fundamental domains and alignment along an ordinary center graph.

An ordinary graph (trivial isotropy group) has a Dirichlet fundamental
domain: the convex polyhedral cone of matrices at least as close to the
center representation as to any of its permuted copies, equivalently
{x : <x, z> >= <x, gamma z> for all gamma}.  Aligning a graph means picking
the representation of its orbit inside that cone nearest to the center.  The
alignment is an isometry with respect to the center, an expansion in
general, and a bijective isometry on cones circumscribing balls of radius up
to rho_star around the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .graphs import AttributedGraph, GraphMatrix, padded_order, to_matrix
from .kernels import edit_kernel
from .orbits import (
    DEFAULT_ORDER_GUARD,
    apply_action,
    check_order_guard,
    is_ordinary,
    max_inner_over_group,
    min_sq_over_group,
    quotient_distance,
)

__all__ = [
    "Alignment",
    "ExpansionCheck",
    "ConicIsometryCheck",
    "CorrespondenceReport",
]

_BOUNDARY_TOL = 1e-12


class ExpansionCheck(NamedTuple):
    delta: float
    aligned_distance: float


class ConicIsometryCheck(NamedTuple):
    delta: float
    aligned_distance: float
    in_cone: bool


@dataclass(frozen=True)
class CorrespondenceReport:
    """Residuals between graph-level and aligned vector-level geometry."""

    kernel_residual: float
    length_residual: float
    angle_residual: float | None
    graph_orthogonal: bool
    vector_orthogonal: bool

    @property
    def max_residual(self) -> float:
        parts = [self.kernel_residual, self.length_residual]
        if self.angle_residual is not None:
            parts.append(self.angle_residual)
        return max(parts)


class Alignment:
    """Alignment of bounded-order graphs along an ordinary center graph.

    The center is padded to ``order`` (its own order by default) and its
    matrix fixed as the domain center; construction fails if that matrix is
    singular (nontrivial isotropy).  All queries are pure, so instances can
    be shared across threads.
    """

    def __init__(
        self,
        center: AttributedGraph,
        order: int | None = None,
        guard: int = DEFAULT_ORDER_GUARD,
    ):
        n = padded_order((center,), "bound", order)
        check_order_guard(n, guard)
        self.center = center
        self.guard = guard
        self.n = n
        self.center_matrix = to_matrix(center, n)
        if not is_ordinary(self.center_matrix, guard):
            raise ValueError("alignment center must be ordinary (trivial isotropy)")

    def _inner_with_center_orbit(self, x: GraphMatrix) -> tuple[float, float]:
        """(<x, z>, max over gamma != identity of <x, gamma z>)."""
        rest = max_inner_over_group(x.cells, self.center_matrix.cells, skip_identity=True)
        return x.inner(self.center_matrix), rest.value

    def domain_margin(self, x: GraphMatrix) -> float:
        """<x, z> minus the best competing <x, gamma z>; the sign classifies
        membership, near-zero values sit on the domain boundary."""
        if x.n != self.n or x.dim != self.center_matrix.dim:
            raise ValueError("matrix shape does not match the alignment order")
        base, rest = self._inner_with_center_orbit(x)
        return base - rest

    def contains(self, x: GraphMatrix, interior: bool = False) -> bool:
        """Dirichlet domain membership; ``interior`` demands a strict margin."""
        margin = self.domain_margin(x)
        if interior:
            return margin > _BOUNDARY_TOL
        return margin >= -_BOUNDARY_TOL

    @cached_property
    def rho_star(self) -> float:
        """Largest conic-isometry radius: one quarter of the minimum distance
        between the center and its nontrivial permuted copies.  Equals half
        the center's distance from the domain boundary.  Infinite for order
        0 or 1, where the group is trivial and the domain has no boundary."""
        if self.n < 2:
            return math.inf
        z = self.center_matrix.cells
        best = min_sq_over_group(z, z, skip_identity=True).value
        if not math.isfinite(best) or best <= 0.0:
            raise ValueError("center is singular; no positive radius exists")
        return 0.25 * math.sqrt(best)

    def _padded_matrix(self, g: AttributedGraph) -> GraphMatrix:
        return to_matrix(g, padded_order((self.center, g), "bound", self.n))

    def align(self, g: AttributedGraph) -> GraphMatrix:
        """The representation of g inside the domain nearest to the center.

        The distance to the center equals the graph metric by construction;
        boundary ties resolve to the lexicographically smallest witness.
        """
        x = self._padded_matrix(g)
        return apply_action(min_sq_over_group(self.center_matrix.cells, x.cells).witness, x)

    def expansion_check(
        self, x: AttributedGraph, y: AttributedGraph
    ) -> ExpansionCheck:
        """Graph distance next to the aligned-image distance (never smaller)."""
        xm, ym = self._padded_matrix(x), self._padded_matrix(y)
        delta = quotient_distance(xm, ym, self.guard).value
        mu_x, mu_y = self.align(x), self.align(y)
        return ExpansionCheck(delta, float(np.linalg.norm(mu_x.cells - mu_y.cells)))

    def cone_contains(self, x: GraphMatrix, rho: float) -> bool:
        """Membership in the cone circumscribing the open ball B(center, rho):
        some positive multiple of x lands inside the ball."""
        if rho <= 0.0:
            raise ValueError("cone radius must be positive")
        z = self.center_matrix.cells
        ip = float(np.einsum("ijc,ijc->", x.cells, z))
        z_sq = float(np.einsum("ijc,ijc->", z, z))
        if ip > 0.0:
            x_sq = float(np.einsum("ijc,ijc->", x.cells, x.cells))
            return z_sq - ip * ip / x_sq < rho * rho
        return z_sq < rho * rho

    def cone_contains_graph(self, g: AttributedGraph, rho: float) -> bool:
        return self.cone_contains(self.align(g), rho)

    def conic_isometry_check(
        self, x: AttributedGraph, y: AttributedGraph, rho: float
    ) -> ConicIsometryCheck:
        """Distance preservation inside the cone of radius rho <= rho_star.

        When both graphs lie in the cone the aligned distance equals the
        graph distance; outside the cone no claim is made and the caller
        gets the raw numbers.
        """
        if rho > self.rho_star:
            raise ValueError(f"radius {rho} exceeds rho_star {self.rho_star}")
        delta, aligned = self.expansion_check(x, y)
        in_cone = self.cone_contains_graph(x, rho) and self.cone_contains_graph(y, rho)
        return ConicIsometryCheck(delta, aligned, in_cone)

    def correspondence_report(
        self, g: AttributedGraph, tol: float = 1e-9
    ) -> CorrespondenceReport:
        """Residuals for kernel, length, angle, and orthogonality transfer."""
        mu = self.align(g)
        z = self.center_matrix
        kappa = edit_kernel(
            self.center, g, morphisms="all", padding="bound", order=self.n, guard=self.guard
        ).value
        vec_inner = mu.inner(z)
        norm_mu = mu.norm()
        norm_z = z.norm()
        length_graph = to_matrix(g).norm()
        angle_residual = None
        if norm_z > 0.0 and length_graph > 0.0 and norm_mu > 0.0:
            cos_graph = kappa / (norm_z * length_graph)
            cos_vec = vec_inner / (norm_z * norm_mu)
            angle_residual = abs(cos_graph - cos_vec)
        return CorrespondenceReport(
            kernel_residual=abs(kappa - vec_inner),
            length_residual=abs(length_graph - norm_mu),
            angle_residual=angle_residual,
            graph_orthogonal=abs(kappa) <= tol,
            vector_orthogonal=abs(vec_inner) <= tol,
        )
