"""Simultaneous row/column permutations acting on graph matrices.

The symmetric group on n letters acts on order-n graph matrices by permuting
rows and columns together; the action is an isometry of R^(n*n*d).  Orbits of
the action are exactly isomorphism classes of (padded) graphs, and the
quotient distance min over the group of ||x - gamma*y|| is the exact graph
metric everything else in this package is built on.

This module is the one place where permutations are enumerated (the
independent oracles in ``bruteforce`` and the partial permutations of
``kernels.subperm_metric`` aside).  ``_blocks`` walks the group block by
block (``iter_permutation_blocks``); ``optimum`` gathers each block of the
orbit of x, scores it with the caller's per-block function and keeps the
best row.  Orbits, isotropy groups, kernels, metrics, alignments and means
are all scans of this engine with their own scoring function.

Permutations are enumerated in lexicographic order of their image sequences,
and every "return one minimizer/maximizer" contract below breaks ties toward
the lexicographically smallest permutation, which makes all results
deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .graphs import GraphMatrix

__all__ = [
    "OrderGuardError",
    "DEFAULT_ORDER_GUARD",
    "Permutation",
    "Orbit",
    "Witnessed",
    "permutation_array",
    "apply_action",
    "orbit",
    "isotropy_group",
    "is_ordinary",
    "quotient_distance",
]

DEFAULT_ORDER_GUARD = 9

# Permutations are processed in blocks to bound the memory of the gathered
# (block, n, n, d) arrays near the guard.
_CHUNK = 40320


class OrderGuardError(RuntimeError):
    """Operation would enumerate n! permutations beyond the configured guard."""


def check_order_guard(n: int, guard: int = DEFAULT_ORDER_GUARD) -> None:
    if n > guard:
        raise OrderGuardError(
            f"order {n} exceeds the permutation-enumeration guard {guard}"
        )


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0, ..., n-1}; images[i] is where index i is sent."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))


@lru_cache(maxsize=None)
def permutation_array(n: int) -> np.ndarray:
    """All permutations of 0..n-1, one per row, in lexicographic order."""
    arr = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    if n == 0:
        arr = arr.reshape(1, 0)
    arr.flags.writeable = False
    return arr


def iter_permutation_blocks(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, block) slices of permutation_array(n)."""
    perms = permutation_array(n)
    for start in range(0, len(perms), _CHUNK):
        yield start, perms[start : start + _CHUNK]


def gather(cells: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """cells indexed by each permutation p: out[m] = cells[ix_(p, p)].

    Row m equals the matrix of the inverse action of the m-th permutation,
    so {out[m]} ranges over the full orbit of ``cells``.
    """
    return cells[perms[:, :, None], perms[:, None, :]]


def apply_action(perm: Permutation, x: GraphMatrix) -> GraphMatrix:
    """Permute rows and columns simultaneously: out[p(i), p(j)] = x[i, j]."""
    if perm.n != x.n:
        raise ValueError(f"size mismatch: permutation {perm.n}, matrix {x.n}")
    p = np.asarray(perm.images, dtype=np.intp)
    out = np.empty_like(x.cells)
    out[p[:, None], p[None, :]] = x.cells
    return GraphMatrix(out)


@dataclass(frozen=True)
class Orbit:
    """The distinct matrices {gamma x} for gamma in the full permutation group."""

    elements: tuple[GraphMatrix, ...]

    @property
    def size(self) -> int:
        return len(self.elements)

    def contains(self, x: GraphMatrix) -> bool:
        key = x.to_bytes()
        return any(e.cells.shape == x.cells.shape and e.to_bytes() == key
                   for e in self.elements)


def _blocks(
    n: int, feasible: Callable[[np.ndarray], np.ndarray] | None = None
) -> Iterator[np.ndarray]:
    """The one loop over the group: its permutations in lex order, by block.

    ``feasible`` maps a block to a boolean row mask; rows failing it are
    dropped, and blocks left empty are skipped.  Callers gather each block
    while they score it, so one gathered block is alive at a time.
    """
    for _, block in iter_permutation_blocks(n):
        if feasible is not None:
            block = block[feasible(block)]
        if len(block):
            yield block


def non_identity(block: np.ndarray) -> np.ndarray:
    """Row mask of the permutations other than the identity."""
    return np.any(block != np.arange(block.shape[1]), axis=1)


def orbit(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> Orbit:
    """Enumerate the orbit of x with exact (bitwise) deduplication."""
    check_order_guard(x.n, guard)
    seen: dict[bytes, None] = {}
    elements: list[GraphMatrix] = []
    for block in _blocks(x.n):
        for row in gather(x.cells, block):
            key = row.tobytes()
            if key not in seen:
                seen[key] = None
                elements.append(GraphMatrix(row))
    return Orbit(tuple(elements))


def _fixing(x: GraphMatrix, block: np.ndarray) -> np.ndarray:
    return np.all(gather(x.cells, block) == x.cells, axis=(1, 2, 3))


def isotropy_group(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> tuple[Permutation, ...]:
    """All permutations fixing x exactly; always contains the identity."""
    check_order_guard(x.n, guard)
    return tuple(
        Permutation(tuple(int(v) for v in p))
        for block in _blocks(x.n)
        for p in block[_fixing(x, block)]
    )


def is_ordinary(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> bool:
    """True iff only the identity fixes x (trivial isotropy group)."""
    check_order_guard(x.n, guard)
    return not any(_fixing(x, block).any() for block in _blocks(x.n, non_identity))


class Witnessed(NamedTuple):
    """An optimal value together with the permutation attaining it."""

    value: float
    witness: Permutation


def optimum(
    cells: np.ndarray,
    score: Callable[[np.ndarray], np.ndarray],
    maximize: bool = False,
    feasible: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Witnessed:
    """Best score over the feasible permutations p, and the first p reaching it.

    ``score`` maps a gathered block (rows cells[ix_(p, p)]) to one value per
    row.  Ties break toward the lexicographically smallest permutation.  The
    witness is None only when no permutation is feasible; the value is then
    -inf when maximizing and inf when minimizing.
    """
    pick = np.argmax if maximize else np.argmin
    best, witness = (-math.inf if maximize else math.inf), None
    for block in _blocks(cells.shape[0], feasible):
        vals = score(gather(cells, block))
        i = int(pick(vals))
        if witness is None or (vals[i] > best if maximize else vals[i] < best):
            best, witness = float(vals[i]), Permutation(tuple(int(v) for v in block[i]))
    return Witnessed(best, witness)


def min_sq_over_group(
    x: np.ndarray,
    y: np.ndarray,
    feasible: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Witnessed:
    """min over permutations p of ||x[ix_(p,p)] - y||^2, with the first minimizer.

    Equals min over gamma of ||x - gamma y||^2 where gamma has images p; the
    one implementation of the quotient metric.  ``feasible`` restricts p as
    in ``optimum``.
    """

    def score(stack: np.ndarray) -> np.ndarray:
        diff = stack - y
        return np.einsum("mijc,mijc->m", diff, diff)

    return optimum(x, score, feasible=feasible)


def quotient_distance(
    x: GraphMatrix, y: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD
) -> Witnessed:
    """Exact quotient metric min over gamma of ||x - gamma y||.

    Returns the distance and the lexicographically smallest minimizing
    permutation gamma (so that apply_action(gamma, y) is the element of y's
    orbit nearest to x).
    """
    if x.n != y.n or x.dim != y.dim:
        raise ValueError(
            f"shape mismatch: ({x.n}, d={x.dim}) vs ({y.n}, d={y.dim})"
        )
    check_order_guard(x.n, guard)
    best_sq, witness = min_sq_over_group(x.cells, y.cells)
    return Witnessed(math.sqrt(max(best_sq, 0.0)), witness)
