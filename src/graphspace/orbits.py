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

The scan is memory-bounded and never materialises the whole group:

* Prefix blocks.  A block holds the m! permutations (m = min(n, 7), so at
  most 7! = 5040) that share one length-(n - m) prefix of images; the
  prefixes are walked in lexicographic order.  Block t is ``sigma[base]``,
  where sigma is the prefix followed by the remaining nodes in increasing
  order and ``base`` is one cached (m!, n) table: the identity on the prefix
  positions, then every permutation of the last m positions.  Only
  ``permutation_array(m)`` with m <= 7 is ever built.
* Flat-index gather.  Because block t is sigma composed with ``base``, its
  gathered rows are ``cells[ix_(sigma, sigma)]`` read through one cached
  (m!, n*n*d) table of flat cell offsets of ``base``: the matrix is
  relabelled once per block and then read with a single 1-D fancy index,
  instead of a broadcast (rows, n, n) index.  The rows are bit for bit those
  of the reference ``gather(cells, block)``.
* Memory.  One gathered block takes at most 5040*n*n*d*8 bytes (3.3 MB per
  channel at n = 9), the flat table as much again, whatever the order guard
  admits.
* Shortlist.  ``min_sq_over_group`` ranks a block by the inner products
  <gamma x, y> and re-scores in the reference diff form only the rows within
  a forward-error bound of the block's best (derivation in its docstring),
  so its values and witnesses are those of a diff-form scan of every row.

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

# A block permutes the last _FREE positions: 7! = 5040 rows.
_FREE = 7
# Rows re-scored at once by min_sq_over_group; bounds the extra memory of a
# block whose rows all tie (a unit star, say).
_RESCORE = 512


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


@lru_cache(maxsize=None)
def _base(n: int) -> np.ndarray:
    """(m!, n) positions of every block, m = min(n, 7): the identity on the
    first n - m positions, then each permutation of the last m in lex order."""
    k = max(0, n - _FREE)
    tail = permutation_array(n - k)
    base = np.empty((len(tail), n), dtype=np.intp)
    base[:, :k] = np.arange(k)
    base[:, k:] = tail + k
    base.flags.writeable = False
    return base


@lru_cache(maxsize=4)
def _flat_index(n: int, d: int) -> np.ndarray:
    """(m!, n*n*d) flat offsets: row r reads cells[ix_(b, b)] off a C-ordered
    (n, n, d) matrix, for b the r-th row of ``_base(n)``."""
    base = _base(n)
    cell = base[:, :, None] * n + base[:, None, :]
    flat = (cell[..., None] * d + np.arange(d)).reshape(len(base), n * n * d)
    flat.flags.writeable = False
    return flat


def iter_permutation_blocks(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (offset, block): the permutations of 0..n-1 in lex order, 7! rows
    at a time (all n! at once for n <= 7).

    Block t holds the permutations whose first n - 7 images are the t-th
    such prefix in lex order.  It is ``sigma[_base(n)]`` with sigma the
    prefix followed by the remaining nodes in increasing order, so its first
    row is sigma.
    """
    base = _base(n)
    k = max(0, n - _FREE)
    for t, prefix in enumerate(itertools.permutations(range(n), k)):
        rest = sorted(set(range(n)).difference(prefix))
        sigma = np.array(prefix + tuple(rest), dtype=np.intp)
        yield t * len(base), sigma[base]


def gather(cells: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """cells indexed by each permutation p: out[m] = cells[ix_(p, p)].

    Row m equals the matrix of the inverse action of the m-th permutation,
    so {out[m]} ranges over the full orbit of ``cells``.  This is the
    reference form; engine scans read whole blocks through ``_Block.gather``.
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


class _Block(NamedTuple):
    """The permutations of one prefix block that a scan gathers."""

    sigma: np.ndarray  # the block's relabelling: its first permutation
    perms: np.ndarray  # the permutations gathered, one per row, in lex order
    rows: np.ndarray | None  # their rows in the whole block; None for all
    feasible: np.ndarray | None  # positions of the feasible ones in perms; None for all

    def gather(self, cells: np.ndarray) -> np.ndarray:
        """``gather(cells, self.perms)``, bit for bit, via the flat table."""
        n, d = cells.shape[0], cells.shape[2]
        flat = _flat_index(n, d)
        if self.rows is not None:
            flat = flat[self.rows]
        src = cells[np.ix_(self.sigma, self.sigma)].reshape(-1)
        return src[flat].reshape(len(flat), n, n, d)

    def keep(self, values: np.ndarray) -> np.ndarray:
        """The entries of a per-row array that belong to feasible rows."""
        return values if self.feasible is None else values[self.feasible]


def _blocks(
    n: int, feasible: Callable[[np.ndarray], np.ndarray] | None = None
) -> Iterator[_Block]:
    """The one loop over the group: its permutations in lex order, by block.

    ``feasible`` maps a block to a boolean row mask, and blocks with no
    feasible row are skipped.  A block that keeps at most half its rows
    gathers only those; one that keeps more gathers every row (copying the
    feasible part of the index table would cost more than the rows it
    saves), and consumers pass its per-row results through ``keep``.
    Callers gather each block while they score it, so one gathered block is
    alive at a time.
    """
    for _, block in iter_permutation_blocks(n):
        rows = None if feasible is None else np.flatnonzero(feasible(block))
        if rows is None or len(rows) == len(block):
            yield _Block(block[0], block, None, None)
        elif 2 * len(rows) > len(block):
            yield _Block(block[0], block, None, rows)
        elif len(rows):
            yield _Block(block[0], block[rows], rows, None)


def non_identity(block: np.ndarray) -> np.ndarray:
    """Row mask of the permutations other than the identity."""
    return np.any(block != np.arange(block.shape[1]), axis=1)


def orbit(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> Orbit:
    """Enumerate the orbit of x with exact (bitwise) deduplication."""
    check_order_guard(x.n, guard)
    seen: dict[bytes, None] = {}
    elements: list[GraphMatrix] = []
    for block in _blocks(x.n):
        for row in block.gather(x.cells):
            key = row.tobytes()
            if key not in seen:
                seen[key] = None
                elements.append(GraphMatrix(row))
    return Orbit(tuple(elements))


def _permutation(row: np.ndarray) -> Permutation:
    return Permutation(tuple(int(v) for v in row))


def _fixing(x: GraphMatrix, block: _Block) -> np.ndarray:
    return np.all(block.gather(x.cells) == x.cells, axis=(1, 2, 3))


def isotropy_group(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> tuple[Permutation, ...]:
    """All permutations fixing x exactly; always contains the identity."""
    check_order_guard(x.n, guard)
    return tuple(
        _permutation(p) for block in _blocks(x.n) for p in block.perms[_fixing(x, block)]
    )


def is_ordinary(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> bool:
    """True iff only the identity fixes x (trivial isotropy group)."""
    check_order_guard(x.n, guard)
    return not any(block.keep(_fixing(x, block)).any() for block in _blocks(x.n, non_identity))


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
    row.  It may also see the infeasible rows of a mostly feasible block;
    their values are ignored.  Ties break toward the lexicographically
    smallest permutation.  The witness is None only when no permutation is
    feasible; the value is then -inf when maximizing and inf when minimizing.
    """
    pick = np.argmax if maximize else np.argmin
    best, witness = (-math.inf if maximize else math.inf), None
    for block in _blocks(cells.shape[0], feasible):
        vals = block.keep(score(block.gather(cells)))
        i = int(pick(vals))
        if witness is None or (vals[i] > best if maximize else vals[i] < best):
            best, witness = float(vals[i]), _permutation(block.keep(block.perms)[i])
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

    Values and witnesses are those of scoring every feasible row g in the
    diff form fl(sum (g - y)^2); that form alone is evaluated on the rows
    that can win, which keeps exact zeros for isomorphic pairs.  Each block
    is first ranked by the inner products fl(<g, y>), and only the rows
    within eps of the block's largest one are re-scored.  With u = 2^-53,
    N = n*n*d cells, gamma_k = k*u / (1 - k*u) and R = ||x|| + ||y||
    (every row has ||g|| = ||x||, and ||g - y||^2 = ||x||^2 + ||y||^2 -
    2<g, y> exactly):

    * any summation order gives |fl(<g, y>) - <g, y>| <= gamma_N ||x|| ||y||
      <= gamma_N R^2 / 4;
    * each term of the diff form carries at most N + 2 roundings, so
      |fl(||g - y||^2) - ||g - y||^2| <= gamma_(N+2) R^2.

    If row g scores no worse than the block's top-ranked row h in the diff
    form, then <h, y> - <g, y> <= gamma_(N+2) R^2 and hence
    fl(<h, y>) - fl(<g, y>) <= 1.5 gamma_(N+2) R^2.  So every row that
    can be a block's first diff-form minimum lies within
    eps = 4 (N + 3) u R^2 of the block's best inner product; the factor 4
    over 1.5 absorbs the rounding of eps itself, of the norms, and of the
    subtraction.  The term (N + 3) 2^-1070 covers products that underflow.
    The bounds assume that no sum overflows, which holds while 4 R^2 is
    finite; beyond that (or with non-finite attributes) every row is
    re-scored.  Re-scoring runs _RESCORE rows at a time, so a block of ties
    allocates no second full block.
    """
    r = math.sqrt(np.einsum("ijc,ijc->", x, x)) + math.sqrt(np.einsum("ijc,ijc->", y, y))
    terms = y.size + 3
    eps = 4.0 * terms * 2.0**-53 * r * r + terms * 2.0**-1070
    shortlist = math.isfinite(4.0 * r * r)
    best, witness = math.inf, None
    for block in _blocks(x.shape[0], feasible):
        g = block.gather(x)
        short = block.keep(np.arange(len(g)))
        if shortlist:
            ip = block.keep(np.einsum("mijc,ijc->m", g, y))
            short = short[ip >= ip.max() - eps]
        for start in range(0, len(short), _RESCORE):
            chunk = short[start : start + _RESCORE]
            diff = g[chunk] - y
            vals = np.einsum("mijc,mijc->m", diff, diff)
            i = int(np.argmin(vals))
            if witness is None or vals[i] < best:
                best, witness = float(vals[i]), _permutation(block.perms[chunk[i]])
    return Witnessed(best, witness)


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
