"""Simultaneous row/column permutations acting on graph matrices.

The symmetric group on n letters acts on order-n graph matrices by permuting
rows and columns together; the action is an isometry of R^(n*n*d).  Orbits of
the action are exactly isomorphism classes of (padded) graphs, and the
quotient distance min over the group of ||x - gamma*y|| is the exact graph
metric everything else in this package is built on.

This module is the one place where permutations are enumerated (the
independent oracles in ``bruteforce`` aside; ``_partial_permutations``
streams the partial ones of ``kernels.subperm_metric``).  ``_blocks`` walks
the group block by block (``iter_permutation_blocks``).  Every score in
this package is a sum over cells, sum over (i, j) of s(x[p_i, p_j], y[i, j]):
Lawler's form of the quadratic assignment problem.  So a scan first
tabulates s for every pair of a source cell of x and a target cell of y, an
(n, n, n*n) cell-pair table with table[a, b, i*n + j] = s(x[a, b], y[i, j]),
and totals each permutation from that table instead of gathering its n*n*d
attribute cells.  ``optimum`` keeps the best total; ``max_inner_over_group``
and ``min_sq_over_group`` rank by the table of inner products and decide in
the reference forms.  Orbits, isotropy groups, kernels, metrics, alignments
and means are all scans of this engine.

The scan is memory-bounded and never materialises the whole group:

* Prefix blocks.  A block holds the m! permutations (m = min(n, 7), so at
  most 7! = 5040) that share one length-(n - m) prefix of images; the
  prefixes are walked in lexicographic order.  Block t is ``sigma[base]``,
  where sigma is the prefix followed by the remaining nodes in increasing
  order and ``base`` is one cached (m!, n) table: the identity on the prefix
  positions, then every permutation of the last m positions.  Only
  ``permutation_array(m)`` with m <= 7 is ever built.
* Folded tables.  Because block t is sigma composed with ``base``, a block
  relabels the table once, ``table[ix_(sigma, sigma)]``, and folds it onto
  its m free positions (``_fold``): the cells among fixed positions add up
  to one constant, a cell between a fixed and a free position joins the
  free diagonal, and cell (i, j) joins cell (j, i).  A row total is then
  the constant plus m(m+1)/2 entries, 28 instead of n*n = 81 at n = 9.
* One index table.  The entries are read through one cached
  (m(m+1)/2, m!) table of offsets, ``_offsets(m)``, which depends neither on
  n beyond m nor on the attribute dimension d (1.1 MB for m = 7).  The rows
  a scan re-scores, ``orbit`` and the witnesses are gathered from the
  block's permutations in the reference form.
* Memory.  A scan holds its table, n**4 * 8 bytes (52 KB at n = 9), and
  per block the read entries, 5040 * 28 * 8 bytes (1.1 MB), and one total
  per row; re-scores gather only the rows they check.
* Exact totals.  Scores with integer values per cell (the delta kernel and
  cost, the uniform cost, the cell-equality count behind ``isotropy_group``)
  total exactly in any order, so their folded totals are the reference
  totals.  A custom cost's values are arbitrary floats, whose sum depends
  on the order of its additions, so its totals add each row's n*n entries
  one at a time, left to right in cell order; that is the order in which
  Python's ``sum`` adds floats up to 3.11 (3.12's ``sum`` compensates).
* Inner products.  When x and y hold integers with
  N (max|x| + max|y|)^2 < 2^53 (N = n*n*d), every sum over their cells is
  exact and the table inner products are the reference values.  Otherwise
  they only rank: rows within a forward-error bound of a block's best are
  re-scored in the reference form (derivation in ``min_sq_over_group``), so
  values and witnesses are those of a reference scan of every row.

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
_BLOCK_ROWS = math.factorial(_FREE)
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


@lru_cache(maxsize=None)
def _offsets(m: int) -> np.ndarray:
    """(m(m+1)/2, m!) offsets into an (m, m, m(m+1)/2) pair table (``_fold``):
    for the u-th cell (i, j), i <= j, of an m x m matrix in C order and the
    r-th permutation t of ``permutation_array(m)``, entry [u, r] is
    (t_i*m + t_j) * m(m+1)/2 + u."""
    perms = permutation_array(m)
    i, j = np.triu_indices(m)
    offsets = ((perms[:, i] * m + perms[:, j]) * len(i) + np.arange(len(i))).T.copy()
    offsets.flags.writeable = False
    return offsets


def _fold(rel: np.ndarray) -> tuple[float, np.ndarray]:
    """(const, pairs) of a block's relabelled (n, n, n*n) cell-pair table.

    Every row of the block fixes its first k = n - m positions and permutes
    the last m.  The total of row t is const plus, over the cells (i, j),
    i <= j, of the m x m free corner, pairs[t_i, t_j, u] with u the cell's
    position among them: const holds the fixed cells, the cells between a
    fixed and a free position are added to the free diagonal, and each cell
    (i, j), i < j, is paired with (j, i).  Each total still adds each of
    its cell scores once.
    """
    n = rel.shape[0]
    m = min(n, _FREE)
    k = n - m
    s = rel.reshape(n, n, n, n)
    free = s[k:, k:, k:, k:]
    const = 0.0
    if k:
        const = np.einsum("ijij->", s[:k, :k, :k, :k])
        free = free.copy()
        a = np.arange(m)
        free[a[:, None], a[:, None], a[None, :], a[None, :]] += np.einsum(
            "ibij->bj", s[:k, k:, :k, k:]
        ) + np.einsum("ajij->ai", s[k:, :k, k:, :k])
    i, j = np.triu_indices(m)
    mirror = free.transpose(1, 0, 3, 2)[:, :, i, j]
    mirror[:, :, i == j] = 0.0
    return const, free[:, :, i, j] + mirror


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


def _partial_permutations(n: int, k: int) -> Iterator[np.ndarray]:
    """The k-permutations of 0..n-1 in lex order, at most 7! rows at a time."""
    perms = itertools.permutations(range(n), k)
    while chunk := list(itertools.islice(perms, _BLOCK_ROWS)):
        yield np.array(chunk, dtype=np.intp).reshape(len(chunk), k)


def gather(cells: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """cells indexed by each permutation p: out[m] = cells[ix_(p, p)].

    Row m equals the matrix of the inverse action of the m-th permutation,
    so {out[m]} ranges over the full orbit of ``cells``.  This is the
    reference form; engine scans total blocks through ``_Block.totals`` and
    gather the rows they re-score through ``_Block.gather``.
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
    """The permutations of one prefix block that a scan scores."""

    sigma: np.ndarray  # the block's relabelling: its first permutation
    perms: np.ndarray  # the permutations scored, one per row, in lex order
    rows: np.ndarray | None  # their rows in the whole block; None for all
    feasible: np.ndarray | None  # positions of the feasible ones in perms; None for all

    def totals(self, table: np.ndarray, in_order: bool = False) -> np.ndarray:
        """Per row p of perms, sum over cells k = (i, j) of table[p_i, p_j, k].

        By default the table is folded (``_fold``) and read through
        ``_offsets``; the sums may then run in any order, which is exact for
        integer-valued tables.  ``in_order`` reads each row's n*n entries
        and adds them one at a time, left to right in cell order, the one
        order that defines a total of arbitrary floats here.
        """
        n = len(self.sigma)
        if in_order:
            p = self.perms
            cell = np.arange(n * n).reshape(n, n)
            entries = table[p[:, :, None], p[:, None, :], cell].reshape(len(p), n * n)
            total = np.zeros(len(p))
            for k in range(n * n):
                total += entries[:, k]
            return total
        const, pairs = _fold(table[np.ix_(self.sigma, self.sigma)])
        offsets = _offsets(min(n, _FREE))
        if self.rows is not None:
            offsets = offsets[:, self.rows]
        return const + pairs.reshape(-1)[offsets].sum(axis=0)

    def gather(self, cells: np.ndarray, which: np.ndarray | None = None) -> np.ndarray:
        """``gather(cells, self.perms[which])`` (of every row of perms by default).

        The same expression as ``gather``, kept private so that per-layer
        traces, which wrap the public functions, count only reference
        gathers and not the rows an engine scan re-scores.
        """
        p = self.perms if which is None else self.perms[which]
        return cells[p[:, :, None], p[:, None, :]]

    def keep(self, values: np.ndarray) -> np.ndarray:
        """The entries of a per-row array that belong to feasible rows."""
        return values if self.feasible is None else values[self.feasible]


def _blocks(
    n: int, feasible: Callable[[np.ndarray], np.ndarray] | None = None
) -> Iterator[_Block]:
    """The one loop over the group: its permutations in lex order, by block.

    ``feasible`` maps a block to a boolean row mask, and blocks with no
    feasible row are skipped.  A block that keeps at most half its rows
    scores only those; one that keeps more scores every row (copying the
    feasible part of the index table would cost more than the rows it
    saves), and consumers pass its per-row results through ``keep``.
    Callers score each block as it comes, so one block's entries are alive
    at a time.
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


def _fixing(x: GraphMatrix, block: _Block, equal: np.ndarray) -> np.ndarray:
    """Row mask of the permutations that fix x: all n*n cells stay equal."""
    return block.totals(equal) == x.n * x.n


def _equal_table(x: GraphMatrix) -> np.ndarray:
    """Cell-pair table of x against itself: 1 where two cells are equal."""
    c = x.cells.reshape(x.n * x.n, x.dim)
    eq = np.all(c[:, None, :] == c[None, :, :], axis=-1)
    return eq.astype(np.float64).reshape(x.n, x.n, x.n * x.n)


def isotropy_group(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> tuple[Permutation, ...]:
    """All permutations fixing x exactly; always contains the identity."""
    check_order_guard(x.n, guard)
    equal = _equal_table(x)
    return tuple(
        _permutation(p) for block in _blocks(x.n) for p in block.perms[_fixing(x, block, equal)]
    )


def is_ordinary(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> bool:
    """True iff only the identity fixes x (trivial isotropy group)."""
    check_order_guard(x.n, guard)
    equal = _equal_table(x)
    return not any(
        block.keep(_fixing(x, block, equal)).any() for block in _blocks(x.n, non_identity)
    )


class Witnessed(NamedTuple):
    """An optimal value together with the permutation attaining it."""

    value: float
    witness: Permutation


def optimum(
    table: np.ndarray,
    maximize: bool = False,
    feasible: Callable[[np.ndarray], np.ndarray] | None = None,
    in_order: bool = False,
) -> Witnessed:
    """Best total over the feasible permutations p, and the first p reaching it.

    ``table`` is an (n, n, n*n) cell-pair table; the total of p is the sum
    over cells k = (i, j) of table[p_i, p_j, k] (see ``_Block.totals`` for
    ``in_order``).  Ties break toward the lexicographically smallest
    permutation.  The witness is None only when no permutation is feasible;
    the value is then -inf when maximizing and inf when minimizing.
    """
    pick = np.argmax if maximize else np.argmin
    best, witness = (-math.inf if maximize else math.inf), None
    for block in _blocks(table.shape[0], feasible):
        vals = block.keep(block.totals(table, in_order))
        i = int(pick(vals))
        if witness is None or (vals[i] > best if maximize else vals[i] < best):
            best, witness = float(vals[i]), _permutation(block.keep(block.perms)[i])
    return Witnessed(best, witness)


def _integral(x: np.ndarray, y: np.ndarray) -> bool:
    """True when x and y hold integers with N (max|x| + max|y|)^2 < 2^53:
    then every sum of products or squared differences of their cells, in
    any order, is exact."""
    s = float(np.abs(x).max(initial=0.0) + np.abs(y).max(initial=0.0))
    if not s < 2.0**27:  # bounds s before squaring; false for inf and nan
        return False
    if not (np.array_equal(x, np.trunc(x)) and np.array_equal(y, np.trunc(y))):
        return False
    return x.size * int(s) ** 2 < 2**53


def _ranked_blocks(
    x: np.ndarray, y: np.ndarray, feasible: Callable[[np.ndarray], np.ndarray] | None
) -> Iterator[tuple[_Block, np.ndarray | None, np.ndarray | None]]:
    """Yield (block, ip, short) for a scan of the inner products <g, y>, g
    running over the rows x[ix_(p, p)].

    ip holds the table inner products of the block's feasible rows.  short
    is None when they are exact (``_integral``).  Otherwise it holds the
    positions in block.perms of the rows a reference form must re-score:
    those within eps of the block's largest ip (see ``min_sq_over_group``),
    or every feasible row, with ip None, when the bound does not apply.
    """
    exact = _integral(x, y)
    r = math.sqrt(np.einsum("ijc,ijc->", x, x)) + math.sqrt(np.einsum("ijc,ijc->", y, y))
    terms = y.size + 3
    eps = 4.0 * terms * 2.0**-53 * r * r + terms * 2.0**-1070
    ranked = exact or math.isfinite(4.0 * r * r)
    if ranked:
        n, d = x.shape[0], x.shape[2]
        pairs = np.einsum("ac,kc->ak", x.reshape(n * n, d), y.reshape(n * n, d))
        table = pairs.reshape(n, n, n * n)
    for block in _blocks(x.shape[0], feasible):
        kept = block.keep(np.arange(len(block.perms)))
        if not ranked:
            yield block, None, kept
            continue
        ip = block.keep(block.totals(table))
        yield block, ip, None if exact else kept[ip >= ip.max() - eps]


def max_inner_over_group(
    x: np.ndarray,
    y: np.ndarray,
    feasible: Callable[[np.ndarray], np.ndarray] | None = None,
) -> Witnessed:
    """max over permutations p of <x[ix_(p,p)], y>, with the first maximizer.

    The dot edit kernel.  Values and witnesses are those of scoring every
    feasible row g in the reference form ``einsum("mijc,ijc->m", g, y)``;
    that form decides among the rows the table ranks near each block's best
    (``_ranked_blocks``; the bound is derived in ``min_sq_over_group``).
    Without a feasible permutation the value is -inf and the witness None.
    """
    best, witness = -math.inf, None
    for block, ip, short in _ranked_blocks(x, y, feasible):
        if short is None:
            vals, perms = ip, block.keep(block.perms)
        else:
            vals = np.einsum("mijc,ijc->m", block.gather(x, short), y)
            perms = block.perms[short]
        i = int(np.argmax(vals))
        if witness is None or vals[i] > best:
            best, witness = float(vals[i]), _permutation(perms[i])
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
    is first ranked by its table inner products <g, y>, and only the rows
    within eps of the block's largest one are re-scored.  With u = 2^-53,
    N = n*n*d cells, gamma_k = k*u / (1 - k*u) and R = ||x|| + ||y||
    (every row has ||g|| = ||x||, and ||g - y||^2 = ||x||^2 + ||y||^2 -
    2<g, y> exactly):

    * a row total adds the N products of its cells once each, through the
      table, the fold and the row sum in some order, so each product
      carries at most N roundings (one for the product, N - 1 additions):
      |fl(<g, y>) - <g, y>| <= gamma_N ||x|| ||y|| <= gamma_N R^2 / 4; the
      reference dot ``einsum`` obeys the same bound;
    * each term of the diff form carries at most N + 2 roundings, so
      |fl(||g - y||^2) - ||g - y||^2| <= gamma_(N+2) R^2.

    If row g scores no worse than the block's top-ranked row h in the diff
    form, then <h, y> - <g, y> <= gamma_(N+2) R^2 and hence
    fl(<h, y>) - fl(<g, y>) <= 1.5 gamma_(N+2) R^2; if g scores no worse
    than h in the reference dot of ``max_inner_over_group``, the gap is at
    most gamma_N R^2.  So
    every row that can be a block's first optimum lies within
    eps = 4 (N + 3) u R^2 of the block's best inner product; the factor 4
    over 1.5 absorbs the rounding of eps itself, of the norms, and of the
    subtraction.  The term (N + 3) 2^-1070 covers products that underflow.
    The bounds assume that no sum overflows, which holds while 4 R^2 is
    finite; beyond that (or with non-finite attributes) every row is
    re-scored.  When ``_integral`` certifies x and y, the inner products
    and ||x||^2 + ||y||^2 - 2<g, y> are exact, equal to the diff form, and
    no row is re-scored.  Re-scoring runs _RESCORE rows at a time, so a
    block of ties gathers no full block.
    """
    sq = float(np.einsum("ijc,ijc->", x, x) + np.einsum("ijc,ijc->", y, y))
    best, witness = math.inf, None
    for block, ip, short in _ranked_blocks(x, y, feasible):
        if short is None:
            i = int(np.argmax(ip))
            value = sq - 2.0 * float(ip[i])
            if witness is None or value < best:
                best, witness = value, _permutation(block.keep(block.perms)[i])
            continue
        for start in range(0, len(short), _RESCORE):
            chunk = short[start : start + _RESCORE]
            diff = block.gather(x, chunk) - y
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
