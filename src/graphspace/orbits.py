"""Simultaneous row/column permutations acting on graph matrices.

The symmetric group on n letters acts on order-n graph matrices by permuting
rows and columns together; the action is an isometry of R^(n*n*d).  Orbits of
the action are exactly isomorphism classes of (padded) graphs, and the
quotient distance min over the group of ||x - gamma*y|| is the exact graph
metric everything else in this package is built on.

This module is the one place where permutations are enumerated (the
independent oracles in ``bruteforce`` aside): ``_chunks`` walks the group a
few blocks at a time (``iter_permutation_blocks``).  Every score
in this package is a sum over cells, sum over (i, j) of
s(x[p_i, p_j], y[i, j]): Lawler's form of the quadratic assignment problem.
So a scan first tabulates s for every pair of a source cell of x and a
target cell of y, an (n, n, n*n) cell-pair table with
table[a, b, i*n + j] = s(x[a, b], y[i, j]), and totals each permutation from
that table instead of gathering its n*n*d attribute cells.  Every optimum
(``optimum``, ``max_inner_over_group``, ``min_sq_over_group``) is one walk,
``_pass``, which keeps the first best total where totals are exact and
otherwise ranks by them and decides in a reference form.  Orbits, isotropy
groups, kernels, metrics, alignments and means are all scans of this engine.

The scan is memory-bounded and never materialises the whole group:

* Prefix blocks.  A block holds the m! permutations (m = min(n, 7), so at
  most 7! = 5040) that share one length-(n - m) prefix of images; the
  prefixes are walked in lexicographic order.  Block t is ``sigma[base]``,
  where sigma is the prefix followed by the remaining nodes in increasing
  order and ``base`` is one cached (m!, n) table: the identity on the prefix
  positions, then every permutation of the last m positions.  Only
  ``permutation_array(m)`` with m <= 7 is ever built.
* Chunks.  ``iter_permutation_blocks`` yields the sigmas of up to _CHUNK
  consecutive blocks (24: a third of the 72 blocks at n = 9), streamed from
  the prefixes, and a scan handles a chunk in a few vectorised passes
  instead of one Python round per block.  Block rows ``sigma[base]``
  are built only for the rows that a re-score, ``orbit``, ``isotropy_group``
  or a witness needs.
* Partners.  One x scanned against many partners (the rounds and the start
  of ``geometry.sample_mean``) stacks the partners' tables, and one walk of
  the group totals them all: each (partner, block) pair is a column of the
  chunk's totals, and a walk takes as many partners as fill _CHUNK columns
  (24 at n <= 7, 3 at n = 8, 1 at n = 9).  Each partner keeps its own
  certificate, scale, eps, shortlist and witness (``_inner_scan``), so its
  value and witness are those of a scan of its pair alone.
* Folded tables.  Because block t is sigma composed with ``base``, a chunk
  relabels the table by all its sigmas at once,
  ``table[sigmas[:, :, None], sigmas[:, None, :]]``, and folds each copy
  onto its m free positions (``_fold``, through the cached indices of
  ``_fold_index``): the cells among fixed positions add up to one constant
  per block, a cell between a fixed and a free position joins the free
  diagonal, and cell (i, j) joins cell (j, i).  A row total is then the
  constant plus m(m+1)/2 entries, 28 instead of n*n = 81 at n = 9.
* Prefix-tree totals.  A row's entries are summed over the lex prefix
  tree of its m free positions (``_tree(m)``): a node's total is its
  parent's plus the entries of the cells that its new positions close, a
  cell (i, j), i <= j, closing at position j.  For m = 7 the levels end at
  the prefix lengths 4, 5 and 7, so a block reads 840 * 10 + 2520 * 5 +
  5040 * 13 = 86,520 entries instead of 5040 * 28 = 141,120; below, one
  level reads every cell of every row.  The offsets depend neither on n
  beyond m nor on the attribute dimension d.  A chunk of one column (a
  single scan at n <= 7) reads each level in one index; one of several
  lays its folded entries out as an (m*m*m(m+1)/2, columns) matrix, one
  column per (partner, block), and one row of offsets reads that entry
  for every node of every column at once.
* Memory.  A scan holds its tables, n**4 * 8 bytes per partner (52 KB at
  n = 9), and their signed copies, per chunk the relabelled tables of its
  columns (1.3 MB for 24 at n = 9), and the rows it re-scores in parts of
  _RESCORE_CELLS cells (324 KiB in float64) whatever d, or of two rows
  where a row holds more.  A chunk of several columns totals into
  buffers of its thread, which every later chunk and scan on that thread
  reuses (``_reused``), so the totals allocate nothing once the thread has
  totalled a chunk as large: the entries by offset, two levels of node
  totals and the entries read (which then hold the totals in lex order),
  at most (1372 + 5040 + 2520 + 5040) * 24 * 8 bytes, 2.6 MiB, since no
  chunk has more than _CHUNK columns.  A float64 scan at n = 9 peaks at 4.6 MiB with them, about
  5 MB at any order.  Totals are taken in the table's dtype; a float32
  table halves the relabelled tables and the totals.  Reading the entries
  is most of a scan's time, and its pace is set by the number of
  per-index copies, not by bytes: int16 and int32 totals of an integer
  table were no faster than float32 ones, so wider columns (more of them
  per chunk) are what makes a read cheaper per entry.
* Exact totals.  Scores with integer values per cell (the delta kernel and
  cost, the uniform cost, the cell-equality count behind ``isotropy_group``)
  are 0, 1 or 2, so a total is at most 2 n*n (162 at n = 9) and every
  partial sum, in any order, is an integer that float32's 24-bit
  significand holds exactly.  ``_Chunk.totals`` therefore totals boolean
  and integer tables in float32, and their folded totals are the reference
  totals.  A custom cost's float sums depend on the order of their
  additions, so its tree totals only rank, and cell order decides
  (``optimum``).
* Inner products.  When x and y hold integers with
  N (max|x| + max|y|)^2 < 2^24 (N = n*n*d), every sum over their cells is
  exact in float32 and the table inner products are the reference values,
  so the scan keeps that table's first best total, as ``optimum`` does an
  integer table's, and the metric is ||x||^2 + ||y||^2 - 2 times its
  value.  Otherwise they only rank: rows within a forward-error bound of a
  chunk's best are re-scored in the reference form (derivation in
  ``min_sq_over_group``), so values and witnesses are those of a reference
  scan of every row.  The table is built from x and y scaled by the power
  of two that takes their largest |cell| into [1/2, 1): the scaling is
  exact but for cells it makes subnormal, commutes with every permutation
  and leaves the ranking as it is, so the totals rank in float32 at every
  scale.  Only calls with N + 3 >= 2^20 total in float64, where float32's
  bound grows too loose.

Permutations are enumerated in lexicographic order of their image sequences,
and every "return one minimizer/maximizer" contract below breaks ties toward
the lexicographically smallest permutation, which makes all results
deterministic.
"""

from __future__ import annotations

import itertools
import math
import threading
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
# Blocks totalled in one pass; bounds a scan's working memory at any order.
_CHUNK = 24
# Cells gathered at once when rows are re-scored in a reference form (512
# rows at n = 9, d = 1); bounds the extra memory of a chunk whose rows all
# tie (a unit star, say) whatever the attribute dimension.  Parts twice as
# large re-scored ties about 1.5 times slower per row.
_RESCORE_CELLS = 512 * 81


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
    arr = np.zeros((1, 0), dtype=np.intp)
    for k in range(1, n + 1):
        # the rows that start with v follow v with the rows of 0..k-2, every
        # image from v on raised by one
        first = np.arange(k)[:, None, None]
        grown = np.empty((k, len(arr), k), dtype=np.intp)
        grown[:, :, 0] = first[:, :, 0]
        grown[:, :, 1:] = arr + (arr >= first)
        arr = grown.reshape(-1, k)
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
def _tree(m: int) -> tuple[np.ndarray, ...]:
    """Offsets into an (m, m, m(m+1)/2) pair table (``_fold``), one
    (cells, nodes) table per level of the lex prefix tree of m positions.
    The levels end at the prefix lengths m - 3, m - 2 and m for m = 7, and
    at m alone below.  A level's nodes are the prefixes t of its length in
    lex order (a node's children are consecutive in the next level), its
    cells the (i, j), i <= j, whose j it adds, and its entry for the u-th
    cell of the m x m matrix in C order and node t is
    (t_i*m + t_j) * m(m+1)/2 + u."""
    perms = permutation_array(m)
    i, j = np.triu_indices(m)
    levels, lo = [], 0
    for hi in (m - 3, m - 2, m) if m == _FREE else (m,):
        u = np.flatnonzero((lo <= j) & (j < hi))
        nodes = perms[:: math.factorial(m - hi), :hi]
        level = ((nodes[:, i[u]] * m + nodes[:, j[u]]) * len(i) + u).T.copy()
        level.flags.writeable = False
        levels.append(level)
        lo = hi
    return tuple(levels)


@lru_cache(maxsize=None)
def _fold_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(direct, mirror, diagonal, corner) flat indices for ``_fold`` at order n.

    With m = min(n, 7), k = n - m and the cells (i, j), i <= j, of an m x m
    matrix numbered u in C order, entry (a, b, u) of the (m, m, m(m+1)/2)
    pair layout reads cell (k+a, k+b, k+i, k+j) of an (n, n, n, n) table
    (direct) and its mirror (k+b, k+a, k+j, k+i) (mirror); diagonal holds
    the entries with i == j, whose mirror is the cell itself, and corner[a,
    b] the entry (a, a, u) of the diagonal cell (b, b).
    """
    m = min(n, _FREE)
    k = n - m
    i, j = np.triu_indices(m)
    a = np.arange(k, n)[:, None, None]
    b = np.arange(k, n)[None, :, None]
    direct = ((a * n + b) * n + i + k) * n + j + k
    mirror = ((b * n + a) * n + j + k) * n + i + k
    pairs = len(i)
    diagonal = np.flatnonzero(np.broadcast_to(i == j, direct.shape))
    r = np.arange(m)
    corner = (r * m + r)[:, None] * pairs + np.flatnonzero(i == j)[None, :]
    index = (direct.reshape(-1), mirror.reshape(-1), diagonal, corner.reshape(-1))
    for v in index:
        v.flags.writeable = False
    return index


def _fold(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(const, pairs) of c blocks' relabelled (c, n, n, n*n) cell-pair tables.

    Every row of a block fixes its first k = n - m positions and permutes
    the last m.  The total of row t of block b is const[b] plus, over the
    cells (i, j), i <= j, of the m x m free corner, pairs[b, (t_i*m + t_j)
    * m(m+1)/2 + u] with u the cell's position among them: const holds the
    fixed cells, the cells between a fixed and a free position are added
    to the free diagonal, and each cell (i, j), i < j, is paired with
    (j, i).  Each total still adds each of its cell scores once.
    """
    c, n = rel.shape[0], rel.shape[1]
    k = n - min(n, _FREE)
    direct, mirror, diagonal, corner = _fold_index(n)
    flat = rel.reshape(c, -1)
    other = flat[:, mirror]
    other[:, diagonal] = 0.0
    pairs = flat[:, direct] + other
    const = np.zeros(c, dtype=rel.dtype)
    if k:
        s = rel.reshape(c, n, n, n, n)
        const = np.einsum("cijij->c", s[:, :k, :k, :k, :k])
        pairs[:, corner] += (
            np.einsum("cibij->cbj", s[:, :k, k:, :k, k:])
            + np.einsum("cajij->cai", s[:, k:, :k, k:, :k])
        ).reshape(c, -1)
    return const, pairs


def iter_permutation_blocks(n: int) -> Iterator[np.ndarray]:
    """Yield sigmas: the permutations of 0..n-1 in lex order, as chunks of
    up to _CHUNK consecutive blocks of 7! rows (one block of all n! for
    n <= 7).

    Block b of a chunk holds the permutations whose first n - 7 images are
    one prefix; it is ``sigmas[b][_base(n)]``, with sigmas[b] the prefix
    followed by the remaining nodes in increasing order, so its first row
    is sigmas[b].
    """
    prefixes = itertools.permutations(range(n), max(0, n - _FREE))
    nodes = set(range(n))
    while chunk := list(itertools.islice(prefixes, _CHUNK)):
        rows = [p + tuple(sorted(nodes.difference(p))) for p in chunk]
        yield np.array(rows, dtype=np.intp).reshape(len(rows), n)


def gather(cells: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """cells indexed by each permutation p: out[m] = cells[ix_(p, p)].

    Row m equals the matrix of the inverse action of the m-th permutation,
    so {out[m]} ranges over the full orbit of ``cells``.  This is the
    reference form; engine scans total chunks of blocks through
    ``_Chunk.totals`` and gather the rows they re-score through
    ``_Chunk.gather``.
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


_buffers = threading.local()


def _reused(name: str, rows: int, cols: int, dtype: np.dtype) -> np.ndarray:
    """A (rows, cols) array in this thread's buffer ``name``, which every
    later call on the thread reuses (grown when too small), so a scan's
    chunks allocate no totals of their own."""
    nbytes = rows * cols * np.dtype(dtype).itemsize
    buf = getattr(_buffers, name, None)
    if buf is None or buf.size < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_buffers, name, buf)
    return buf[:nbytes].view(dtype).reshape(rows, cols)


class _Chunk(NamedTuple):
    """Consecutive prefix blocks of one scan, and the rows it scores.

    Row r of block b is ``sigmas[b][_base(n)[r]]``, at position b * m! + r
    of the chunk; positions run in lex order.  A scan scores the rows from
    position ``start`` on, numbered 0, 1, ... in lex order.
    """

    sigmas: np.ndarray  # (blocks, n): each block's relabelling, its first row
    start: int  # 1 where the scan skips the identity, its first row, else 0

    @property
    def count(self) -> int:
        """The number of rows scored."""
        return len(self.sigmas) * len(_base(self.sigmas.shape[1])) - self.start

    def perms(self, which: np.ndarray) -> np.ndarray:
        """The permutations of the rows numbered ``which``, one per row."""
        base = _base(self.sigmas.shape[1])
        b, r = np.divmod(which + self.start, len(base))
        return self.sigmas[b[:, None], base[r]]

    def permutation(self, i: int) -> Permutation:
        """The permutation of row i, as ``perms`` gives it."""
        base = _base(self.sigmas.shape[1])
        b, r = divmod(i + self.start, len(base))
        return _permutation(self.sigmas[b, base[r]])

    def totals(self, table: np.ndarray) -> np.ndarray:
        """Per row p scored, sum over cells k = (i, j) of table[p_i, p_j, k],
        in the table's dtype, or in float32 for a boolean or integer table
        of scores (exact: see "Exact totals" in the module docstring).

        ``table`` is one (n, n, n*n) cell-pair table, or a (P, n, n, n*n)
        stack of the tables of P partners, totalled together; the result is
        (count,) or (P, count).  Each table is relabelled by every block at
        once and folded (``_fold``), and a row's total is its block's
        constant plus its m(m+1)/2 pair entries, added level by level over
        the lex prefix tree (``_tree``): the fold and the tree regroup the
        cell scores, which is exact for integer-valued tables and within the
        shortlist bounds of ``min_sq_over_group`` and ``optimum`` for any
        other.  With several (partner, block) columns, the result is a view
        of a buffer of this thread, valid until the next ``totals`` call on
        it; read it (or copy it) at once.
        """
        if table.dtype.kind in "biu":
            table = table.astype(np.float32)
        sig = self.sigmas
        n = sig.shape[1]
        lead = table.shape[:-3]
        tables = table.reshape(math.prod(lead), n, n, n * n)
        # every table relabelled by every sigma: (partners, blocks, n, n, n*n)
        cells = sig[:, :, None] * n + sig[:, None, :]
        rel = np.take(tables.reshape(len(tables), n * n, n * n), cells, axis=1)
        const, pairs = _fold(rel.reshape(len(tables) * len(sig), n, n, n * n))
        tree = _tree(min(n, _FREE))
        if len(pairs) == 1:
            flat, total = pairs.reshape(-1), const
            for level in tree:
                sums = flat[level].sum(axis=0).reshape(len(total), -1)
                total = (sums + total[:, None]).reshape(-1)
            return total.reshape(lead + (-1,))[..., self.start :]
        c, dtype = len(pairs), pairs.dtype
        # one row of entries per pair offset, one column per (partner, block)
        by_offset = _reused("offsets", pairs.shape[1], c, dtype)
        np.copyto(by_offset, pairs.T)
        total = const[None, :]  # the root's: one node, one column per copy
        for t, level in enumerate(tree):
            # levels alternate between two buffers: the parents' stay intact
            node = _reused(f"level{t % 2}", level.shape[1], c, dtype)
            entries = _reused("entries", level.shape[1], c, dtype)
            np.take(by_offset, level[0], axis=0, out=node, mode="clip")
            for u in level[1:]:
                node += np.take(by_offset, u, axis=0, out=entries, mode="clip")
            children = node.reshape(len(total), -1, c)
            children += total[:, None, :]
            total = node
        out = _reused("entries", c, len(total), dtype)
        np.copyto(out, total.T)  # lex order per partner, in the spare buffer
        return out.reshape(lead + (-1,))[..., self.start :]

    def gather(self, cells: np.ndarray, which: np.ndarray) -> np.ndarray:
        """``gather(cells, self.perms(which))``.

        The same expression as ``gather``, kept private so that per-layer
        traces, which wrap the public functions, count only reference
        gathers and not the rows an engine scan re-scores.
        """
        p = self.perms(which)
        return cells[p[:, :, None], p[:, None, :]]


def _chunks(n: int, skip_identity: bool = False) -> Iterator[_Chunk]:
    """The one loop over the group: its permutations in lex order, by chunk,
    from the second (the identity is the first) if ``skip_identity``.
    Callers score each chunk as it comes, so one chunk's entries are alive
    at a time."""
    for t, sigmas in enumerate(iter_permutation_blocks(n)):
        chunk = _Chunk(sigmas, int(skip_identity and t == 0))
        if chunk.count:
            yield chunk


def orbit(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> Orbit:
    """Enumerate the orbit of x with exact (bitwise) deduplication."""
    check_order_guard(x.n, guard)
    seen: dict[bytes, None] = {}
    elements: list[GraphMatrix] = []
    for chunk in _chunks(x.n):
        rows = np.arange(chunk.count)
        for block in np.split(rows, range(_BLOCK_ROWS, chunk.count, _BLOCK_ROWS)):
            for row in chunk.gather(x.cells, block):
                key = row.tobytes()
                if key not in seen:
                    seen[key] = None
                    elements.append(GraphMatrix(row))
    return Orbit(tuple(elements))


def _permutation(row: np.ndarray) -> Permutation:
    return Permutation(tuple(row.tolist()))


def _equal_table(x: GraphMatrix) -> np.ndarray:
    """Cell-pair table of x against itself: True where two cells are equal."""
    c = x.cells.reshape(x.n * x.n, x.dim)
    eq = np.all(c[:, None, :] == c[None, :, :], axis=-1)
    return eq.reshape(x.n, x.n, x.n * x.n)


def isotropy_group(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> tuple[Permutation, ...]:
    """All permutations fixing x exactly; always contains the identity."""
    check_order_guard(x.n, guard)
    equal = _equal_table(x)  # p fixes x when all n*n cells stay equal
    return tuple(
        _permutation(p)
        for chunk in _chunks(x.n)
        for p in chunk.perms(np.flatnonzero(chunk.totals(equal) == x.n * x.n))
    )


def is_ordinary(x: GraphMatrix, guard: int = DEFAULT_ORDER_GUARD) -> bool:
    """True iff only the identity fixes x (trivial isotropy group): every
    other permutation leaves fewer than n*n cells equal.  With no other
    permutation (n <= 1) the best count is -inf."""
    check_order_guard(x.n, guard)
    best = optimum(_equal_table(x), maximize=True, skip_identity=True).value
    return best < x.n * x.n


class Witnessed(NamedTuple):
    """An optimal value together with the permutation attaining it."""

    value: float
    witness: Permutation


def optimum(table: np.ndarray, maximize: bool = False, skip_identity: bool = False) -> Witnessed:
    """Best total over the permutations p, and the first p reaching it.

    ``table`` is an (n, n, n*n) cell-pair table; the total of p is the sum
    over cells k = (i, j) of table[p_i, p_j, k]; the value is a Python
    float.  The rows are every p, less the identity if ``skip_identity``.
    Ties break toward the lexicographically smallest permutation.  The
    witness is None only when no row is left (``skip_identity`` at n <= 1),
    with the value -inf when maximizing and inf when minimizing.

    The table's dtype decides how (``_pass``).  Boolean and integer totals
    are exact ("Exact totals" in the module docstring): the first best
    decides.  A float table (a custom cost) totals p as its n*n entries
    added one at a time from 0.0, left to right in cell order
    (``_cell_order``; the order of Python's ``sum`` up to 3.11); the tree's
    totals rank, and each chunk's rows within eps of its best are re-scored
    in cell order.  With u = 2^-53, N = n*n and M the largest finite
    |entry|, a summation tree errs by at most u times the sum of its partial
    sums (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., (4.3)), which over N terms hold at most (N^2 + N - 2) / 2 terms in
    all.  So the tree's and cell order's totals of a row are each within
    gamma_(N+1) N M / 2 of its exact total, gamma_k = k u / (1 - k u), and a
    row no worse in cell order than the chunk's top-ranked row totals at
    most 2 gamma_(N+1) N M below it in the tree.  The threshold
    fl(fl(max) - fl(eps)) adds at most u (N M (1 + gamma_N) + 2.01 eps),
    and eps = 3 N^2 u M covers both while (N + 1) u < 0.01 (at n = 1 the
    one row needs none).  When 2 N M overflows, partial sums may: then
    every row is re-scored.  A row with an infinite entry totals inf in
    every order; when every row does, the first wins.  A minimum is the
    maximum of the negated table, negation being exact in every sum, and
    0.0 - best restores the sign without a -0.0.
    """
    n = table.shape[0]
    table = table * (1 if maximize else -1)
    rank, eps = table, None
    if table.dtype.kind == "f":
        reach = n * n * float(np.abs(table[np.isfinite(table)]).max(initial=0.0))
        eps = 3.0 * n * n * 2.0**-53 * reach
        if not math.isfinite(2.0 * reach):  # every row ties at 0
            rank, eps = np.zeros_like(table), 0.0
    [(best, witness)] = _pass(rank[None], [eps], skip_identity, n * n,
                              lambda q, chunk, rows: _cell_order(table, chunk.perms(rows)))
    if witness is None and (first := next(_chunks(n, skip_identity), None)):
        witness = first.permutation(0)  # every row totals -inf
    return Witnessed(best if maximize else 0.0 - best, witness)


def _integral_many(x: np.ndarray, ys: np.ndarray) -> list[bool]:
    """Per partner ys[q] of a (P, n, n, d) stack, whether x and y = ys[q]
    hold integers with N (max|x| + max|y|)^2 < 2^24: then every sum of
    products or squared differences of their cells, in any order, is exact
    in float32."""
    if not np.array_equal(x, np.trunc(x)):
        return [False] * len(ys)
    top = float(np.abs(x).max(initial=0.0))
    tops = np.abs(ys).max(axis=(1, 2, 3), initial=0.0).tolist()
    whole = np.all(ys == np.trunc(ys), axis=(1, 2, 3)).tolist()
    # Python floats: a sum or product past the largest float is inf, unwarned
    return [w and x.size * (top + t) * (top + t) < 2**24 for w, t in zip(whole, tops)]


def _near_best(ip: np.ndarray, eps: np.ndarray) -> list[np.ndarray]:
    """Per row of a (P, rows) array of totals, the rows at or above the
    threshold fl(fl(max) - fl(eps)) of the row's eps, all in ip's dtype;
    none where the max is -inf (every row totals -inf)."""
    top = ip.max(axis=1)
    keep = ip >= (top - eps)[:, None]
    return [np.flatnonzero(k) if t > -math.inf else np.empty(0, np.intp)
            for k, t in zip(keep, top.tolist())]


def _dot_form(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("mijc,ijc->m", g, y)


def _diff_form(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Minus fl(sum (g - y)^2) per row, so that ``_pass`` maximises it."""
    diff = g - y
    return -np.einsum("mijc,mijc->m", diff, diff)


def _cell_order(table: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per permutation p, its entries table[p_i, p_j, k] over the cells
    k = (i, j), added one at a time from 0.0, left to right in cell order."""
    n = table.shape[0]
    entries = table[p[:, :, None], p[:, None, :], np.arange(n * n).reshape(n, n)]
    total = np.zeros(len(p), dtype=table.dtype)
    with np.errstate(over="ignore"):  # a total past the largest float is inf
        for column in entries.reshape(len(p), -1).T:
            total += column
    return total


def _pass(
    tables: np.ndarray,
    eps: list[float | None],
    skip_identity: bool,
    cells: int,
    rescore: Callable[[int, _Chunk, np.ndarray], np.ndarray],
) -> list[tuple[float, Permutation | None]]:
    """The one walk of the group for an optimum: per table q of a (P, n, n,
    n*n) stack of one dtype, its largest score and the first permutation
    reaching it (-inf and None when no row is scored).  With eps[q] None
    its totals are exact, and the first largest decides.  Otherwise the rows
    they rank within eps[q] of each chunk's best (``_near_best``) are
    re-scored in the reference form ``rescore(q, chunk, rows)``, which reads
    ``cells`` cells per row, and the first largest of those decides.  Parts
    of a shortlist hold _RESCORE_CELLS cells, and at least two rows unless
    the shortlist has one: ``np.einsum`` adds the cells of a lone row of
    more than 8192 cells in another order than those of rows scored
    together, so a split must leave no row alone.
    """
    step = max(2, _RESCORE_CELLS // max(cells, 1))
    exact = [q for q, e in enumerate(eps) if e is None]
    ranked = [q for q, e in enumerate(eps) if e is not None]
    margin = np.array([eps[q] for q in ranked], dtype=tables.dtype)  # fl(eps)
    best = [-math.inf] * len(eps)
    witness: list[Permutation | None] = [None] * len(eps)
    for chunk in _chunks(tables.shape[1], skip_identity):
        vals = chunk.totals(tables)  # a view of this thread's buffers
        if exact:
            ex = vals[exact] if ranked else vals
            for q, top, i in zip(exact, ex, ex.argmax(axis=1).tolist()):
                v = float(top[i])
                if witness[q] is None or v > best[q]:
                    best[q], witness[q] = v, chunk.permutation(i)
        # read before anything else totals: the shortlists are copies
        shorts = _near_best(vals[ranked] if exact else vals, margin) if ranked else []
        for q, short in zip(ranked, shorts):
            # parts of step rows; a lone last row joins the part before it
            for start in range(0, len(short) - 1 or 1, step):
                part = short[start : start + step + (start + step == len(short) - 1)]
                scores = rescore(q, chunk, part)
                i = int(np.argmax(scores))
                v = float(scores[i])
                if witness[q] is None or v > best[q]:
                    best[q], witness[q] = v, chunk.permutation(int(part[i]))
    return list(zip(best, witness))


def _inner_scan(
    x: np.ndarray, ys: np.ndarray, skip_identity: bool, metric: bool
) -> list[Witnessed]:
    """``min_sq_over_group`` if metric, else ``max_inner_over_group``, of x
    against each partner ys[q] of a (P, n, n, d) stack, one result each.

    Every partner decides as a scan of its own pair would.  Where
    ``_integral_many`` certifies it, its table inner products <g, y> are
    exact, in float32 too, and its first best total decides;
    ||x||^2 + ||y||^2 - 2<g, y> is then exact too and strictly decreasing in
    <g, y>.  When 4 R^2 overflows, no sum ranks the rows: every row totals
    0 and is re-scored.  Otherwise its table holds the inner
    products of 2^k x and 2^k y, which rank the rows as <g, y> does, and
    each chunk's shortlist is re-scored in the reference form on the
    unscaled cells (``min_sq_over_group``).  Totals are float32, or float64
    for the whole call when N + 3 >= 2^20, and partners share walks
    (``_pass``; "Partners" in the module docstring).
    """
    n, d = x.shape[0], x.shape[2]
    terms = x.size + 3
    dtype, u = (np.float32, 2.0**-24) if terms < 2**20 else (np.float64, 2.0**-53)
    exact = _integral_many(x, ys)
    # 2^k takes the largest |cell| of x and a ranked partner into [1/2, 1);
    # xx and yy are their squared norms in that frame
    top = np.abs(ys).max(axis=(1, 2, 3), initial=np.abs(x).max(initial=0.0)).tolist()
    k = [0 if e else -math.frexp(t)[1] for e, t in zip(exact, top)]
    shift = np.array(k, dtype=np.int32)[:, None, None]
    xs = np.ldexp(x.reshape(1, n * n, d), shift)
    ws = np.ldexp(ys.reshape(len(ys), n * n, d), shift)
    xx, yy = np.einsum("qkc,qkc->q", xs, xs).tolist(), np.einsum("qkc,qkc->q", ws, ws).tolist()
    # eps in the scaled frame: None for exact totals, 0.0 where 4 R^2
    # overflows unscaled (or a cell is not finite), and a second term that
    # stops at 4 (N + 3) > R^2, which keeps every row
    eps: list[float | None] = []
    for e, kq, a, b in zip(exact, k, xx, yy):
        r2 = (math.sqrt(a) + math.sqrt(b)) ** 2
        if not math.isfinite(r2) or math.frexp(4.0 * r2)[1] - 2 * kq > 1024:
            eps.append(0.0)
        else:
            eps.append(None if e else terms * (4 * u * r2 + math.ldexp(1, min(2 * kq - 1070, 2))))
    if 0.0 in eps:  # a partner without ranking totals 0
        keep = np.array([e != 0.0 for e in eps])[:, None, None]
        xs, ws = np.where(keep, xs, 0.0), np.where(keep, ws, 0.0)
    # The inner products as a matrix product: finite, |<g, y>| <= R^2 / 4,
    # and exact where eps is None
    table = (xs @ ws.transpose(0, 2, 1)).reshape(len(ys), n, n, n * n).astype(dtype, copy=False)
    blocks = min(_CHUNK, math.factorial(n) // math.factorial(min(n, _FREE)))
    per_pass = max(1, _CHUNK // blocks)
    form = _diff_form if metric else _dot_form
    out = []
    for start in range(0, len(ys), per_pass):
        batch = slice(start, start + per_pass)
        found = _pass(table[batch], eps[batch], skip_identity, x.size,
                      lambda q, chunk, rows, part=ys[batch]: form(chunk.gather(x, rows), part[q]))
        for q, (best, witness) in enumerate(found, start):
            if metric:
                best = xx[q] + yy[q] - 2.0 * best if eps[q] is None else 0.0 - best
            out.append(Witnessed(best, witness))
    return out


def _min_sq_many(x: np.ndarray, ys) -> list[Witnessed]:
    """``[min_sq_over_group(x, y) for y in ys]``, in passes that total x
    against many partners at once (``_inner_scan``)."""
    return _inner_scan(x, np.asarray(ys), False, metric=True)


def max_inner_over_group(x: np.ndarray, y: np.ndarray, skip_identity: bool = False) -> Witnessed:
    """max over permutations p of <x[ix_(p,p)], y>, with the first maximizer.

    The dot edit kernel; ``skip_identity`` leaves the identity out, as in
    ``optimum``.  Values and witnesses are those of scoring every row g in
    the reference form ``einsum("mijc,ijc->m", g, y)``; that form decides
    among the rows the table ranks near each chunk's best (``_inner_scan``;
    the bound is derived in ``min_sq_over_group``), _RESCORE_CELLS cells at
    a time.  With no row left the value is -inf and the witness None.
    """
    return _inner_scan(x, y[None], skip_identity, metric=False)[0]


def min_sq_over_group(x: np.ndarray, y: np.ndarray, skip_identity: bool = False) -> Witnessed:
    """min over permutations p of ||x[ix_(p,p)] - y||^2, with the first minimizer.

    Equals min over gamma of ||x - gamma y||^2 where gamma has images p; the
    one implementation of the quotient metric.  ``skip_identity`` leaves the
    identity out, as in ``optimum``; with no row left the value is inf and
    the witness None.

    Values and witnesses are those of scoring every row g in the diff form
    fl(sum (g - y)^2); that form alone is evaluated on the rows that can
    win, which keeps exact zeros for isomorphic pairs.  Each chunk
    is first ranked by its table totals T(g), and only the rows within eps
    of the chunk's largest one are re-scored, _RESCORE_CELLS cells at a
    time, so a chunk of ties gathers no full block.

    The table holds the inner products of s x and s y, where the power of
    two s takes the largest |cell| of x and y into [1/2, 1) (s = 1 when
    every cell is 0).  The scaling is exact but where it makes a cell
    subnormal, which moves that cell by at most 2^-1075, and it commutes
    with every permutation, so T(g) estimates s^2 <g, y>.  In this frame let
    N = n*n*d cells and R = ||s x|| + ||s y||, so that 1/4 <= R^2 < 4N
    (every row has ||g|| = ||x||, and ||g - y||^2 = ||x||^2 + ||y||^2 -
    2<g, y> exactly; when every cell is 0, every total is 0 and every row
    is kept); u = 2^-24 for float32 totals and 2^-53 for the float64 totals
    of calls with N + 3 >= 2^20, and gamma_k = k u / (1 - k u) <= 1.07 k u
    for k <= N + 2.

    * A table entry adds the d float64 products of one cell pair and is
      rounded to the totals' dtype; a row total adds its n*n entries through
      the fold and the tree.  So each product carries at most N + 1
      roundings: |T(g) - s^2 <g, y>| <= gamma_(N+1) R^2 / 4 + a, where
      a <= n*n 2^-150 + N 2^-1073 covers entries below float32's normal
      range, products that underflow in float64 and cells that the scaling
      rounds.
    * The reference forms run in float64 on the unscaled cells, and each
      term of the diff form carries at most N + 2 roundings.  So if g scores
      no worse than h in it, s^2 (<h, y> - <g, y>) <= gamma_(N+2) R^2 +
      s^2 N 2^-1074, the last term for squares that underflow (by at most
      2^-1075 each, in each score); the reference dot of
      ``max_inner_over_group`` gives no more.  Hence T(h) - T(g) <=
      1.5 gamma_(N+2) R^2 + 2a + s^2 N 2^-1074.
    * The threshold fl(fl(max) - fl(eps)) lies at most eps (2u + u^2) +
      u (1 + gamma_(N+1)) R^2 / 4 above max - eps.

    So every row that can be a chunk's first optimum lies within
    eps = (N + 3) (4 u R^2 + s^2 2^-1070) of the chunk's best total: the
    first term, times 1 - 2u - u^2, exceeds 1.61 (N + 2) u R^2 + 0.27 u R^2
    by more than 2 N u R^2 >= N u / 2, far above 2a, and also absorbs the
    rounding of the norms; the second exceeds s^2 N 2^-1074 sixteenfold.
    Where the second term would pass 4 (N + 3) it stops there: eps then
    exceeds R^2 and keeps every row.  No total overflows: every partial sum
    is at most (1 + gamma_(N+1)) R^2 / 4 < 2N in magnitude.  The bounds
    assume that no reference sum overflows, which holds while
    4 (||x|| + ||y||)^2 is finite; beyond that (or with non-finite
    attributes) every row is re-scored.  When ``_integral_many`` certifies
    x and y, the table is unscaled, its totals and ||x||^2 + ||y||^2 -
    2<g, y> are exact and equal to the diff form, and no row is re-scored.
    """
    return _inner_scan(x, y[None], skip_identity, metric=True)[0]


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
