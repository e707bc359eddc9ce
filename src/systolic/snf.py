"""Smith normal form of integer matrices, exact and deterministic.

Arbitrary-precision integers throughout: elimination is the place where
coefficient explosion silently corrupts fixed-width arithmetic, so no numpy
here.  Each pivot is the entry with the least key (|value|, Markowitz fill
estimate (row length - 1) * (column length - 1), row, column), which keeps
the sparse working set small on boundary matrices.

The keys sit in a lazy min-heap rather than being scanned in full for each
pivot.  A key can only drop when its row or column loses an entry, so only
the entries of such lines are pushed again; a popped key that has gone
stale is dropped or pushed again at its current value, and the first popped
key that is still current is the least one.  The pivots, and so every
integer operation, are those of a full scan (``tests/oracles.py`` keeps the
scan and the tests compare the pivot sequences).  When a step shrinks lines
holding as many entries as the matrix has, as on dense matrices, the heap is
rebuilt instead.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix."""

    invariant_factors: tuple[int, ...]
    row_dim: int
    col_dim: int

    def __post_init__(self):
        factors = self.invariant_factors
        if any(d <= 0 for d in factors):
            raise ValueError("invariant factors must be positive")
        if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        if len(factors) > min(self.row_dim, self.col_dim):
            raise ValueError("rank exceeds matrix dimensions")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def factor_product(self) -> int:
        """Product of the invariant factors: the gcd of all rank-size minors."""
        return math.prod(self.invariant_factors)

    @property
    def torsion_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d > 1)


def _coerce(matrix, shape):
    """Accept dense row lists, {(i, j): value} mappings, or BoundaryMatrix."""
    if hasattr(matrix, "sparse") and hasattr(matrix, "shape"):
        return dict(matrix.sparse()), matrix.shape
    if isinstance(matrix, dict):
        if shape is None:
            raise ValueError("sparse mapping input requires an explicit shape")
        return {k: v for k, v in matrix.items() if v}, shape
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged dense matrix")
    entries = {
        (i, j): v for i, row in enumerate(rows) for j, v in enumerate(row) if v
    }
    return entries, (len(rows), ncols)


def smith_normal_form(matrix, shape: tuple[int, int] | None = None) -> SmithForm:
    """Compute the Smith normal form of an integer matrix.

    Input may be a dense sequence of rows, a sparse {(i, j): value} mapping
    with ``shape``, or a boundary matrix.  The result is deterministic for a
    given input.
    """
    entries, (nrows, ncols) = _coerce(matrix, shape)
    diagonal, _ = _eliminate(entries)
    return SmithForm(_divisibility_chain(diagonal), nrows, ncols)


def _pivot_sequence(matrix, shape: tuple[int, int] | None = None) -> list[tuple]:
    """The (row, col) of each selected pivot, in order (for the tests)."""
    return _eliminate(_coerce(matrix, shape)[0])[1]


def _eliminate(entries: dict) -> tuple[list[int], list[tuple]]:
    """Diagonalise the sparse matrix ``entries``.

    Returns the absolute diagonal values and the (row, col) of each pivot
    taken from the heap, in order.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        if not isinstance(v, int):
            raise TypeError("matrix entries must be integers")
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, {})[i] = v
    nnz = len(entries)
    # the rows and columns that lost an entry since the last pivot selection;
    # counting every row before the first one makes it build the heap
    shrunk_rows: set = set(rows)
    shrunk_cols: set = set()

    def set_entry(i, j, v):
        nonlocal nnz
        if v:
            row = rows.setdefault(i, {})
            nnz += j not in row
            row[j] = v
            cols.setdefault(j, {})[i] = v
        elif i in rows and j in rows[i]:
            nnz -= 1
            del rows[i][j]
            if not rows[i]:
                del rows[i]
            del cols[j][i]
            if not cols[j]:
                del cols[j]
            shrunk_rows.add(i)
            shrunk_cols.add(j)

    def row_submul(dst, src, q):
        # row dst -= q * row src
        if not q:
            return
        for j, v in list(rows.get(src, {}).items()):
            set_entry(dst, j, rows.get(dst, {}).get(j, 0) - q * v)

    def col_submul(dst, src, q):
        if not q:
            return
        for i, v in list(cols.get(src, {}).items()):
            set_entry(i, dst, cols.get(dst, {}).get(i, 0) - q * v)

    def key(i, j, v):
        return (abs(v), (len(rows[i]) - 1) * (len(cols[j]) - 1), i, j)

    diagonal: list[int] = []
    pivots: list[tuple] = []
    while rows:
        # A key drops when its row or column loses an entry.  Every entry
        # whose value changed also lies in a row that lost one: each step
        # leaves a row it changed without its entry in the pivot column,
        # unless that row became the pivot row, which loses every entry.
        # So push the keys of those rows and columns that dropped, or rebuild
        # the heap when there are as many keys to look at as entries.
        pending = sum(len(rows[i]) for i in shrunk_rows if i in rows) + sum(
            len(cols[j]) for j in shrunk_cols if j in cols
        )
        if pending >= nnz:
            # Every live entry's key in ``least`` is in the heap and is no
            # larger than its current key; any other key in the heap is stale.
            least = {(i, j): key(i, j, v) for i, row in rows.items() for j, v in row.items()}
            heap = list(least.values())
            heapq.heapify(heap)
        else:
            candidates = [(i, j) for i in shrunk_rows if i in rows for j in rows[i]]
            candidates += [(i, j) for j in shrunk_cols if j in cols for i in cols[j]]
            for i, j in candidates:
                current = key(i, j, rows[i][j])
                held = least.get((i, j))
                if held is None or current < held:
                    least[i, j] = current
                    heapq.heappush(heap, current)
        shrunk_rows.clear()
        shrunk_cols.clear()
        # The first key in ``least`` that is still current is the least
        # current key: the pivot a scan of every entry would take.
        while True:
            stored = heapq.heappop(heap)
            pi, pj = stored[2], stored[3]
            if least.get((pi, pj)) != stored:
                continue
            if pi not in rows or pj not in rows[pi]:
                del least[pi, pj]
                continue
            current = key(pi, pj, rows[pi][pj])
            if current == stored:
                break
            least[pi, pj] = current
            heapq.heappush(heap, current)
        del least[pi, pj]  # if it outlives this step, its row lost an entry
        pivots.append((pi, pj))
        # alternately clear the pivot column and row with Euclidean steps
        while True:
            p = rows[pi][pj]
            col_others = [i for i in cols[pj] if i != pi]
            for i in col_others:
                q = cols[pj][i] // p
                row_submul(i, pi, q)
                if pj in rows.get(i, {}):  # remainder became the smaller pivot
                    pi = i
                    break
            else:
                p = rows[pi][pj]
                row_others = [j for j in rows[pi] if j != pj]
                for j in row_others:
                    q = rows[pi][j] // p
                    col_submul(j, pj, q)
                    if j in rows.get(pi, {}):
                        pj = j
                        break
                else:
                    break
        diagonal.append(abs(rows[pi][pj]))
        for j in list(rows.get(pi, {})):
            set_entry(pi, j, 0)
        for i in list(cols.get(pj, {})):
            set_entry(i, pj, 0)

    return diagonal, pivots


def _divisibility_chain(values: list[int]) -> tuple[int, ...]:
    """Normalise positive diagonal entries into a divisibility chain.

    Zeros are dropped.  Units already divide everything, so they are set
    aside and only the other values are normalised pairwise.
    """
    units = values.count(1)
    chain = [v for v in values if v > 1]
    changed = True
    while changed:
        changed = False
        chain.sort()
        for a in range(len(chain)):
            for b in range(a + 1, len(chain)):
                if chain[b] % chain[a]:
                    g = math.gcd(chain[a], chain[b])
                    chain[a], chain[b] = g, chain[a] * chain[b] // g
                    changed = True
    return (1,) * units + tuple(chain)
