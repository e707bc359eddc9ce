"""Smith normal form of integer matrices, exact and deterministic.

Arbitrary-precision integers throughout: elimination is the place where
coefficient explosion silently corrupts fixed-width arithmetic, so no numpy
here.  The elimination runs in two phases.

Unit phase.  The columns wait in a min-heap keyed by (length, index).  The
pivot column is the least (length, index) among the columns that hold a +-1,
and its pivot is the +-1 whose row has the least (length, index); short
pivots keep the sparse working set small on boundary matrices.  A unit
pivot divides its column exactly, so one pass of row steps, row i minus
q times the pivot row, clears the column; the pivot row leaves the matrix
and the diagonal gains a 1.  Only the columns of the pivot row change, and
each gets one key, at its length once the pass ends (an emptied column is
deleted).  So every column that holds a +-1 has its current key in the
heap: it had one before the pass, or the pass pushed it.  A popped key
whose column is gone or has another length is stale and skipped; a current
key whose column holds no +-1 is dropped, as the column is queued again
when a pass next changes it.  The least current key with a +-1 is thus
always popped before any other such column, which is the rule above; two
equal keys of one column give one choice.  The phase ends with no +-1
entry left.  Which units are taken changes no result: the invariant
factors are unique.

Residual phase.  What is left has no unit entry.  Each connected block of it
goes to a dense routine.  Fraction-free (Bareiss) elimination gives the
block's rank r and D = |one nonzero r x r minor|.  Bezout row and column
steps then diagonalise the block modulo D, and each diagonal entry e gives
gcd(e, D); where the diagonal runs out before r, the value is D.  The first
r entries of the divisibility chain of these values are the block's
invariant factors d_1 | ... | d_r.  Both dense routines take at most
rows * cols * min(rows, cols) entry updates; a block past
``MAX_RESIDUAL_WORK`` of them is refused, with a ``ValueError`` naming the
cap, before any is made.

This is exact (Cohen, A Course in Computational Algebraic Number Theory,
2.4; Hafner and McCurley, SIAM J. Comput. 1991).  d_1 ... d_r is the gcd of
the r x r minors, so d_i | d_1 ... d_r | D for i <= r.  The steps modulo D
are invertible over Z/DZ, so the cokernel of the diagonal over Z/DZ is that
of the block: the sum of the Z/gcd(d_i, D) = Z/d_i and one Z/D for each of
the other min(rows, cols) - r positions.  Its invariant factors over those
positions are d_1, ..., d_r, D, ..., D, which is also the chain of the gcd
values with D at every position the diagonal missed.  D is a multiple of
every gcd value, so padding with D only up to r leaves the first r entries
as they are.  Cutting the chain to r matters: a diagonal modulo D may split
a Z/D, as diag(2, 3) modulo 6 does for the rank-1 block [[8, 6], [12, 9]].
"""
from __future__ import annotations

import heapq
import math

from ._caps import check
from ._record import record

# The most entry updates, rows * cols * min(rows, cols), for the dense reduction of one
# residual block: 1.4-1.9 s for the benchmark's 144 x 144 U*D*V, and 6.1-6.8 s, the costliest
# tried, for 144 x 144 or 300 x 100 blocks with entries near 12 000 (in process, 2 vCPUs,
# Python 3.11).  No block of the corpus, of T^3 up to k = 10 or of a 36 x 36 presentation nears it.
MAX_RESIDUAL_WORK = 3_000_000


@record
class SmithForm:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix."""

    invariant_factors: tuple[int, ...]

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


def _coerce(matrix) -> dict:
    """Accept dense row lists or {(i, j): value} mappings."""
    if isinstance(matrix, dict):
        return matrix
    rows = [list(r) for r in matrix]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged dense matrix")
    return {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}


def smith_normal_form(matrix) -> SmithForm:
    """Compute the Smith normal form of an integer matrix.

    Input may be a dense sequence of rows, or a sparse {(i, j): value}
    mapping whose row and column ids are any integers: rows and columns
    with no entry add nothing to the invariant factors, and the ids only
    order the work.  The result is deterministic for a given input.
    """
    entries = _coerce(matrix)
    pivots, rows, cols = _unit_phase(entries)
    factors = [1] * len(pivots)
    for block_rows, block_cols in _blocks(rows, cols):
        m, n = len(block_rows), len(block_cols)
        check("snf.MAX_RESIDUAL_WORK", m * n * min(m, n), MAX_RESIDUAL_WORK,
              f"the Smith form of a {m} x {n} block with no unit entry needs an entry update count of up to")
        factors += _residual_factors(
            [[rows[i].get(j, 0) for j in block_cols] for i in block_rows]
        )
    return SmithForm(_divisibility_chain(factors))


def _unit_phase(entries: dict) -> tuple[list[tuple], dict, dict]:
    """Eliminate the +-1 entries of the sparse matrix ``entries``.

    Returns the (row, col) of each pivot, in order, and the live rows and
    columns left, none of whose entries is +-1.  Zero entries are dropped.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        if v:
            if not isinstance(v, int):
                raise TypeError("matrix entries must be integers")
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    pivots: list[tuple] = []
    while heap:
        length, pj = heappop(heap)
        col = cols.get(pj)
        if col is None or len(col) != length:
            continue  # stale: the current key is in the heap too
        pi = best = None
        for i, v in col.items():
            if v == 1 or v == -1:
                key = (len(rows[i]), i)
                if best is None or key < best:
                    pi, best = i, key
        if pi is None:
            continue  # queued again when a pass changes the column
        pivots.append((pi, pj))
        # the pivot row leaves the matrix; each other row of the pivot column
        # then loses q times it, which clears the column as p = +-1
        prow = rows.pop(pi)
        for j in prow:
            del cols[j][pi]
        del cols[pj]
        p = prow.pop(pj)
        steps = [(j, v, cols[j]) for j, v in prow.items()]
        for i, c in col.items():
            q = c * p
            row = rows[i]
            del row[pj]
            for j, v, cj in steps:
                old = row.get(j)
                if old is None:
                    row[j] = cj[i] = -q * v
                elif old != q * v:
                    row[j] = cj[i] = old - q * v
                else:
                    del row[j]
                    del cj[i]
            if not row:
                del rows[i]
        for j, _, cj in steps:
            if cj:
                heappush(heap, (len(cj), j))
            else:
                del cols[j]

    return pivots, rows, cols


def _blocks(rows: dict, cols: dict):
    """The (rows, cols) of each connected block of a sparse matrix, sorted.

    Rows and columns are joined by their nonzero entries; the Smith form of
    a block-diagonal matrix is the chain of its blocks' factors.
    """
    seen: set = set()
    for start in sorted(rows):
        if start in seen:
            continue
        seen.add(start)
        block_rows, block_cols, stack = [start], set(), [start]
        while stack:
            for j in rows[stack.pop()]:
                if j not in block_cols:
                    block_cols.add(j)
                    fresh = [i for i in cols[j] if i not in seen]
                    seen.update(fresh)
                    block_rows += fresh
                    stack += fresh
        yield sorted(block_rows), sorted(block_cols)


def _residual_factors(dense: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors of a nonzero dense matrix, computed modulo a minor
    (see the module docstring for why this is exact)."""
    rank, minor = _rank_and_minor(dense)
    diagonal = _diagonal_mod(dense, minor)
    values = [math.gcd(e, minor) for e in diagonal] + [minor] * (rank - len(diagonal))
    return _divisibility_chain(values)[:rank]


def _rank_and_minor(dense: list[list[int]]) -> tuple[int, int]:
    """Rank r and |one nonzero r x r minor|, by fraction-free (Bareiss)
    elimination with a full search for the least nonzero pivot.

    Every intermediate entry is a minor of the input, so none outgrows the
    Hadamard bound.
    """
    a = [row[:] for row in dense]
    m, n = len(a), len(a[0])
    prev = 1
    for k in range(min(m, n)):
        if not _least_to_corner(a, k):
            return k, abs(prev)
        top = a[k]
        p = top[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
            row[k] = 0
        prev = p
    return min(m, n), abs(prev)


def _least_to_corner(a: list[list[int]], k: int) -> bool:
    """Swap the nonzero entry of least absolute value in rows and columns
    k and on to (k, k); False when there is none."""
    pivot = min(
        ((abs(v), i, j) for i in range(k, len(a)) for j in range(k, len(a[0])) if (v := a[i][j])),
        default=None,
    )
    if pivot is None:
        return False
    _, i, j = pivot
    a[k], a[i] = a[i], a[k]
    for row in a:
        row[k], row[j] = row[j], row[k]
    return True


def _diagonal_mod(dense: list[list[int]], modulus: int) -> list[int]:
    """The nonzero entries of a diagonal form of ``dense`` over Z/(modulus).

    Each pivot is the least nonzero entry left.  2x2 Bezout row steps clear
    its column and Bezout column steps its row, alternately until both are
    clear; a step that does not divide exactly lowers the pivot to a proper
    divisor, so this ends.
    """
    a = [[v % modulus for v in row] for row in dense]
    m, n = len(a), len(a[0])
    diagonal = []
    for k in range(min(m, n)):
        if not _least_to_corner(a, k):
            break
        while True:
            for i in range(k + 1, m):
                y = a[i][k]
                if y:
                    x = a[k][k]
                    g, s, t = _bezout(x, y)
                    u, w = y // g, x // g
                    top, row = a[k], a[i]
                    a[k] = [(s * p + t * q) % modulus for p, q in zip(top, row)]
                    a[i] = [(w * q - u * p) % modulus for p, q in zip(top, row)]
            exact = True
            for j in range(k + 1, n):
                y = a[k][j]
                if y:
                    x = a[k][k]
                    g, s, t = _bezout(x, y)
                    u, w = y // g, x // g
                    for row in a[k:]:
                        p, q = row[k], row[j]
                        row[k] = (s * p + t * q) % modulus
                        row[j] = (w * q - u * p) % modulus
                    exact = exact and not t
            if exact:
                break
        diagonal.append(a[k][k])
    return diagonal


def _bezout(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(x, y) = s*x + t*y, for x > 0 and y >= 0.

    When x divides y this is (x, 1, 0), so the step keeps the pivot's line
    as it is and only clears the other; any other (s, t) would mix the two
    lines without lowering the pivot, and the alternation would not end.
    """
    if y % x == 0:
        return x, 1, 0
    old_r, r, old_s, s, old_t, t = x, y, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _divisibility_chain(values: list[int]) -> tuple[int, ...]:
    """Normalise positive diagonal entries into a divisibility chain.

    Zeros are dropped.  Units already divide everything, so they are set
    aside.  One pass over the pairs a < b replaces each pair by its gcd and
    lcm, which keeps the product and the cokernel.  One pass is enough:
    after the step (a, b), chain[a] divides chain[b], and every later value
    at b is a gcd or an lcm of two multiples of chain[a], so chain[a]
    divides every entry after it once its row of steps is done.
    """
    units = values.count(1)
    chain = [v for v in values if v > 1]
    for a in range(len(chain)):
        for b in range(a + 1, len(chain)):
            g = math.gcd(chain[a], chain[b])
            chain[a], chain[b] = g, chain[a] * chain[b] // g
    return (1,) * units + tuple(chain)
