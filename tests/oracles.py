"""Independent reference implementations used only to cross-check the package.

Deliberately naive and slow: textbook Smith reduction with divisibility
enforcement, the sparse Smith elimination with a full scan per pivot and a
pairwise divisibility chain, the Smith form's unit phase with a helper call
per changed entry (``unit_phase``), the gcd of every maximal minor, exhaustive
cycle enumeration, exhaustive orientation search, largest-first Waring
parts read off a count list, Hankel-style recurrence solving by dense
elimination over fractions, Berlekamp-Massey and its replay on
``Fraction`` terms (``_lfsr_synthesis`` and ``_replays``, with the
verdict built from them in ``recurrence_verdict``), the connected
components of a complex by union-find (``components``), the girth as a full
BFS from every vertex, the ball around a vertex by plain BFS, the graph
edge checks one edge at a time (``graph_edges``), the complex facet checks
one facet at a time (``complex_facets``), ``check_regular_girth``, the
certificate of a built graph that ``construct_regular_girth`` does not
check at run time, ``greedy_attempt``, the girth search's attempt with each draw made
by ``rng.choice``, the boundary operators as (row, col, sign)
triples with each face found by deleting a vertex and its own copy of the
sign (-1)^i (``boundary_matrix``, a ``BoundaryMatrix`` record), and
``dataclass_twin``, a record class rebuilt as the frozen dataclass it was,
and ``presentation_rows``, the presentation parse that wrote every relator
out letter by letter, free-reduced it and summed its letters, and
``best_upper_table``, the min-plus table that took each multiple's best
single part first and then each base atom below it.
None of this shares code paths with the implementation under test, with
three exceptions: ``homology`` is the package's homology before reduction
pairs, the Smith form of every full ``boundary_matrix``, so it shares
``smith_normal_form`` (itself checked against the naive reductions here);
``presentation_rows`` shares the tokenizer ``_tokenize`` and splits the
relators in its own parser;
``greedy_attempt`` shares the far test ``_is_far`` and the repair
``_double_swap``.
"""
from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from collections import Counter, deque
from fractions import Fraction
from itertools import chain

from systolic._caps import MAX_DIGITS
from systolic._record import record
from systolic.complexes import SimplicialComplex, face_counts
from systolic.genfun import RecurrenceVerdict
from systolic.graphs import REJECTIONS, STEP_BUDGET, Graph, _double_swap, _is_far
from systolic.homology import HomologySummary
from systolic.presentations import MAX_LETTERS, _tokenize
from systolic.snf import SmithForm, smith_normal_form


def naive_invariant_factors(dense) -> tuple[int, ...]:
    """Textbook Smith reduction: pivot to the corner, clear, enforce divisibility."""
    a = [list(map(int, row)) for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    t = 0
    factors: list[int] = []
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                while a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            # clear row t
            for j in range(t + 1, n):
                while a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty:
                break
        # enforce: pivot divides every remaining entry
        offender = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if a[i][j] % a[t][t]
            ),
            None,
        )
        if offender is not None:
            i, _ = offender
            for j in range(t, n):
                a[t][j] += a[i][j]
            continue
        factors.append(abs(a[t][t]))
        t += 1
        if t == m or t == n:
            break
    return tuple(factors)


# The Smith form's elimination as it was before its pivots came from a heap:
# a scan of every nonzero entry picks each pivot.
def scan_pivot_elimination(entries) -> tuple[list[int], list[tuple]]:
    """Absolute diagonal values and selected (row, col) pivots, in order,
    of the sparse elimination of a {(i, j): value} mapping."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v

    def set_entry(i, j, v):
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, {})[i] = v
        else:
            if i in rows and j in rows[i]:
                del rows[i][j]
                if not rows[i]:
                    del rows[i]
            if j in cols and i in cols[j]:
                del cols[j][i]
                if not cols[j]:
                    del cols[j]

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

    diagonal: list[int] = []
    pivots: list[tuple] = []
    while rows:
        pivot = min(
            ((i, j, v) for i, row in rows.items() for j, v in row.items()),
            key=lambda t: (
                abs(t[2]),
                (len(rows[t[0]]) - 1) * (len(cols[t[1]]) - 1),
                t[0],
                t[1],
            ),
        )
        pi, pj, _ = pivot
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


# The Smith form's unit phase as it was before each pivot became one pass:
# a helper call per changed entry and per row step, and a heap key per
# changed entry.  It picks the same pivots and leaves the same rows and
# columns.
def unit_phase(entries: dict) -> tuple[list[tuple], dict, dict]:
    """Eliminate the +-1 entries of the sparse matrix ``entries``.

    Returns the (row, col) of each pivot, in order, and the live rows and
    columns left, none of whose entries is +-1.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        if not isinstance(v, int):
            raise TypeError("matrix entries must be integers")
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, {})[i] = v
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)

    def set_entry(i, j, v):
        # a column whose length changes or that gains a +-1 is queued again
        if v:
            rows.setdefault(i, {})[j] = v
            col = cols.setdefault(j, {})
            grew = i not in col
            col[i] = v
            if grew or abs(v) == 1:
                heapq.heappush(heap, (len(col), j))
        else:
            del rows[i][j]
            if not rows[i]:
                del rows[i]
            col = cols[j]
            del col[i]
            if col:
                heapq.heappush(heap, (len(col), j))
            else:
                del cols[j]

    def row_submul(dst, src, q):
        # row dst -= q * row src
        for j, v in list(rows[src].items()):
            set_entry(dst, j, rows.get(dst, {}).get(j, 0) - q * v)

    pivots: list[tuple] = []
    while heap:
        length, pj = heapq.heappop(heap)
        col = cols.get(pj)
        if col is None or len(col) != length:
            continue  # stale: a length change queued the current key
        units = [i for i, v in col.items() if abs(v) == 1]
        if not units:
            continue  # queued again if it gains a +-1
        pi = min(units, key=lambda i: (len(rows[i]), i))
        pivots.append((pi, pj))
        # a unit pivot divides its column exactly; its row is then alone
        p = col[pi]
        for i in [i for i in col if i != pi]:
            row_submul(i, pi, col[i] * p)
        for j in list(rows[pi]):
            set_entry(pi, j, 0)

    return pivots, rows, cols


def max_minor_gcd(dense: list[list[int]]) -> tuple[int, int]:
    """Largest order with a nonzero minor, and the gcd of those minors, by
    enumerating every minor: exponential, for small matrices only."""
    nrows = len(dense)
    ncols = len(dense[0]) if nrows else 0
    for order in range(min(nrows, ncols), 0, -1):
        gcd_val = 0
        for row_set in itertools.combinations(range(nrows), order):
            for col_set in itertools.combinations(range(ncols), order):
                sub = [[dense[i][j] for j in col_set] for i in row_set]
                gcd_val = math.gcd(gcd_val, abs(_det(sub)))
        if gcd_val:
            return order, gcd_val
    return 0, 1


def _det(matrix: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in matrix]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


@record
class BoundaryMatrix:
    """Sparse integer matrix of the k-th simplicial boundary operator.

    Rows are the (k-1)-faces and columns the k-faces, both in lexicographic
    order.  The column of a simplex carries sign (-1)^i on the face obtained
    by deleting its i-th vertex, so every column has exactly k+1 nonzeros.
    """

    k: int
    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, int, int], ...]  # (row, col, sign), column-major

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def sparse(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for i, j, v in self.entries}

    def dense(self) -> list[list[int]]:
        mat = [[0] * len(self.cols) for _ in self.rows]
        for i, j, v in self.entries:
            mat[i][j] = v
        return mat


def boundary_matrix(complex_: SimplicialComplex, k: int) -> BoundaryMatrix:
    """The k-th boundary operator, for 1 <= k <= dim, with each face found
    by deleting a vertex and looked up by its vertex tuple."""
    if complex_.dim is None or k < 1 or k > complex_.dim:
        raise ValueError(f"boundary index k={k} out of range for dim {complex_.dim}")
    rows = complex_.faces_by_dim[k - 1]
    cols = complex_.faces_by_dim[k]
    row_index = {s: i for i, s in enumerate(rows)}
    entries: list[tuple[int, int, int]] = []
    for j, simplex in enumerate(cols):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1:]
            entries.append((row_index[face], j, -1 if i % 2 else 1))
    return BoundaryMatrix(k, rows, cols, tuple(entries))


def homology(complex_: SimplicialComplex) -> HomologySummary:
    """Homology groups H_k = Z^betti(k) + sum Z_d for k = 0..dim."""
    dim = complex_.dim
    if dim is None:
        return HomologySummary((), ())
    counts = face_counts(complex_)
    forms: list[SmithForm | None] = [None] * (dim + 2)
    for k in range(1, dim + 1):
        matrix = boundary_matrix(complex_, k)
        forms[k] = smith_normal_form(matrix.sparse())
    ranks = [forms[k].rank if forms[k] else 0 for k in range(dim + 2)]
    betti = [counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1)]
    torsion = [
        forms[k + 1].torsion_factors if forms[k + 1] else () for k in range(dim + 1)
    ]
    return HomologySummary(tuple(betti), tuple(torsion))


def components(complex_: SimplicialComplex) -> int:
    """The number of connected components of ``complex_`` (union-find over
    the consecutive vertices of each facet)."""
    parent = {v: v for facet in complex_.facets for v in facet}

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for facet in complex_.facets:
        for edge in zip(facet, facet[1:]):
            a, b = map(root, edge)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return sum(root(v) == v for v in parent)


def pairwise_divisibility_chain(values: list[int]) -> tuple[int, ...]:
    """Normalise diagonal entries into a divisibility chain, pairwise over
    every nonzero value, units included."""
    chain = [v for v in values if v]
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
    return tuple(chain)


def brute_force_girth(n: int, edges) -> int | float:
    """Exhaustive simple-cycle enumeration by DFS; exact on small graphs."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    best = math.inf

    def extend(path, seen):
        nonlocal best
        head = path[-1]
        start = path[0]
        for nxt in adjacency[head]:
            if nxt == start and len(path) >= 3:
                best = min(best, len(path))
            elif nxt > start and nxt not in seen and len(path) < best:
                seen.add(nxt)
                path.append(nxt)
                extend(path, seen)
                path.pop()
                seen.remove(nxt)

    for root in range(n):
        extend([root], {root})
    return best


def girth(graph, cutoff: int | None = None) -> int | float:
    """The package's girth before the least-vertex search: a full BFS from
    every vertex, with the distances in a dict per root.

    With ``cutoff`` the search stops early once no cycle of length <= cutoff
    can exist, still returning the exact girth whenever it is <= cutoff.
    """
    adjacency = graph.adjacency
    best = math.inf
    for root in range(graph.vertex_count):
        limit = (min(best, cutoff + 1) if cutoff is not None else best) / 2
        dist = {root: 0}
        queue = deque([(root, -1)])
        while queue:
            node, parent = queue.popleft()
            if dist[node] >= limit:
                break
            for nb in adjacency[node]:
                if nb == parent:  # the unique tree edge back; no parallel edges exist
                    continue
                if nb in dist:
                    # closed walk through root; contains a cycle no longer than it
                    best = min(best, dist[node] + dist[nb] + 1)
                else:
                    dist[nb] = dist[node] + 1
                    queue.append((nb, node))
    return best


def complex_facets(facets, vertex_count, max_face_steps) -> tuple:
    """(vertex count, facets) of the package's ``SimplicialComplex``, checked
    one facet at a time, with the maximal facets found by testing each
    against every other."""
    facets = list(facets)
    for facet in facets:
        if not isinstance(facet, (list, tuple)) or not all(type(v) is int for v in facet):
            raise ValueError(f"facet {facet!r} is not a list of integer vertex ids")
        if len(set(facet)) != len(facet):
            raise ValueError(f"repeated vertex in simplex {tuple(facet)}")
    distinct = {tuple(sorted(facet)) for facet in facets if facet}
    maximal = sorted(f for f in distinct if not any(set(f) < set(other) for other in distinct))
    used = max((v for f in maximal for v in f), default=-1)
    if vertex_count is None:
        vertex_count = used + 1
    elif vertex_count <= used:
        raise ValueError("vertex_count smaller than largest vertex id used")
    for facet in maximal:
        if min(facet) < 0:
            raise ValueError(f"facet {facet} has vertices outside 0..{vertex_count - 1}")
    steps = sum(2 ** len(f) - 1 for f in maximal)
    if steps > max_face_steps:
        raise ValueError(f"face enumeration (2^|f| - 1 steps per facet f) takes a step count of {steps}, "
                         f"past the cap (complexes.MAX_FACE_STEPS = {max_face_steps})")
    return vertex_count, tuple(maximal)


def graph_edges(vertex_count, edges) -> tuple:
    """The package's ``Graph`` check one edge at a time: each edge checked
    in turn, then the canonical pairs sorted."""
    seen = set()
    for edge in edges:
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and all(type(v) is int for v in edge)):
            raise ValueError(f"edge {edge!r} is not a pair of integers")
        u, v = edge
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u}, {v}) out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
    return tuple(sorted(seen))


def check_regular_girth(graph, degree: int, girth_target: int) -> None:
    """Assert what ``construct_regular_girth`` proves of the graph it returns
    unchecked: its edges are canonical (the per-edge check and ``Graph`` give
    them back unchanged), every vertex ends ``degree`` of them, and the girth
    by full BFS is at least ``girth_target``."""
    n = graph.vertex_count
    assert type(graph.edges) is tuple and graph_edges(n, graph.edges) == graph.edges
    assert Graph(n, graph.edges) == graph
    ends = Counter(itertools.chain.from_iterable(graph.edges))
    assert [ends[v] for v in range(n)] == [degree] * n
    assert girth(graph, girth_target) >= girth_target


def all_orientations(facets) -> list[tuple[int, ...]]:
    """Every facet sign assignment with opposite induced ridge signs (2^f search)."""
    facets = list(facets)
    valid = []
    for mask in range(2 ** len(facets)):
        signs = [1 if mask & (1 << i) else -1 for i in range(len(facets))]
        incidence: dict[tuple[int, ...], list[int]] = {}
        ok = True
        for idx, facet in enumerate(facets):
            for i in range(len(facet)):
                ridge = facet[:i] + facet[i + 1:]
                incidence.setdefault(ridge, []).append(signs[idx] * (-1) ** i)
        for induced in incidence.values():
            if len(induced) != 2 or sum(induced) != 0:
                ok = False
                break
        if ok:
            valid.append(tuple(signs))
    return valid


def hankel_min_order(terms, max_order: int) -> int | None:
    """Smallest r <= max_order such that an exact order-r recurrence fits all terms.

    Solves the full window system by Gaussian elimination over Fractions;
    r = 0 means the sequence is identically zero.
    """
    terms = [Fraction(t) for t in terms]
    for order in range(0, max_order + 1):
        if _fits_exact_order(terms, order):
            return order
    return None


def _fits_exact_order(terms, order: int) -> bool:
    if order == 0:
        return all(t == 0 for t in terms)
    if len(terms) <= order:
        return True  # vacuous: any order-r rule fits r terms
    rows = [
        terms[i: i + order] + [terms[i + order]]
        for i in range(len(terms) - order)
    ]
    solution = _solve_consistent(rows, order)
    if solution is None:
        return False
    return all(
        terms[n] == sum(solution[j] * terms[n - order + j] for j in range(order))
        for n in range(order, len(terms))
    )


def _solve_consistent(rows, width: int):
    """Gaussian elimination over Q; returns one solution or None if inconsistent."""
    matrix = [row[:] for row in rows]
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        scale = matrix[r][col]
        matrix[r] = [x / scale for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(matrix)):
        if matrix[i][width] != 0:
            return None
    solution = [Fraction(0)] * width
    for row_idx, col in enumerate(pivots):
        solution[col] = matrix[row_idx][width]
    return solution


def _lfsr_synthesis(terms: tuple[Fraction, ...], max_length: int) -> tuple[int, list[Fraction]]:
    """Minimal shift-register length and connection polynomial over Q.

    Returns (L, C) with C = [1, c_1, ..., c_L] such that
    s_n + sum_i c_i s_(n-i) = 0 for all n >= L.  L never decreases, so once
    it passes ``max_length`` the synthesis stops and returns an L above
    ``max_length`` with the polynomial of the terms read so far.
    """
    connection = [Fraction(1)]
    previous = [Fraction(1)]
    length = 0
    gap = 1
    prev_discrepancy = Fraction(1)
    for n, term in enumerate(terms):
        discrepancy = term
        for i in range(1, length + 1):
            discrepancy += connection[i] * terms[n - i]
        if discrepancy == 0:
            gap += 1
            continue
        scale = discrepancy / prev_discrepancy
        update = connection[:]
        padding = gap + len(previous) - len(connection)
        if padding > 0:
            update.extend([Fraction(0)] * padding)
        for i, coef in enumerate(previous):
            update[gap + i] -= scale * coef
        if 2 * length <= n:
            previous = connection
            prev_discrepancy = discrepancy
            length = n + 1 - length
            gap = 1
        else:
            gap += 1
        connection = update
        if length > max_length:
            break
    return length, connection


def _replays(terms, order: int, coefficients) -> bool:
    return all(
        terms[n] == sum(coefficients[i] * terms[n - 1 - i] for i in range(order))
        for n in range(order, len(terms))
    )


def recurrence_verdict(terms, max_order: int) -> RecurrenceVerdict:
    """``detect_linear_recurrence`` as it was built on the two functions above."""
    terms = tuple(Fraction(t) for t in terms)
    length, connection = _lfsr_synthesis(terms, max_order)
    coefficients = tuple(-c for c in connection[1: length + 1])
    coefficients += (Fraction(0),) * (length - len(coefficients))
    if length <= max_order and _replays(terms, length, coefficients):
        return RecurrenceVerdict(True, length, coefficients, len(terms), max_order)
    return RecurrenceVerdict(False, 0, (), 0, max_order)


def merge_torsion_chains(*chains) -> tuple[int, ...]:
    """Divisibility chain of the direct sum of cyclic groups (gcd/lcm closure)."""
    values = [d for chain in chains for d in chain]
    changed = True
    while changed:
        changed = False
        values.sort()
        for a in range(len(values)):
            for b in range(a + 1, len(values)):
                if values[b] % values[a]:
                    g = math.gcd(values[a], values[b])
                    values[a], values[b] = g, values[a] * values[b] // g
                    changed = True
    return tuple(v for v in values if v > 1)


def _free_reduce(word) -> tuple[int, ...]:
    """Cancel adjacent x, x^-1 pairs."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _inverse_word(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(tuple(word)))


def presentation_rows(text: str, max_letters: int = MAX_LETTERS):
    """Exponent-sum rows of a presentation string, read off its letters.

    Words are 1-based signed letters: every power is written out, every
    commutator expanded as u v u^-1 v^-1 and each word free-reduced; the
    letters count against ``max_letters`` as they are written.  Returns
    ``(generator_count, rows)`` in ``Presentation``'s row format.
    """
    if ";" not in text:
        raise ValueError("presentation string must be '<generators> ; <relators>'")
    gen_part, rel_part = text.split(";", 1)
    names = [g.strip() for g in gen_part.split(",") if g.strip()]
    if not names or len(set(names)) != len(names):
        raise ValueError("generator names must be nonempty and distinct")
    index = {name: i + 1 for i, name in enumerate(names)}
    expanded = 0

    def expand(letters: int) -> None:
        nonlocal expanded
        expanded += letters
        if expanded > max_letters:
            raise ValueError(f"the relators expand to a letter count of at least {expanded}, "
                             f"past the cap (presentations.MAX_LETTERS = {max_letters})")

    def parse_word(tokens, pos, stop):
        word: list[int] = []
        while pos < len(tokens) and tokens[pos] not in stop:
            atom, pos = parse_atom(tokens, pos)
            exponent = 1
            if pos < len(tokens) and tokens[pos] == "^":
                digits = tokens[pos + 1].lstrip("-") if pos + 1 < len(tokens) else ""
                if not digits.isdecimal():
                    raise ValueError("'^' must be followed by an integer")
                if len(digits) > MAX_DIGITS:
                    raise ValueError(f"an exponent after '^' has a digit count of {len(digits)}, "
                                     f"past the cap (_caps.MAX_DIGITS = {MAX_DIGITS})")
                exponent = int(tokens[pos + 1])
                pos += 2
            if exponent < 0:
                atom, exponent = _inverse_word(atom), -exponent
            expand(len(atom) * exponent)
            word.extend(atom * exponent)
        return _free_reduce(word), pos

    def parse_atom(tokens, pos):
        tok = tokens[pos]
        if tok == "[":
            left, pos = parse_word(tokens, pos + 1, {","})
            right, pos = parse_word(tokens, past_closer(tokens, pos, tok), {"]"})
            pos = past_closer(tokens, pos, tok)
            expand(2 * (len(left) + len(right)))
            return _free_reduce(left + right + _inverse_word(left) + _inverse_word(right)), pos
        if tok == "(":
            inner, pos = parse_word(tokens, pos + 1, {")"})
            return inner, past_closer(tokens, pos, tok)
        if tok in index:
            return (index[tok],), pos + 1
        longest_first = sorted(index, key=len, reverse=True)
        out, at = [], 0
        while at < len(tok):
            match = next((n for n in longest_first if tok.startswith(n, at)), None)
            if match is None:
                raise ValueError(f"unknown generator or token {tok!r}")
            out.append(index[match])
            at += len(match)
        return tuple(out), pos + 1

    def past_closer(tokens, pos, opener):
        if pos == len(tokens):
            raise ValueError(f"{opener!r} is not closed")
        return pos + 1

    tokens, rows, start = _tokenize(rel_part.rstrip()), [], 0
    while start <= len(tokens):  # the relators are the words between commas outside brackets
        word, end = parse_word(tokens, start, {","})
        if end > start:  # a relator of no tokens is dropped
            sums: dict[int, int] = {}
            for letter in word:
                sums[abs(letter) - 1] = sums.get(abs(letter) - 1, 0) + (1 if letter > 0 else -1)
            rows.append(tuple(sorted((g, total) for g, total in sums.items() if total)))
        start = end + 1
    return len(names), tuple(rows)


def minimal_parts_by_search(k: int, d: int) -> int:
    """Iterative deepening: smallest t with k expressible as t d-th powers."""
    powers = []
    base = 1
    while base ** d <= k:
        powers.append(base ** d)
        base += 1
    powers.reverse()

    def reachable(remaining: int, parts_left: int, largest: int) -> bool:
        if remaining == 0:
            return parts_left == 0
        if parts_left == 0:
            return False
        for p in powers:
            if p <= min(remaining, largest) and remaining <= p * parts_left:
                if reachable(remaining - p, parts_left - 1, p):
                    return True
        return False

    t = 1
    while not reachable(k, t, k):
        t += 1
    return t


def largest_first_parts(counts, k: int, d: int) -> tuple[int, ...]:
    """The minimal decomposition whose parts are lexicographically largest.

    Read off a list of minimal counts for 0..k: each step takes the largest
    base whose remainder needs exactly one part fewer.
    """
    parts = []
    while k:
        bases = itertools.takewhile(lambda base: base ** d <= k, itertools.count(1))
        part = max(base for base in bases if counts[k - base ** d] == counts[k] - 1)
        parts.append(part)
        k -= part ** d
    return tuple(parts)


def _ball(adj, root, radius):
    """Vertices within the given BFS distance of root."""
    seen = {root}
    frontier = [root]
    for _ in range(radius):
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return seen


# The girth search's attempt before its draws were written out: each vertex
# drawn from ``deficient`` is ``rng.choice(deficient)``, the far test goes
# through ``adj.__getitem__`` looked up at each draw, and B_2(u) is built by
# ``_ball``, here the plain BFS above, which returns the same set.
def greedy_attempt(degree, girth_target, n, rng, counts):
    """One randomized build: distance-respecting pairing with repairs.

    An edge (u, v) is only added when dist(u, v) >= g-1, so every created
    cycle has length >= g by construction.  The build goes one *visit* at a
    time: u is drawn uniformly from the deficient vertices, and the visit
    searches partners for u until u is full.  Each search is one step of
    ``STEP_BUDGET``.  A partner is drawn by rejection: up to ``REJECTIONS``
    times a vertex drawn uniformly from the deficient ones is kept when it
    is far from u (``_is_far``, against half = B_h(u), h = ceil((g-2)/2)).
    A kept draw is a uniform draw conditioned on admissibility, so each
    partner is uniform over the deficient vertices outside B_{g-2}(u) in the
    graph as it then stands.

    half is built once per visit and kept exact as the visit adds edges:
    after (u, v) is added, B_h(u) is the old B_h(u) together with
    B_{h-1}(v), both in the new graph.  A shortest path from u of length
    <= h either avoids the edge uv, and is then a path of the old graph
    (which differs only by that edge), so its end lies in the old ball; or
    it takes uv, which it can only take first, as u -> v, since a shortest
    path does not return to u, and the rest is a path of length <= h - 1
    from v.  Conversely every vertex of B_{h-1}(v) lies within 1 + (h - 1)
    of u.  The visit adds only edges at u, so no other change can reach
    half.

    After ``REJECTIONS`` rejected draws the step lists the deficient
    vertices outside near = B_{g-2}(u) and draws among them, again uniform
    over the admissible partners.  When there is none, u is repaired either
    by a double swap (remove an edge (x, y), add (u, x) and (v, y) for
    another deficient v, re-checking distances after each step) or by
    rotating a stub from a saturated far vertex; deletions never shorten
    cycles, so the girth invariant holds throughout.  A listing, a swap and
    a rotation each end the visit, as they change the graph away from u.
    No degree passes c: u, its partner and the mate gain an edge only while
    deficient (a lone deficient u lacks an even number, so two or more),
    and x, y and w lose one first.  The attempt ends only at n*c/2 edges,
    so with every degree c, and returns them as sorted (a, b), a < b.

    The deficient vertices are an unsorted list: a vertex reaching full
    degree is swapped with the last one and removed, found through its
    recorded position.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    deficient = list(range(n))  # the vertices below full degree, in no order
    position = list(range(n))  # position[v] is v's index in deficient
    edges = 0
    target_edges = n * degree // 2
    reach = girth_target - 2  # partners must lie outside this ball
    h, radius = (reach + 1) // 2, reach // 2  # meet in the middle: u's side, v's side
    choice = rng.choice
    budget = STEP_BUDGET
    steps = rejections = 0

    def connect(a, b):
        nonlocal edges
        for x, y in ((a, b), (b, a)):
            adj[x].add(y)
            if len(adj[x]) == degree:
                last = deficient.pop()
                if last != x:
                    deficient[position[x]] = last
                    position[last] = position[x]
        edges += 1

    def disconnect(a, b):
        nonlocal edges
        for x, y in ((a, b), (b, a)):
            adj[x].discard(y)
            if len(adj[x]) == degree - 1:
                position[x] = len(deficient)
                deficient.append(x)
        edges -= 1

    while edges < target_edges and steps < budget:
        u = choice(deficient)
        neighbours = adj[u]
        half = _ball(adj, u, h)
        while True:  # the visit: one partner search a step
            steps += 1
            for _ in range(REJECTIONS):
                v = choice(deficient)
                if radius == 2:  # _is_far written out for g = 6, 7, the window's largest builds
                    reached = adj[v]
                    if v not in half and half.isdisjoint(reached) and half.isdisjoint(
                        chain.from_iterable(map(adj.__getitem__, reached))
                    ):
                        break
                elif _is_far(adj, half, v, radius):
                    break
                rejections += 1
            else:
                v = None
                break
            # connect(u, v), inline: v leaves deficient when full, and u
            # ends the visit when full
            reached = adj[v]
            neighbours.add(v)
            reached.add(u)
            edges += 1
            if len(reached) == degree:
                last = deficient.pop()
                if last != v:
                    deficient[position[v]] = last
                    position[last] = position[v]
            if len(neighbours) == degree:
                last = deficient.pop()
                if last != u:
                    deficient[position[u]] = last
                    position[last] = position[u]
                break
            if steps == budget:
                break
            # B_h(u) grows by B_{h-1}(v)
            half.add(v)
            if h == 2:
                half |= reached
            elif h > 2:
                half |= _ball(adj, v, h - 1)
        if v is not None:  # u is full, or the budget is spent
            continue
        counts.listings += 1
        near = _ball(adj, u, reach)
        partners = [w for w in deficient if w not in near]
        if partners:
            connect(u, choice(partners))
            continue
        if _double_swap(adj, connect, disconnect, u, near, deficient, reach, n, rng):
            counts.swaps += 1
            continue
        # reshuffle: rotate a stub from a saturated far vertex onto u
        far = [w for w in range(n) if w != u and w not in near]
        if not far:
            break
        w = choice(far)
        others = [z for z in adj[w] if z != u]
        if not others:
            break
        z = choice(others)
        disconnect(w, z)
        connect(u, w)
        counts.rotations += 1
    counts.steps += steps
    counts.rejections += rejections
    if edges != target_edges:
        return None
    return tuple((a, b) for a in range(n) for b in sorted(adj[a]) if b > a)


def best_upper_table(k_max: int, ingredients) -> list[float]:
    """best[1..k_max] of ``UpperBoundIngredients``, best[0] = 0: the best single
    part at k (an atom at k, a C k/ln(1+k) term or a cap), then each atom below k
    plus the best value at the rest."""

    def direct(k):
        best = math.inf
        for multiple, value in ingredients.base:
            if multiple == k:
                best = min(best, value)
        for c in ingredients.sublinear_constants:
            best = min(best, c * k / math.log(1 + k))
        for cap in ingredients.constant_caps:
            best = min(best, cap)
        return best

    best = [0.0] * (k_max + 1)
    for k in range(1, k_max + 1):
        value = direct(k)
        for multiple, atom_value in ingredients.base:
            if multiple < k:
                value = min(value, atom_value + best[k - multiple])
        best[k] = value
    return best


# what @record adds to a class, which the twin gets from dataclass instead
_RECORD_MEMBERS = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
                   "__record_fields__", "__dict__", "__weakref__", "__annotations__"}


def dataclass_twin(cls):
    """``cls`` declared as ``@dataclass(frozen=True)``: the same annotations,
    defaults, ``__post_init__`` and other methods, under the same name."""
    annotations = vars(cls)["__annotations__"]
    spec = [
        (name, kind, dataclasses.field(default=vars(cls)[name])) if name in vars(cls) else (name, kind)
        for name, kind in annotations.items()
    ]
    namespace = {
        key: value for key, value in vars(cls).items()
        if key not in _RECORD_MEMBERS and key not in annotations
    }
    return dataclasses.make_dataclass(cls.__name__, spec, namespace=namespace, frozen=True)
