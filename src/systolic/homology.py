"""Integer simplicial homology with torsion, plus the triangle/torsion bound.

Homology is unreduced: betti[0] counts the connected components.  Before
any matrix is built, ``homology`` removes cells in pairs (Mrozek and Batko,
"Coreduction homology algorithm", Discrete Comput. Geom. 2009), and only
the cells left over reach the Smith form.

The chain complex C has one basis element per face, and the boundary of a
sorted simplex gives the face that deletes its i-th vertex the sign
``complexes.boundary_sign(i)``, (-1)^i.  Removing a set of cells means
passing to the quotient by the subcomplex they span, whose differential is
the original one restricted to the cells still live.  The removals are of
three kinds.

- One vertex per connected component: the least live vertex whenever the
  queue of pairs runs dry (``_reduce`` says why it starts a new component).
  A live vertex v spans a subcomplex with homology Z in degree 0, and [v]
  generates a free summand of H_0.  So the quotient has the same H_k for
  k >= 1, and H_0 loses that Z summand.  The components are added back to
  betti[0] at the end.
- Coreductions (a, b): the live boundary of b is the single cell a.
  Then the live boundary of b is +-a, and b, a span an acyclic subcomplex
  Z -> Z with a +-1 map.
- Free-face reductions (a, b): the single live coface of a is b.  Then
  b and its live boundary span an acyclic subcomplex of the same kind, and
  in the basis where a is replaced by that boundary nothing else changes,
  because no other live cell has a on its boundary.

Each pair is a +-1 pivot with no fill, and the quotient by an acyclic
subcomplex has the same integer homology, torsion included, by the long
exact sequence.  Betti numbers of what is left are live_k - rank_k -
rank_{k+1}, and its torsion is that of the leftover boundary operators.
The pairs come off a FIFO queue seeded in lexicographic face order: each
removal queues the cells whose live boundary or coboundary it shrank.
``check_s2_torsion_bound`` reads |Tors H_1| from ``homology``.
"""
from __future__ import annotations

import math
from collections import deque
from itertools import combinations

from ._record import record
from .complexes import SimplicialComplex, boundary_sign, face_counts
from .snf import smith_normal_form


@record
class HomologySummary:
    """Betti numbers and torsion invariant factors per dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]


def homology(complex_: SimplicialComplex) -> HomologySummary:
    """Homology groups H_k = Z^betti(k) + sum Z_d for k = 0..dim."""
    groups = complex_.faces_by_dim
    if not groups:
        return HomologySummary((), ())
    components, live_counts, boundaries = _reduce(complex_)
    forms = list(map(smith_normal_form, boundaries))
    ranks = [0, *(form.rank for form in forms), 0]
    betti = [live_counts[k] - ranks[k] - ranks[k + 1] for k in range(len(groups))]
    betti[0] += components
    torsion = [form.torsion_factors for form in forms] + [()]
    return HomologySummary(tuple(betti), tuple(torsion))


def _reduce(complex_: SimplicialComplex) -> tuple[int, list[int], list[dict]]:
    """Remove reduction pairs and one vertex per component from the faces of ``complex_``.

    The queue of pairs is drained; then the least live vertex is removed,
    one component is counted, and the vertex's live cofaces are queued;
    this repeats until no vertex is live.  Each removed vertex starts a new
    component, so the count is the number of components:

    - At a drain, no live edge has exactly one live end, because such an
      edge would have been coreduced.  So H_0 of what is left is free on the
      pieces of live vertices joined by live edges.
    - Removing {v} kills [v] in H_0, and pair removals keep homology.  So
      there is exactly one such piece per component that has no removed
      vertex yet, and the least live vertex always starts a new component.

    Returns the number of components, the number of cells left in each
    dimension, and for k = 1..dim the leftover boundary operator as a
    sparse {(face, cell): sign} mapping keyed by the live cells' ids, in
    increasing cell order.
    """
    groups = complex_.faces_by_dim
    # cells are numbered by dimension, then in lexicographic order; a k-cell's
    # faces are listed as combinations() gives them, so the one at position p
    # misses vertex k - p
    faces: list[tuple[int, ...]] = [()] * len(groups[0])
    starts = [0, len(faces)]
    for k in range(1, len(groups)):
        index = dict(zip(groups[k - 1], range(starts[k - 1], starts[k])))
        faces += (tuple(map(index.__getitem__, combinations(s, k))) for s in groups[k])
        starts.append(len(faces))
    cofaces: list[list[int]] = [[] for _ in faces]
    for cell, boundary in enumerate(faces):
        for face in boundary:
            cofaces[face].append(cell)

    live = [True] * len(faces)
    face_count = list(map(len, faces))
    coface_count = list(map(len, cofaces))

    def remove(cell):
        live[cell] = False
        for face in faces[cell]:
            coface_count[face] -= 1
        for coface in cofaces[cell]:
            face_count[coface] -= 1

    components = 0
    vertices = iter(range(starts[1]))  # removed cells stay removed: one pass finds each least live vertex
    queue = deque(range(len(faces)))
    while True:
        while queue:
            cell = queue.popleft()
            if not live[cell]:
                continue
            if face_count[cell] == 1:
                pair = (next(f for f in faces[cell] if live[f]), cell)
            elif coface_count[cell] == 1:
                pair = (cell, next(c for c in cofaces[cell] if live[c]))
            else:
                continue
            for member in pair:
                remove(member)
            for member in pair:
                queue.extend(x for x in faces[member] if live[x])
                queue.extend(x for x in cofaces[member] if live[x])
        vertex = next((v for v in vertices if live[v]), None)
        if vertex is None:
            break
        remove(vertex)
        components += 1
        queue.extend(c for c in cofaces[vertex] if live[c])

    left = [[c for c in range(starts[k], starts[k + 1]) if live[c]] for k in range(len(groups))]
    boundaries = [
        {
            (face, cell): boundary_sign(k - p)
            for cell in left[k]
            for p, face in enumerate(faces[cell])
            if live[face]
        }
        for k in range(1, len(groups))
    ]
    return components, [len(cells) for cells in left], boundaries


@record
class TriangleTorsionReport:
    """Triangle count versus the 2*log3 |Tors H_1| lower bound."""

    s2: int
    torsion_order: int
    lower_bound: float
    holds: bool


def check_s2_torsion_bound(complex_: SimplicialComplex) -> TriangleTorsionReport:
    """Check s_2(X) >= 2 log_3 |Tors H_1(X, Z)|, decided as |Tors|^2 <= 3^s2 in integers.

    This holds for every complex; a False verdict signals a bug, not a
    property of the input.
    """
    from .bounds import height_from_torsion  # here, so that homology alone does not load bounds

    counts = face_counts(complex_)
    s2 = counts[2] if len(counts) > 2 else 0
    torsion = homology(complex_).torsion
    order = math.prod(torsion[1]) if len(torsion) > 1 else 1
    return TriangleTorsionReport(s2, order, height_from_torsion(order), order * order <= 3 ** s2)
