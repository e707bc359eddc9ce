"""Finite simplicial complexes and the sign convention of their boundaries.

A complex is stored as its list of maximal simplices (facets); faces are
enumerated on demand.  ``boundary_sign`` is the one place the boundary sign
is written; ``homology`` and ``orient`` read it.  Everything is pure and
immutable: operations return new values and never mutate their inputs.
All arithmetic is exact.
"""
from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import chain, combinations
from operator import eq

from ._caps import check, read_json
from ._record import record


# The most steps face enumeration may take: the sum of 2^|f| - 1 over the
# facets.  It bounds what homology does after it: at the cap, 8 000 disjoint
# tetrahedra take 0.4-0.8 s and a 58 MiB peak for homology in process, 7
# disjoint 13-simplices (114 681 steps) 0.7-1.2 s and 72 MiB, and a 15-, a
# 14- and a 13-simplex, the largest peak tried, 0.6 s and 75 MiB (best of 3
# in rounds whose host speed differed up to 2x; 2 vCPUs, Python 3.11).
# T^3 with k = 10 takes 90 000.
MAX_FACE_STEPS = 120_000


@record
class SimplicialComplex:
    """A simplicial complex given by its facets, made canonical by the constructor.

    ``facets`` is any iterable of vertex-id lists or tuples.  Each facet is
    sorted, and empty, repeated and non-maximal ones are dropped, so the
    record's facets are strictly increasing tuples, lexicographically sorted,
    mutually non-contained.  ``vertex_count`` bounds the vertex id space and
    defaults to one past the largest vertex.  Refused, in this order: a facet
    that is no list or tuple of ints (a boolean is none) or repeats a vertex,
    a ``vertex_count`` that is no int (a boolean is none) or not above every
    vertex, a negative vertex, and a complex past ``MAX_FACE_STEPS``.
    """

    facets: tuple[tuple[int, ...], ...]
    vertex_count: int | None = None

    def __post_init__(self):
        facets = self.facets if type(self.facets) in (list, tuple) else tuple(self.facets)
        # each check is one pass in C; the walk names the first bad facet
        if not (set(map(type, facets)) <= {list, tuple} and set(map(type, chain.from_iterable(facets))) <= {int}
                and all(map(eq, map(len, map(set, facets)), map(len, facets)))):
            for facet in facets:
                if type(facet) not in (list, tuple) or any(type(v) is not int for v in facet):
                    raise ValueError(f"facet {facet!r} is not a list of integer vertex ids")
                if len(set(facet)) != len(facet):
                    raise ValueError(f"repeated vertex in simplex {tuple(facet)}")
        # the empty simplex is a face of every simplex, never a facet
        cleaned = sorted(set(map(tuple, map(sorted, facets))) - {()}, key=lambda f: (-len(f), f))
        maximal: list[tuple[int, ...]] = []
        holders: dict[int, set[int]] = defaultdict(set)  # vertex -> positions in maximal of kept facets on it
        for f in cleaned:  # longest first, so every facet that could contain f is indexed
            # f lies in a kept facet iff its vertices' holder sets meet (smallest
            # set first); a longest facet lies in no other
            if len(f) < len(cleaned[0]) and set.intersection(
                *sorted((holders.get(v, set()) for v in f), key=len)
            ):
                continue
            if len(f) > len(cleaned[-1]):  # only a shorter facet reads the index
                for v in f:
                    holders[v].add(len(maximal))
            maximal.append(f)
        maximal.sort()
        vertex_count = self.vertex_count
        used_max = max((f[-1] for f in maximal), default=-1)
        if vertex_count is None:
            vertex_count = used_max + 1
        elif type(vertex_count) is not int:
            raise ValueError(f"vertex_count {vertex_count!r} is not an integer")
        elif vertex_count <= used_max:
            raise ValueError("vertex_count smaller than largest vertex id used")
        if maximal and maximal[0][0] < 0:  # the least facet holds the least vertex
            raise ValueError(f"facet {maximal[0]} has vertices outside 0..{vertex_count - 1}")
        check("complexes.MAX_FACE_STEPS", sum((1 << len(f)) - 1 for f in maximal), MAX_FACE_STEPS,
              "face enumeration (2^|f| - 1 steps per facet f) takes a step count of")
        object.__setattr__(self, "facets", tuple(maximal))
        object.__setattr__(self, "vertex_count", vertex_count)

    @property
    def dim(self) -> int | None:
        """Max facet dimension, or None for the empty complex."""
        if not self.facets:
            return None
        return max(len(f) for f in self.facets) - 1

    @property
    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    @cached_property
    def faces_by_dim(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """All faces of the closure, grouped by dimension, each group lex-sorted."""
        if not self.facets:
            return ()
        groups: list[set[tuple[int, ...]]] = [set() for _ in range(self.dim + 1)]
        for facet in self.facets:
            for k in range(1, len(facet) + 1):
                groups[k - 1].update(combinations(facet, k))
        return tuple(tuple(sorted(g)) for g in groups)


def face_counts(complex_: SimplicialComplex) -> list[int]:
    """Number of k-faces of the closure for k = 0..dim."""
    return [len(g) for g in complex_.faces_by_dim]


def boundary_sign(i: int) -> int:
    """The sign, (-1)^i, that the boundary of a sorted simplex gives the face
    deleting its i-th vertex."""
    return -1 if i % 2 else 1


def _ridge_incidence(complex_: SimplicialComplex) -> dict[tuple[int, ...], list[tuple[int, int]]]:
    """Map each (m-1)-face to the (facet index, position of the missing
    vertex) of each facet containing it."""
    incidence: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for idx, facet in enumerate(complex_.facets):
        for i in range(len(facet)):
            incidence.setdefault(facet[:i] + facet[i + 1:], []).append((idx, i))
    return incidence


def _facet_walk(complex_: SimplicialComplex) -> tuple[str, bool]:
    """Why the complex is not a pseudomanifold ("" when it is one), and
    whether one walk of the facet graph from facet 0 orients it.

    A pseudomanifold is pure, has every ridge in exactly two facets and is
    strongly connected.  An empty or impure complex, or one with a ridge in
    other than two facets, is refused before the walk.  Each facet the walk
    reaches gets the sign that gives it and the facet it was reached from
    opposite induced signs on their shared ridge; a facet never reached
    keeps None, and the complex is refused as not strongly connected.  A
    reached facet whose sign disagrees makes the complex non-orientable.
    """
    if not complex_.facets:
        return "empty complex", False
    if not complex_.is_pure:
        return "not dimension-homogeneous", False
    incidence = _ridge_incidence(complex_)
    if any(len(sharing) != 2 for sharing in incidence.values()):
        return "boundary or branching ridges", False
    facets = complex_.facets
    signs: list[int | None] = [None] * len(facets)
    orientable = True
    signs[0] = 1
    stack = [0]
    while stack:
        current = stack.pop()
        facet = facets[current]
        for i in range(len(facet)):
            for other, j in incidence[facet[:i] + facet[i + 1:]]:
                if other == current:
                    continue
                # opposite induced signs: s_other * sign(j) = -s_current * sign(i)
                required = -signs[current] * boundary_sign(i) * boundary_sign(j)
                if signs[other] is None:
                    signs[other] = required
                    stack.append(other)
                elif signs[other] != required:
                    orientable = False
    if None in signs:
        return "facet adjacency graph disconnected", False
    return "", orientable


def orient(complex_: SimplicialComplex) -> bool:
    """Whether the facets take signs with opposite induced signs on each
    shared ridge: the verdict of the one facet walk that also checks the
    pseudomanifold, which refuses anything else."""
    refusal, orientable = _facet_walk(complex_)
    if refusal:
        raise ValueError(f"orientation undefined: {refusal}")
    return orientable


def is_admissible_dim2(complex_: SimplicialComplex) -> bool:
    """True iff every vertex link of a pure 2-complex is a single cycle.

    For a 2-pseudomanifold this characterises surfaces; pinch points (links
    with several cycle components) fail.  A link is one cycle exactly when
    it is a connected 1-pseudomanifold, which the facet walk decides.
    """
    if complex_.dim != 2 or not complex_.is_pure:
        raise ValueError("admissibility test requires a pure complex of dimension 2")
    link_edges: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for facet in complex_.facets:
        for i, vertex in enumerate(facet):
            link_edges[vertex].append(facet[:i] + facet[i + 1:])
    return not any(_facet_walk(SimplicialComplex(edges))[0] for edges in link_edges.values())


def connected_sum(
    x: SimplicialComplex,
    y: SimplicialComplex,
    *,
    allow_nonorientable: bool = False,
) -> SimplicialComplex:
    """Connected sum: drop one facet from each side, glue along the boundary.

    Boundary vertices are matched in sorted order (the distinguished facets
    are the lexicographically first ones); remaining vertices of ``y`` are
    relabelled above ``x``'s id space.  Inputs must be pseudomanifolds of
    equal dimension >= 1, orientable unless ``allow_nonorientable`` is set
    (surface-level sums of non-orientable inputs are still well defined).
    """
    if x.dim is None or y.dim is None or x.dim != y.dim or x.dim < 1:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    for side, z in (("first", x), ("second", y)):
        refusal, orientable = _facet_walk(z)
        if refusal:
            raise ValueError(f"{side} argument: {refusal}")
        if not (allow_nonorientable or orientable):
            raise ValueError(f"{side} argument is non-orientable")
    removed_x = x.facets[0]
    removed_y = y.facets[0]
    mapping = dict(zip(removed_y, removed_x))
    fresh = x.vertex_count
    for v in range(y.vertex_count):
        if v not in mapping:
            mapping[v] = fresh
            fresh += 1
    facets = [f for f in x.facets if f != removed_x]
    facets += [tuple(map(mapping.get, f)) for f in y.facets if f != removed_y]  # the constructor sorts them
    return SimplicialComplex(facets, fresh)


def load_complex(source) -> SimplicialComplex:
    """Read the JSON complex format {"vertices": n, "facets": [[...], ...]}
    from text or a file."""
    return read_json(source, "complex", _complex)


def _complex(data: dict) -> SimplicialComplex:
    facets = data.get("facets")
    if type(facets) is not list:
        raise ValueError("'facets' must be a list of integer vertex-id lists")
    return SimplicialComplex(facets, data.get("vertices"))
