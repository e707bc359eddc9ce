"""Regular graphs of prescribed girth and metric systoles of uniform graphs.

The constructor is a seeded randomized search (greedy distance-respecting
pairing with conflict-edge deletion and restarts); ``_greedy_attempt``
shows its graphs regular with the target girth, so none is checked again.
It goes one vertex visit at a time: u is drawn uniformly from the deficient
vertices, and the visit fills u's missing stubs.  Each partner for u is
drawn by rejection: a uniformly drawn deficient v is kept when it lies
outside B_{g-2}(u), tested by meet in the middle as B_ceil((g-2)/2)(u) and
B_floor((g-2)/2)(v) being disjoint.  u's ball is built once per visit and
grown by each partner's ball as the visit adds its edges.  After
``REJECTIONS`` rejected draws the visit lists the admissible partners from
the whole ball B_{g-2}(u), draws among them and ends.  Within a visit a
kept draw is uniform over the admissible partners, and so is a listed one,
so every partner is a uniform draw from that list as the graph then
stands.
"""
from __future__ import annotations

import json
import math
import random
from functools import cached_property
from itertools import chain, islice
from operator import lt, mul

from ._caps import check, read_json
from ._record import record, trusted

# The most vertices a graph file may have.  It admits a file anywhere in the
# degree-7 vertex window at l=7, whose top is 6**7 = 279_936.  Builds are
# refused by STEP_BUDGET instead: past 300_000 vertices of degree >= 3 a
# build needs more than 450_000 edges, and no build of 57_143 or more
# degree-7 vertices passes.  It bounds memory; MAX_DEGREE_SQUARES bounds the
# girth search.
MAX_VERTICES = 300_000
# The largest sum over the vertices of degree**2 that `girth` searches: that
# of a 7-regular graph at MAX_VERTICES, so every degree-7 file the vertex cap
# admits is searched.  On graphs of girth 6, of degrees 7 to 60, a `girth`
# run through the CLI costs 2.1-2.8e-7 s per unit of the sum (2 vCPUs,
# Python 3.11).  The costliest tried, a 7-regular random 48-lift of an l=5
# build (298_368 vertices, sum 14_620_032), takes 4.1-4.3 s with a 279 MiB
# peak, about 1.2 s of it the load.
MAX_DEGREE_SQUARES = 7 ** 2 * MAX_VERTICES


@record
class Graph:
    """Simple undirected graph on vertices 0..n-1, given by an iterable of
    edges, each a list or tuple of two ints (a boolean is none).  The
    constructor refuses a vertex count that is no non-negative int (a
    boolean is none), a loop, an end out of range and an edge given twice,
    and keeps the edges as sorted (u, v) pairs with u < v."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertex_count
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex_count {n!r} is not a non-negative integer")
        edges = self.edges if type(self.edges) in (list, tuple) else tuple(self.edges)
        pairs = _sorted_pairs(n, edges)
        if pairs is None:  # a bulk check failed: walk the edges to name the first bad one
            seen = set()
            for edge in edges:
                if type(edge) not in (list, tuple) or len(edge) != 2 or {type(edge[0]), type(edge[1])} != {int}:
                    raise ValueError(f"edge {edge!r} is not a pair of integers")
                u, v = edge
                if u == v:
                    raise ValueError(f"loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range")
                key = (min(u, v), max(u, v))
                if key in seen:
                    raise ValueError(f"duplicate edge {key}")
                seen.add(key)
            pairs = tuple(sorted(seen))
        object.__setattr__(self, "edges", pairs)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # the edges are sorted (u, v) pairs with u < v, so each vertex gets
        # its lower neighbours in increasing order, then its higher ones
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(map(tuple, adj))

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def is_regular(self, degree: int) -> bool:
        return all(d == degree for d in self.degrees)


def _sorted_pairs(vertex_count, edges):
    """The edges as sorted (min, max) pairs, checked in bulk, each check one
    pass over the edges in C: each edge a list or tuple of two ints (not
    bools), no loop, every end in range, no edge twice.  None when a check
    fails."""
    if not edges:
        return ()
    if not set(map(type, edges)) <= {list, tuple} or set(map(len, edges)) != {2}:
        return None
    us, vs = zip(*edges)
    if set(map(type, us)) | set(map(type, vs)) != {int}:
        return None
    if not all(map(lt, us, vs)):  # a reversed pair or a loop
        us, vs = list(map(min, us, vs)), list(map(max, us, vs))
        if not all(map(lt, us, vs)):
            return None
    if min(us) < 0 or max(vs) >= vertex_count:
        return None
    keys = sorted(zip(us, vs))  # linear when the input is sorted already
    if not all(map(lt, keys, islice(keys, 1, None))):  # an edge twice
        return None
    return tuple(keys)


@record
class MetricGraph:
    """Graph with one uniform rational edge length."""

    graph: Graph
    edge_length: Fraction

    def __post_init__(self):
        from fractions import Fraction  # here, so that building a graph does not load it

        length = Fraction(self.edge_length)
        if length <= 0:
            raise ValueError("edge length must be positive")
        object.__setattr__(self, "edge_length", length)


def girth(graph: Graph) -> int | float:
    """Length of a shortest cycle; inf for forests.

    First the vertices of degree <= 1 are peeled, repeatedly: such a vertex
    lies on no cycle, so the girth is that of what is left (the 2-core),
    and a forest leaves nothing.  Then a breadth-first search runs from
    each vertex r left, in increasing order, through the vertices > r
    only, one level at a time.  After each search r is taken out and the
    peel runs again: a vertex of degree <= 1 among those left lies on no
    cycle through the vertices > r, so no later search needs it, and one
    long cycle is searched once, not once from each of its vertices.

    A non-tree edge between levels d and d' closes a cycle of length at
    most d + d' + 1 (the edge and the tree path between its ends), inside
    the vertices >= r.  An edge within level d gives 2d + 1; an edge to a
    vertex already on level d + 1, reached from another parent, gives
    2d + 2; an edge back to level d - 1 is skipped, as it is the edge to
    level d + 1 seen from its other end.

    The result is exact because every shortest cycle C is found from its
    least vertex r: C lies among the vertices >= r, where it is still a
    shortest cycle, so the distances from r along C are distances in that
    subgraph; no vertex of C is peeled before, as each keeps its two
    neighbours on C.  If |C| = 2k + 1, the edge of C opposite r joins two vertices
    of level k; if |C| = 2k, the vertex of C opposite r is on level k with
    two neighbours on level k - 1.  Either way the search from r sees it
    while working from a level d with 2d + 1 <= |C|.

    Working from level d closes cycles of length 2d + 1 and 2d + 2 only,
    so a root's search stops at the first level d with 2d + 1 >= best: no
    cycle it could still close is shorter.  At a level d with
    2d + 1 < best <= 2d + 2 only a cycle of length 2d + 1 can still count,
    and it is there exactly when an edge joins two vertices of level d, so
    one set test settles the level and level d + 1 is never built.

    A graph whose squared degrees sum past ``MAX_DEGREE_SQUARES`` is refused
    before the search.
    """
    adjacency = graph.adjacency
    n = graph.vertex_count
    # degree[v] counts v's neighbours still in, while v is in
    degree = list(map(len, adjacency))
    check("graphs.MAX_DEGREE_SQUARES", sum(map(mul, degree, degree)), MAX_DEGREE_SQUARES,
          "the graph's squared degrees sum to")
    # stamp[v] is the root whose search reached v, or n once v is out of
    # every later search (peeled, or a finished root); dist[v] is v's level
    # in that search, or -1 once v is out.
    stamp = [-1] * n
    dist = [-1] * n

    def peel(out):
        """Take out every vertex left with degree <= 1, after those in out."""
        while out:
            for w in adjacency[out.pop()]:
                if stamp[w] != n:
                    degree[w] -= 1
                    if degree[w] < 2:
                        stamp[w], dist[w] = n, -1
                        out.append(w)

    leaves = [v for v in range(n) if degree[v] < 2]
    for v in leaves:
        stamp[v] = n
    peel(leaves)
    best = math.inf
    for root in range(n):
        if stamp[root] == n:
            continue
        stamp[root], dist[root] = root, 0
        level, d = [root], 0
        while level and 2 * d + 1 < best:
            if 2 * d + 2 >= best:  # the last level: only 2d + 1 counts
                if not set(level).isdisjoint(chain.from_iterable(map(adjacency.__getitem__, level))):
                    best = 2 * d + 1
                break
            below, d = level, d + 1
            level = []
            for v in below:
                for w in adjacency[v]:
                    if stamp[w] < root:
                        stamp[w], dist[w] = root, d
                        level.append(w)
                    elif dist[w] == d - 1:  # both ends on the level below: an odd cycle
                        best = min(best, 2 * d - 1)
                    elif dist[w] == d:  # w already has another parent: an even cycle
                        best = min(best, 2 * d)
        stamp[root], dist[root] = n, -1
        peel([root])
    return best


def moore_bound(degree: int, girth_target: int) -> int:
    """Classical minimum vertex count of a degree-c graph with girth g."""
    if degree < 3 or girth_target < 3:
        raise ValueError("Moore bound defined for degree >= 3 and girth >= 3")
    if girth_target % 2:
        radius = (girth_target - 1) // 2
        return 1 + degree * sum((degree - 1) ** i for i in range(radius))
    radius = girth_target // 2
    return 2 * sum((degree - 1) ** i for i in range(radius))


def vertex_window(degree: int, path_scale: int) -> tuple[int, int]:
    """Admissible even-vertex-count window for degree-c sleeve assemblies.

    Exact integers: lower = ceil(4 ((c-1)^l - (c-1)) / (c-2)), upper = (c-1)^l.
    The window is nonempty for every c >= 7 (which is 2m+1 for dimension
    m >= 3, the regime where the assembly applies), so smaller degrees are
    refused.
    """
    if degree < 7:
        raise ValueError(
            "vertex window requires degree >= 7 (degree 2m+1 with dimension m >= 3)"
        )
    if path_scale < 1:
        raise ValueError("path scale l must be a positive integer")
    spread = (degree - 1) ** path_scale - (degree - 1)
    lower = -(-4 * spread // (degree - 2))
    upper = (degree - 1) ** path_scale
    return lower, upper


def metric_systole(
    metric_graph: MetricGraph, shortest: int | float | None = None
) -> Fraction | float:
    """Shortest cycle length in the uniform metric: girth * edge length.

    ``shortest`` is the graph's girth when the caller has it already.
    """
    g = girth(metric_graph.graph) if shortest is None else shortest
    if g is math.inf:
        return math.inf
    return g * metric_graph.edge_length


def construct_regular_girth(
    degree: int,
    girth_target: int,
    vertices: int,
    seed: int = 0,
) -> Graph:
    """Seeded search for a degree-regular graph with girth >= girth_target.

    Greedy pairing adds edges only between vertices at distance >= g-1,
    each partner uniform among the admissible ones, and deletes blocking
    edges when stuck (Erdos-Sachs flavoured).  A finished attempt is
    returned unchecked, as ``_greedy_attempt`` proves it regular with girth
    >= girth_target.  Infeasible requests are refused; so is a request
    with more edges than ``STEP_BUDGET``, the steps of one attempt, before
    the first attempt.  After ``MAX_RESTARTS`` abandoned attempts the
    search raises instead of returning a partial graph.
    """
    if degree < 3 or girth_target < 3:
        raise ValueError("need degree >= 3 and girth >= 3")
    if vertices * degree % 2:
        raise ValueError(f"{degree}-regular graph needs an even degree sum")
    if vertices <= degree:
        raise ValueError(f"{degree}-regular graph needs more than {degree} vertices")
    # each step adds at most one edge, so a smaller budget cannot finish;
    # checked before the Moore bound, which a huge request makes huge
    check("graphs.STEP_BUDGET", vertices * degree // 2, STEP_BUDGET,
          f"{vertices} vertices of degree {degree} need one attempt step per edge, a step count of")
    if girth_target // 2 >= vertices.bit_length():
        # moore_bound >= 2**(g // 2) > vertices: refuse before forming a bound
        # that can run to thousands of digits
        raise ValueError(
            f"{vertices} vertices is below the Moore bound (at least 2**{girth_target // 2}) "
            f"for degree {degree}, girth {girth_target}"
        )
    floor = moore_bound(degree, girth_target)
    if vertices < floor:
        raise ValueError(
            f"{vertices} vertices is below the Moore bound {floor} for "
            f"degree {degree}, girth {girth_target}"
        )
    rng = random.Random(seed)
    counts = SearchCounts()
    for _ in range(MAX_RESTARTS):
        edges = _greedy_attempt(degree, girth_target, vertices, rng, counts)
        if edges is not None:
            return trusted(Graph, vertices, edges)
        counts.restarts += 1
    raise ValueError(
        f"no {degree}-regular graph of girth >= {girth_target} on {vertices} "
        f"vertices found within the search budget (seed {seed}; {counts})"
    )


class SearchCounts:
    """Deterministic tallies of one girth search: abandoned attempts, steps
    taken, drawn partners rejected as too near, steps that listed the
    admissible partners, double swaps made and stubs rotated by a
    reshuffle."""

    def __init__(self):
        self.restarts = self.steps = self.rejections = 0
        self.listings = self.swaps = self.rotations = 0

    def __str__(self):
        return (f"{self.restarts} restarts, {self.steps} steps, "
                f"{self.rejections} rejections, {self.listings} listings, "
                f"{self.swaps} swaps, {self.rotations} rotations")


# Drawn partners a step rejects before it lists the admissible ones.
REJECTIONS = 32
# Attempts one search makes, and steps one attempt takes, before giving up.
MAX_RESTARTS = 400
STEP_BUDGET = 200_000
# Edges a double swap tries before the step falls back to a rotation.
SWAP_TRIALS = 60


def _greedy_attempt(degree, girth_target, n, rng, counts):
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
    recorded position.  u and each partner are drawn from it inline: for
    m = len(deficient) and k = m.bit_length(), ``rng.getrandbits(k)`` is
    called until its result r is below m, and the vertex is deficient[r],
    uniform over the list.  This is the draw ``rng.choice(deficient)``
    makes, so the inline draws take the stream it would.  Within a step
    m stays fixed, as deficient changes only when an edge is added.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    deficient = list(range(n))  # the vertices below full degree, in no order
    position = list(range(n))  # position[v] is v's index in deficient
    edges = 0
    target_edges = n * degree // 2
    reach = girth_target - 2  # partners must lie outside this ball
    h, radius = (reach + 1) // 2, reach // 2  # meet in the middle: u's side, v's side
    choice, getrandbits = rng.choice, rng.getrandbits
    adjacent, flatten = adj.__getitem__, chain.from_iterable
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
        m = len(deficient)
        k = m.bit_length()
        i = getrandbits(k)
        while i >= m:
            i = getrandbits(k)
        u = deficient[i]
        neighbours = adj[u]
        if h == 2:  # _ball(adj, u, 2), written out
            half = {u, *neighbours}
            half.update(*map(adjacent, neighbours))
        else:
            half = _ball(adj, u, h)
        while True:  # the visit: one partner search a step
            steps += 1
            m = len(deficient)  # deficient changes only when an edge is added
            k = m.bit_length()
            for _ in range(REJECTIONS):
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                v = deficient[r]
                if radius == 2:  # _is_far written out for g = 6, 7, the window's largest builds
                    reached = adj[v]
                    if v not in half and half.isdisjoint(reached) and half.isdisjoint(
                        flatten(map(adjacent, reached))
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
            elif h == 3:  # B_2(v), written out for g = 7, 8
                half.update(reached, *map(adjacent, reached))
            elif h > 3:
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
    return tuple([(a, b) for a in range(n) for b in sorted(adj[a]) if b > a])


def _is_far(adj, half, v, radius):
    """Whether dist(u, v) > reach, for half = B_ceil(reach/2)(u) and
    radius = floor(reach/2), by meet in the middle.

    A path of length d <= reach from u to v has a vertex at distance
    min(d, ceil(reach/2)) from u and at most floor(reach/2) from v, so it
    meets both balls; a vertex in both gives a walk of length <= reach.
    The last layer of v's ball, its largest, is never built: the
    neighbours of the layer before it are streamed into the test.
    """
    if radius == 0:
        return v not in half
    inner, last = _inner_ball(adj, v, radius)
    return half.isdisjoint(inner) and half.isdisjoint(chain.from_iterable(map(adj.__getitem__, last)))


def _double_swap(adj, connect, disconnect, u, near, deficient, reach, n, rng):
    """Erdos-Sachs endgame repair: resolve two deficiencies through one edge.

    Remove a random edge (x, y) with x outside near = B_reach(u), add
    (u, x), then add (v, y) for a deficient v whenever y is still far from
    v in the modified graph.  Reverts on failure, so every trial starts
    from the graph ``near`` was built in.
    """
    # a copy: the trials below edit the live deficient list, and mates are
    # drawn from it as it stood before them
    mates = [v for v in deficient if v != u]
    edges = [(a, b) for a in range(n) for b in adj[a] if a < b]
    if not edges:
        return False
    for _ in range(SWAP_TRIALS):
        x, y = rng.choice(edges)
        if rng.random() < 0.5:
            x, y = y, x
        if x in near:
            continue
        disconnect(x, y)
        connect(u, x)
        candidates = mates if mates else [u]
        v = rng.choice(candidates)
        if v != y and v != x and y not in _ball(adj, v, reach):
            connect(v, y)
            return True
        disconnect(u, x)
        connect(x, y)
    return False


def _ball(adj, root, radius):
    """Vertices within the given BFS distance of root, for radius >= 1."""
    seen, last = _inner_ball(adj, root, radius)
    seen.update(*map(adj.__getitem__, last))  # the last level needs no frontier of its own
    return seen


def _inner_ball(adj, root, radius):
    """B_{radius-1}(root) and its vertices at distance radius - 1, for
    radius >= 1; the caller must not change the second."""
    if radius == 1:
        return {root}, (root,)
    frontier = adj[root]
    seen = {root, *frontier}
    for _ in range(radius - 2):
        frontier = set().union(*map(adj.__getitem__, frontier)) - seen
        seen |= frontier
    return seen, frontier


def load_graph(source) -> Graph:
    """Read the JSON graph format {"n": k, "edges": [[u, v], ...]} from text
    or a file."""
    return read_json(source, "graph", _graph)


def _graph(data: dict) -> Graph:
    if "n" not in data or "edges" not in data:
        raise ValueError("'n' and 'edges' are both required")
    if type(data["edges"]) is not list:
        raise ValueError("'edges' must be a list of integer pairs")
    graph = Graph(data["n"], data["edges"])
    check("graphs.MAX_VERTICES", graph.vertex_count, MAX_VERTICES, "'n' =")
    return graph


def dump_graph(graph: Graph) -> str:
    # json writes the edge tuples as arrays, so they need no conversion to lists
    return json.dumps({"n": graph.vertex_count, "edges": graph.edges}, separators=(", ", ": "))
