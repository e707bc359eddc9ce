import inspect
import json
import math
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from systolic import graphs
from systolic.graphs import (
    MAX_DEGREE_SQUARES,
    MAX_RESTARTS,
    MAX_VERTICES,
    Graph,
    MetricGraph,
    SearchCounts,
    construct_regular_girth,
    dump_graph,
    girth,
    load_graph,
    metric_systole,
    moore_bound,
    vertex_window,
)

from systolic._record import trusted

import oracles


PETERSEN = load_graph(resources.files("systolic").joinpath("data", "petersen.json").read_text())


def complete_graph(n):
    return Graph(n, tuple(combinations(range(n), 2)))


def cycle_graph(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


class TestGirth:
    def test_complete_four(self):
        assert girth(complete_graph(4)) == 3

    def test_nine_cycle(self):
        assert girth(cycle_graph(9)) == 9

    def test_petersen_against_exhaustive_enumeration(self):
        assert oracles.brute_force_girth(10, PETERSEN.edges) == 5
        assert girth(PETERSEN) == 5

    def test_forest_is_infinite(self):
        tree = Graph(5, ((0, 1), (0, 2), (2, 3), (2, 4)))
        assert girth(tree) == math.inf

    def test_two_triangles_sharing_vertex(self):
        graph = Graph(5, ((0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)))
        assert girth(graph) == 3

    def test_heawood_cage(self):
        # the incidence graph of the Fano plane, lines {i, i+1, i+3} mod 7:
        # the (3, 6)-cage on 14 vertices
        graph = Graph(14, tuple((p, 7 + i) for i in range(7) for p in (i, (i + 1) % 7, (i + 3) % 7)))
        assert graph.is_regular(3)
        assert girth(graph) == oracles.girth(graph) == 6

    def test_tutte_coxeter_cage(self):
        # duads and synthemes of a 6-set, a duad joined to each syntheme
        # holding it: the (3, 8)-cage on 30 vertices
        duads = list(combinations(range(6), 2))
        synthemes = [m for m in combinations(duads, 3) if len(set().union(*m)) == 6]
        graph = Graph(30, tuple((duads.index(d), 15 + s) for s, m in enumerate(synthemes) for d in m))
        assert len(synthemes) == 15 and graph.is_regular(3)
        assert girth(graph) == oracles.girth(graph) == 8

    @pytest.mark.parametrize("shape", ["path", "tree"])
    def test_forest_of_the_vertex_cap_in_linear_time(self, shape):
        # the leaf peel empties a forest before any search; a search from
        # every vertex is quadratic on a path (8 s at 4 000 vertices)
        rng = random.Random(11)
        n = MAX_VERTICES
        if shape == "path":
            edges = tuple((i, i + 1) for i in range(n - 1))
        else:
            edges = tuple((rng.randrange(i), i) for i in range(1, n))
        graph = Graph(n, edges)
        graph.adjacency  # built outside the timed call
        start = time.perf_counter()
        assert girth(graph) == math.inf
        assert time.perf_counter() - start < 1.0

    def test_degree_squares_cap(self):
        # a star of 3 833 leaves beside 2 139 disjoint edges: its squared
        # degrees sum to the cap exactly, and one more edge passes it by 2
        assert MAX_DEGREE_SQUARES == 7 ** 2 * MAX_VERTICES == 14_700_000
        n = 3834 + 2 * 2139
        edges = tuple((0, leaf) for leaf in range(1, 3834)) + tuple((v, v + 1) for v in range(3834, n, 2))
        graph = Graph(n, edges)
        assert sum(d * d for d in graph.degrees) == MAX_DEGREE_SQUARES
        assert girth(graph) == math.inf
        with pytest.raises(ValueError, match=r"sum to 14700002, past the cap \(graphs\.MAX_DEGREE_SQUARES = 14700000\)$"):
            girth(Graph(n + 2, edges + ((n, n + 1),)))

    def test_cycle_of_the_vertex_cap_in_linear_time(self):
        # each root is peeled after its search, so the rest of the cycle
        # follows it; a search from every vertex took 21.7 s at 8 000
        n = MAX_VERTICES
        graph = cycle_graph(n)
        graph.adjacency  # built outside the timed call
        start = time.perf_counter()
        assert girth(graph) == n
        assert time.perf_counter() - start < 2.0


class TestMooreBound:
    def test_degree3_girth5(self):
        assert moore_bound(3, 5) == 10

    @pytest.mark.parametrize("c", [3, 5, 9])
    def test_girth3_is_degree_plus_one(self, c):
        assert moore_bound(c, 3) == c + 1

    def test_degree7_girth5(self):
        assert moore_bound(7, 5) == 1 + 7 + 7 * 6

    def test_even_girth(self):
        assert moore_bound(7, 4) == 14
        assert moore_bound(3, 6) == 14


class TestVertexWindow:
    def test_degree7_scale5(self):
        assert vertex_window(7, 5) == (6216, 7776)

    def test_degree7_scale1(self):
        assert vertex_window(7, 1) == (0, 6)

    def test_degree10_scale3(self):
        assert vertex_window(10, 3) == (360, 729)

    def test_small_degree_refused(self):
        with pytest.raises(ValueError):
            vertex_window(6, 3)

    @given(st.integers(7, 15), st.integers(1, 8))
    def test_window_nonempty_and_exact(self, c, l):
        low, high = vertex_window(c, l)
        assert 0 <= low <= high
        # exact ceiling: low - 1 strictly below the rational bound
        assert (low - 1) * (c - 2) < 4 * ((c - 1) ** l - (c - 1)) <= low * (c - 2)
        assert high == (c - 1) ** l


class TestConstruction:
    def test_petersen_parameters(self):
        graph = construct_regular_girth(3, 5, 10, seed=1)
        oracles.check_regular_girth(graph, 3, 5)
        assert graph.is_regular(3)
        assert girth(graph) == 5

    def test_degree3_girth6(self):
        graph = construct_regular_girth(3, 6, 14, seed=1)
        oracles.check_regular_girth(graph, 3, 6)
        assert graph.is_regular(3)
        assert girth(graph) >= 6

    def test_degree7_girth4(self):
        graph = construct_regular_girth(7, 4, 50, seed=1)
        oracles.check_regular_girth(graph, 7, 4)
        assert graph.is_regular(7)
        assert girth(graph) >= 4

    def test_degree7_girth5(self):
        graph = construct_regular_girth(7, 5, 150, seed=1)
        oracles.check_regular_girth(graph, 7, 5)
        assert graph.is_regular(7)
        assert girth(graph) >= 5

    def test_below_moore_bound_refused(self):
        with pytest.raises(ValueError, match="^8 vertices is below the Moore bound 10 for degree 3, girth 5$"):
            construct_regular_girth(3, 5, 8, seed=0)

    def test_odd_degree_sum_refused(self):
        with pytest.raises(ValueError, match="^3-regular graph needs an even degree sum$"):
            construct_regular_girth(3, 4, 9, seed=0)

    def test_budget_exhaustion_is_explicit(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_RESTARTS", 2)
        monkeypatch.setattr(graphs, "STEP_BUDGET", 500)
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as failure:
                construct_regular_girth(7, 5, 50, seed=0)
            messages.append(str(failure.value))
        # the search counters explain the failure and are deterministic
        assert messages[0] == messages[1]
        assert re.search(r"2 restarts, [1-9]\d* steps, \d+ rejections, \d+ listings, \d+ swaps, "
                         r"\d+ rotations\)$", messages[0])

    def test_search_failure_is_a_value_error(self, monkeypatch):
        # a plain ValueError, which the CLI maps to exit 2
        monkeypatch.setattr(graphs, "MAX_RESTARTS", 1)
        for request in ((7, 5, 50), (3, 5, 8)):
            with pytest.raises(ValueError) as refused:
                construct_regular_girth(*request, seed=0)
            assert type(refused.value) is ValueError

    def test_budget_below_edge_count_refused_before_searching(self, monkeypatch):
        def no_attempt(*args):
            raise AssertionError("searched a request the budget cannot finish")

        monkeypatch.setattr(graphs, "_greedy_attempt", no_attempt)
        monkeypatch.setattr(graphs, "MAX_RESTARTS", 3)
        monkeypatch.setattr(graphs, "STEP_BUDGET", 3000)
        with pytest.raises(ValueError, match=r"a step count of 3500, past the cap \(graphs\.STEP_BUDGET = 3000\)$"):
            construct_regular_girth(7, 4, 1000)
        # exactly enough steps for every edge is not refused
        monkeypatch.setattr(graphs, "_greedy_attempt", lambda *args: None)
        monkeypatch.setattr(graphs, "MAX_RESTARTS", 1)
        monkeypatch.setattr(graphs, "STEP_BUDGET", 3500)
        with pytest.raises(ValueError, match="0 steps"):
            construct_regular_girth(7, 4, 1000)

    def test_vertex_cap(self):
        # the step budget refuses every build past the file cap: 300 001
        # vertices of degree 3 or more need more than 450 000 edges
        assert MAX_VERTICES >= vertex_window(7, 7)[1]
        assert (MAX_VERTICES + 1) * 3 // 2 > graphs.STEP_BUDGET
        for vertices, edges in ((MAX_VERTICES + 2, 1_050_007), (100_000_000, 350_000_000)):
            with pytest.raises(ValueError) as refused:
                construct_regular_girth(7, 6, vertices, seed=0)
            assert str(refused.value) == (
                f"{vertices} vertices of degree 7 need one attempt step per edge, a step count of "
                f"{edges}, past the cap (graphs.STEP_BUDGET = 200000)"
            )

    def test_huge_request_is_refused_before_the_moore_bound(self):
        # forming moore_bound(10**1999, 2000) takes more than 30 s
        start = time.monotonic()
        with pytest.raises(ValueError, match=r"past the cap \(graphs\.STEP_BUDGET = 200000\)$"):
            construct_regular_girth(10 ** 1999, 2000, 10 ** 2000)
        assert time.monotonic() - start < 1.0

    def test_deterministic_for_seed(self):
        a = construct_regular_girth(3, 5, 14, seed=9)
        b = construct_regular_girth(3, 5, 14, seed=9)
        assert a.edges == b.edges
        oracles.check_regular_girth(a, 3, 5)

    def test_seeded_builds_pass_the_certificate(self, monkeypatch):
        # the build returns its graph unchecked; each one drawn here, over
        # small (c, g) with n from the Moore bound up, is checked by the
        # oracle: canonical edges, every degree c, full-BFS girth >= g
        monkeypatch.setattr(graphs, "MAX_RESTARTS", 8)
        rng = random.Random(2222)
        built, refused = set(), 0
        for _ in range(150):
            degree, girth_target = rng.randint(3, 7), rng.randint(3, 6)
            low = max(moore_bound(degree, girth_target), degree + 1)
            n = rng.randint(low, 2 * low + 30)
            n += n * degree % 2
            try:
                graph = construct_regular_girth(degree, girth_target, n, seed=rng.randrange(10**6))
            except ValueError as exc:  # near the Moore bound a few searches run out
                assert "found within the search budget" in str(exc)
                refused += 1
                continue
            oracles.check_regular_girth(graph, degree, girth_target)
            built.add((degree, girth_target))
        # every degree and every girth occurs, and most searches succeed
        assert {c for c, _ in built} == set(range(3, 8)) and {g for _, g in built} == {3, 4, 5, 6}
        assert refused < 40, refused


class TestMetricSystole:
    def test_nine_cycle_eighth(self):
        systole = metric_systole(MetricGraph(cycle_graph(9), Fraction(1, 8)))
        assert systole == Fraction(9, 8)

    def test_petersen_above_one(self):
        # edge length 2 eps with eps = 1/8; girth 5 > 1/(2 eps) = 4
        systole = metric_systole(MetricGraph(PETERSEN, Fraction(1, 4)))
        assert systole == Fraction(5, 4)
        assert systole > 1

    def test_tree_infinite(self):
        tree = Graph(3, ((0, 1), (1, 2)))
        assert metric_systole(MetricGraph(tree, Fraction(1, 2))) == math.inf

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValueError):
            MetricGraph(PETERSEN, Fraction(0))


class TestGraphValue:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 0),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0)))

    @pytest.mark.parametrize("n", [-3, 2.5, "4", True, None])
    def test_vertex_count_other_than_a_non_negative_int_is_refused(self, n):
        # Graph(-3, []) was accepted with girth inf; only load_graph checked 'n'
        refusal = re.escape(f"vertex_count {n!r} is not a non-negative integer")
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            Graph(n, [])
        with pytest.raises(ValueError, match=f"^graph text: {refusal}$"):
            load_graph(json.dumps({"n": n, "edges": []}))

    def test_load_vertex_cap(self):
        assert load_graph(f'{{"n": {MAX_VERTICES}, "edges": []}}').vertex_count == MAX_VERTICES
        with pytest.raises(ValueError, match=rf"^graph text: 'n' = {MAX_VERTICES + 1}, past the cap "
                                             rf"\(graphs\.MAX_VERTICES = {MAX_VERTICES}\)$"):
            load_graph(f'{{"n": {MAX_VERTICES + 1}, "edges": []}}')
        with pytest.raises(ValueError, match="past the cap"):
            load_graph('{"n": 1000000, "edges": []}')

    def test_json_round_trip(self):
        blob = dump_graph(PETERSEN)
        assert load_graph(blob).edges == PETERSEN.edges

    def test_degrees(self):
        assert PETERSEN.degrees == (3,) * 10


# what the graph edge fuzz inserts into a valid edge list, one per case
EDGE_DEFECTS = ("none", "loop", "out of range", "negative", "duplicate", "reversed duplicate",
                "bool", "float", "non-list entry", "wrong length")


def _edge_case(rng):
    """(defect, order, n, edges): a random simple graph's edges as JSON
    pairs, sorted canonical, shuffled or partly reversed, with one defect."""
    n = rng.randint(0, 25)
    pairs = list(combinations(range(n), 2))
    edges = [list(pair) for pair in rng.sample(pairs, rng.randint(0, min(len(pairs), 40)))]
    order = rng.choice(("sorted", "shuffled", "reversed"))
    if order == "sorted":
        edges.sort()
    elif order == "reversed":
        edges = [edge[::-1] if rng.random() < 0.5 else edge for edge in edges]
    defect = rng.choice(EDGE_DEFECTS)
    vertex = rng.randrange(n) if n else 0
    at = rng.randint(0, len(edges))
    if defect in ("duplicate", "reversed duplicate", "bool", "float", "non-list entry") and not edges:
        defect = "none"
    if defect == "loop":
        edges.insert(at, [vertex, vertex])
    elif defect == "out of range":
        edges.insert(at, rng.choice(([vertex, n + rng.randrange(3)], [n + rng.randrange(3), vertex])))
    elif defect == "negative":
        edges.insert(at, rng.choice(([vertex, -rng.randint(1, 3)], [-rng.randint(1, 3), vertex])))
    elif defect in ("duplicate", "reversed duplicate"):
        u, v = rng.choice(edges)
        edges.insert(at, [u, v] if defect == "duplicate" else [v, u])
    elif defect in ("bool", "float"):
        edge = rng.choice(edges)
        side = rng.randrange(2)
        edge[side] = rng.choice((True, False)) if defect == "bool" else float(edge[side])
    elif defect == "non-list entry":
        at = rng.randrange(len(edges))
        edges[at] = rng.choice((tuple(edges[at]), str(edges[at][0]) * 2, edges[at][0], None))
    elif defect == "wrong length":
        edges.insert(at, rng.choice(([vertex], [vertex, vertex + 1, vertex + 2], [])))
    return defect, order, n, edges


def _outcome(build, n, edges):
    """The repr of what build returns, or the type and text of what it raises."""
    try:
        return repr(build(n, edges))
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_graph_matches_the_per_edge_oracle():
    # Graph checks edges in bulk and walks them one at a time only to name a
    # bad one: the same edges and error texts as the per-edge oracle, from
    # Python lists and tuples and through load_graph
    rng = random.Random(20)
    seen, refused = set(), 0
    for _ in range(3000):
        defect, order, n, edges = _edge_case(rng)
        seen.add(defect)
        seen.add(order)
        built = _outcome(lambda k, e: Graph(k, e).edges, n, edges)
        assert built == _outcome(oracles.graph_edges, n, edges), (n, edges)
        assert _outcome(lambda k, e: Graph(k, tuple(e)).edges, n, edges) == built, (n, edges)
        text = json.dumps({"n": n, "edges": edges})
        loaded = _outcome(lambda k, e: load_graph(text).edges, n, edges)
        expected = _outcome(oracles.graph_edges, n, json.loads(text)["edges"])
        assert loaded == expected.replace("ValueError: ", "ValueError: graph text: ", 1), text
        refused += loaded.startswith("ValueError")
    assert seen == set(EDGE_DEFECTS) | {"sorted", "shuffled", "reversed"}
    assert 0 < refused < 3000


@pytest.mark.parametrize("edges, message", [
    (((True, 2), (0, 1)), r"edge \(True, 2\) is not a pair of integers"),
    (((0, 1), (1.0, 0)), r"edge \(1\.0, 0\) is not a pair of integers"),
    (((0, 1, 2),), r"edge \(0, 1, 2\) is not a pair of integers"),
    ([range(2), [2, 1]], r"edge range\(0, 2\) is not a pair of integers"),
], ids=["boolean end", "float end", "triple", "range"])
def test_graph_refuses_an_edge_that_is_no_pair_of_integers(edges, message):
    # Graph took the first and the last as they were, and refused the second
    # as a duplicate and the third with the unpacking error
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph(3, edges)


def test_graph_takes_pairs_as_lists_or_tuples():
    assert Graph(3, [(2, 0), [1, 0]]).edges == Graph(3, iter([(0, 1), (0, 2)])).edges == ((0, 1), (0, 2))


def _random_edge_set(rng, n):
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    keep = rng.randint(0, len(pairs))
    return tuple(sorted(pairs[:keep]))


def test_girth_matches_exhaustive_enumeration_on_small_graphs():
    rng = random.Random(1234)
    for _ in range(150):
        n = rng.randint(2, 9)
        edges = _random_edge_set(rng, n)
        graph = Graph(n, edges)
        assert girth(graph) == oracles.brute_force_girth(n, edges), edges


def _relabelled(rng, n, edges):
    """The graph on a random permutation of its vertices, so that the least
    vertex of a cycle can sit anywhere on it."""
    order = list(range(n))
    rng.shuffle(order)
    return Graph(n, tuple((order[u], order[v]) for u, v in edges))


def _random_tree_edges(rng, first, count):
    """Edges of a random tree on vertices first..first+count-1."""
    return [(first + rng.randrange(i), first + i) for i in range(1, count)]


def _girth_cases(rng):
    """Seeded graphs of every shape the least-vertex search must handle."""
    for _ in range(40):  # forests, empty graphs and isolated vertices included
        n = rng.randint(0, 40)
        edges = [e for e in _random_tree_edges(rng, 0, n) if rng.random() < 0.8]
        yield _relabelled(rng, n, edges)
    for length in range(3, 16):  # one cycle of each parity, with pendant trees
        n = length + rng.randint(0, 30)
        edges = [(i, (i + 1) % length) for i in range(length)]
        edges += [(rng.randrange(v), v) for v in range(length, n)]
        yield _relabelled(rng, n, edges)
    for length in (40, 97, 150):  # long cycles
        yield _relabelled(rng, length, [(i, (i + 1) % length) for i in range(length)])
    for _ in range(15):  # a cycle with pendant paths, one of them on to a second cycle
        a, b = rng.randint(3, 25), rng.randint(3, 25)
        edges = [(i, (i + 1) % a) for i in range(a)] + [(a + i, a + (i + 1) % b) for i in range(b)]
        n = a + b
        for end in range(rng.randint(1, 4)):
            steps = rng.randint(1, 12)
            path = [rng.randrange(a)] + list(range(n, n + steps))
            if end == 0:  # this one joins the second cycle
                path.append(a + rng.randrange(b))
            edges += zip(path, path[1:])
            n += steps
        yield _relabelled(rng, n, edges)
    for _ in range(25):  # theta graphs: three paths between two vertices
        lengths = sorted(rng.randint(1, 20) for _ in range(3))
        if lengths[1] == 1:  # two one-edge paths would be one edge twice
            lengths[1] = 2
        edges, n = [], 2
        for length in lengths:
            path = [0] + list(range(n, n + length - 1)) + [1]
            edges += zip(path, path[1:])
            n += length - 1
        yield _relabelled(rng, n, edges)
    for _ in range(80):  # sparse random graphs, often disconnected
        n = rng.randint(4, 60)
        pairs = list(combinations(range(n), 2))
        edges = rng.sample(pairs, min(len(pairs), rng.randint(n // 2, 2 * n)))
        yield Graph(n, tuple(edges))
    for _ in range(20):  # two components, each with its own girth
        a, b = rng.randint(3, 12), rng.randint(3, 12)
        edges = [(i, (i + 1) % a) for i in range(a)] + [(a + i, a + (i + 1) % b) for i in range(b)]
        edges += _random_tree_edges(rng, a + b, 10) + [(rng.randrange(a + b), a + b)]
        edges += [(rng.randrange(a + b), a + b + 10 + i) for i in range(5)]
        yield _relabelled(rng, a + b + 15, edges)
    for degree, girth_target, n, seed in ((3, 5, 12, 3), (3, 6, 30, 1), (4, 5, 24, 2), (7, 5, 150, 1)):
        graph = construct_regular_girth(degree, girth_target, n, seed=seed)
        oracles.check_regular_girth(graph, degree, girth_target)
        yield graph


def test_girth_matches_the_full_search_oracle():
    parities = set()
    for graph in _girth_cases(random.Random(2024)):
        expected = oracles.girth(graph)
        assert girth(graph) == expected, graph.edges
        parities.add(expected % 2 if expected != math.inf else "forest")
        top = 10 if expected == math.inf else expected + 1
        for cutoff in range(3, top + 1):
            # the oracle's cutoff, which check_regular_girth uses: exact up
            # to the cutoff, past it only known to be past it
            old = oracles.girth(graph, cutoff)
            assert old == expected if expected <= cutoff else old > cutoff, (graph.edges, cutoff)
    assert parities == {0, 1, "forest"}


def _random_adjacency(rng, n, edges):
    adj = [set() for _ in range(n)]
    for _ in range(edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def test_ball_matches_oracle():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 80)
        adj = _random_adjacency(rng, n, rng.randint(0, 3 * n))
        for radius in range(1, 6):
            root = rng.randrange(n)
            assert graphs._ball(adj, root, radius) == oracles._ball(adj, root, radius)


def test_builds_ask_for_no_ball_of_radius_zero(monkeypatch):
    # _ball takes radius >= 1: its callers pass h >= 1, h - 1 > 2 or
    # reach = g - 2 >= 1, as builds need g >= 3
    radii = set()

    def spy(adj, root, radius):
        radii.add(radius)
        return oracles._ball(adj, root, radius)

    monkeypatch.setattr(graphs, "_ball", spy)
    for request in ((3, 3, 10), (3, 4, 10), (4, 4, 12), (3, 5, 10), (3, 6, 14), (3, 7, 24)):
        construct_regular_girth(*request, seed=1)
    assert radii == {1, 2, 3, 4, 5}


def test_girth_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    built = [construct_regular_girth(3, 6, 40, seed=2), construct_regular_girth(7, 5, 150, seed=1)]
    oracles.check_regular_girth(built[0], 3, 6)
    oracles.check_regular_girth(built[1], 7, 5)
    cases = [PETERSEN, *built]
    cases += [Graph(n, _random_edge_set(rng, n)) for n in rng.choices(range(2, 16), k=60)]
    for graph in cases:
        other = nx.Graph()
        other.add_nodes_from(range(graph.vertex_count))
        other.add_edges_from(graph.edges)
        assert girth(graph) == nx.girth(other), graph.edges


@settings(max_examples=40)
@given(st.integers(2, 8), st.randoms(use_true_random=False))
def test_girth_oracle_property(n, rng):
    edges = _random_edge_set(rng, n)
    assert girth(Graph(n, edges)) == oracles.brute_force_girth(n, edges)


def test_constructed_graphs_verified_independently():
    # re-verify through the oracle, not just the builder's own girth check
    graph = construct_regular_girth(3, 5, 12, seed=3)
    assert oracles.brute_force_girth(12, graph.edges) >= 5
    assert all(d == 3 for d in graph.degrees)
    oracles.check_regular_girth(graph, 3, 5)


def test_far_test_matches_the_ball_oracle():
    # meet in the middle: B_ceil(r/2)(u) and B_floor(r/2)(v) are disjoint
    # exactly when v lies outside B_r(u)
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 80)
        adj = _random_adjacency(rng, n, rng.randint(0, 2 * n))
        for reach in range(1, 6):
            u = rng.randrange(n)
            half = graphs._ball(adj, u, (reach + 1) // 2)
            near = oracles._ball(adj, u, reach)
            for v in range(n):
                assert graphs._is_far(adj, half, v, reach // 2) == (v != u and v not in near)


def _lines_of(function, text):
    """The line numbers of the lines of ``function`` that read ``text``."""
    source, first = inspect.getsourcelines(function)
    return [first + i for i, line in enumerate(source) if line.strip() == text]


def _line_of(function, text):
    """The line number of the one line of ``function`` that reads ``text``."""
    lines = _lines_of(function, text)
    assert len(lines) == 1, (text, lines)
    return lines[0]


class VisitSpy(random.Random):
    """A seeded generator that checks ``_greedy_attempt`` at every draw.

    A partner draw calls ``getrandbits`` from the lines
    ``r = getrandbits(k)`` until r < len(deficient), and takes
    ``deficient[r]``.  At the call that ends the draw the spy reads the
    attempt's locals and asserts that ``deficient`` holds exactly the
    vertices below full degree and that the kept ball ``half`` equals
    ``oracles._ball(adj, u, h)``, h = ceil((g-2)/2), recomputed.  At the
    next draw of any kind, or in ``settle`` once the attempt returns, it
    asserts that the attempt added the edge (u, v) exactly when v lies
    outside ``oracles._ball(adj, u, g - 2)``.  A listing's draw must be made
    from exactly those partners.  ``tally`` counts partner draws kept and
    rejected, those made after a kept partner of the same visit (so against
    a grown ball), and listings; ``ranks`` holds (rank, count) of each kept
    partner among the sorted admissible ones.  As it overrides
    ``getrandbits``, its ``choice`` draws through it, as ``random.Random``'s
    does, so a spied attempt draws the stream of ``random.Random(seed)``.
    """

    def __init__(self, seed, degree, girth_target):
        super().__init__(seed)
        self.degree, self.reach = degree, girth_target - 2
        self.h = (self.reach + 1) // 2
        self.partner_lines = _lines_of(graphs._greedy_attempt, "r = getrandbits(k)")
        assert len(self.partner_lines) == 2, self.partner_lines  # the first draw and the redraw
        self.listing_line = _line_of(graphs._greedy_attempt, "connect(u, choice(partners))")
        self.pending = self.last = None
        self.tally = Counter()
        self.ranks = []

    def settle(self):
        if self.pending is not None:
            neighbours, v, before, far = self.pending
            self.pending = None
            assert len(neighbours) == before + far and (v in neighbours or not far)

    def random(self):
        self.settle()
        return super().random()

    def choice(self, seq):
        self.settle()
        pick = super().choice(seq)
        frame = sys._getframe(1)
        if frame.f_code is graphs._greedy_attempt.__code__ and frame.f_lineno == self.listing_line:
            _, admissible = self.admissible(frame.f_locals)
            assert sorted(seq) == admissible
            self.tally["listings"] += 1
        return pick

    def getrandbits(self, k):
        self.settle()
        r = super().getrandbits(k)
        frame = sys._getframe(1)
        if frame.f_code is graphs._greedy_attempt.__code__ and frame.f_lineno in self.partner_lines:
            state = frame.f_locals
            if r < len(state["deficient"]):  # else the attempt draws again
                self.partner(state, state["deficient"][r])
        return r

    def admissible(self, state):
        """B_{g-2}(u) and the sorted deficient vertices outside it, after
        checking that ``deficient`` holds exactly the vertices below full
        degree."""
        adj, u, deficient = state["adj"], state["u"], state["deficient"]
        assert sorted(deficient) == [w for w in range(len(adj)) if len(adj[w]) < self.degree]
        near = oracles._ball(adj, u, self.reach)
        return near, sorted(w for w in deficient if w not in near)

    def partner(self, state, pick):
        near, admissible = self.admissible(state)
        adj, u, half = state["adj"], state["u"], state["half"]
        assert half == oracles._ball(adj, u, self.h)
        if self.last is not None and self.last[0] is half:
            self.tally["grown"] += self.last[1]
        far = pick not in near
        self.pending = (adj[u], pick, len(adj[u]), far)
        self.last = (half, far)
        self.tally["kept" if far else "rejected"] += 1
        if far:
            self.ranks.append((admissible.index(pick), len(admissible)))


def _spied_attempts(spy, degree, girth_target, n, counts, tries):
    """Up to ``tries`` attempts under ``spy``; the finished graph, certified,
    or None."""
    for _ in range(tries):
        edges = graphs._greedy_attempt(degree, girth_target, n, spy, counts)
        spy.settle()
        if edges is not None:
            # the attempt's edges, as construct_regular_girth returns them
            graph = trusted(Graph, n, edges)
            oracles.check_regular_girth(graph, degree, girth_target)
            return graph
    return None


def test_visit_keeps_u_ball_exact():
    # a seeded fuzz over small (c, g, n) with g = 4 ... 8, so h = 1, 2, 3:
    # at every partner draw the ball kept since the visit began, grown by
    # B_{h-1}(v) at each kept partner, equals B_h(u) recomputed, and every
    # finished build passes the certificate
    rng = random.Random(2525)
    built, grown = Counter(), Counter()
    for _ in range(120):
        degree, girth_target = rng.randint(3, 6), rng.randint(4, 8)
        low = max(moore_bound(degree, girth_target), degree + 1)
        if low > 100:
            continue
        n = rng.randint(low, 3 * low + 20)
        n += n * degree % 2
        spy = VisitSpy(rng.randrange(10**6), degree, girth_target)
        counts = SearchCounts()
        if _spied_attempts(spy, degree, girth_target, n, counts, 4) is not None:
            built[girth_target] += 1
        assert spy.tally["kept"] + counts.listings == counts.steps
        assert spy.tally["rejected"] == counts.rejections
        grown[(girth_target - 1) // 2] += spy.tally["grown"]
    # each h saw balls grown within a visit, and each girth finished builds
    assert set(grown) == {1, 2, 3} and all(grown.values()), grown
    assert set(built) == {4, 5, 6, 7, 8}, built


def test_partner_draw_is_uniform_over_the_admissible_partners():
    # every kept partner is a uniform draw from the admissible ones as the
    # graph then stands: over the kept partners of small builds, the share
    # whose rank among the sorted admissible partners falls below each
    # quartile stays within 5 standard deviations of its expectation
    ranks = []
    for seed in range(12):
        spy = VisitSpy(seed, 5, 6)
        _spied_attempts(spy, 5, 6, 120, SearchCounts(), 3)
        ranks += spy.ranks
    assert len(ranks) > 2000
    for quarter in (1, 2, 3):
        hits = sum(rank < quarter * count // 4 for rank, count in ranks)
        shares = [(quarter * count // 4) / count for _, count in ranks]
        mean = sum(shares)
        sd = math.sqrt(sum(p * (1 - p) for p in shares))
        assert abs(hits - mean) <= 5 * sd, (quarter, hits, mean, sd)


# (degree, girth, vertices, seed): window sizes at l=3 (168) and l=4 (1032,
# 1200), where attempts succeed and some need a double swap, and smaller
# requests whose attempts need the reshuffle's rotations or end without a
# graph.
ORACLE_GRID = (
    [(7, 4, 168, seed) for seed in range(4)]
    + [(7, 5, 1032, 0), (7, 5, 1032, 4), (7, 5, 1200, 1), (7, 5, 1200, 2)]
    + [(7, 5, 150, seed) for seed in range(3)]
    + [(3, 6, 16, seed) for seed in (0, 1, 4)]
    + [(7, 5, 50, 0), (4, 5, 20, 3)]
)


def test_search_partners_are_admissible():
    # every partner kept or listed is a deficient vertex outside
    # oracles._ball(u, g - 2), so each edge a visit adds closes no cycle
    # shorter than g; the spy checks each draw against the oracle
    counts = SearchCounts()
    attempts = failed = listings = 0
    for degree, girth_target, n, seed in ORACLE_GRID:
        spy = VisitSpy(seed, degree, girth_target)
        for _ in range(3):
            edges = graphs._greedy_attempt(degree, girth_target, n, spy, counts)
            spy.settle()
            attempts += 1
            if edges is not None:
                oracles.check_regular_girth(trusted(Graph, n, edges), degree, girth_target)
                break
            failed += 1
        listings += spy.tally["listings"]
    # the grid covers every branch: kept, rejected and listed partner draws,
    # double swaps, rotations and attempts that end without a graph
    assert counts.rejections > 0 and counts.listings > 0 and listings > 0
    assert counts.swaps > 0 and counts.rotations > 0
    assert 0 < failed < attempts
    assert counts.steps > 10_000


def _attempts(attempt, degree, girth_target, n, seed, tries):
    """Up to ``tries`` attempts of ``attempt`` from ``random.Random(seed)``,
    restarting as ``construct_regular_girth`` does: each attempt's edges
    (None when it failed) and the tallies."""
    rng, counts = random.Random(seed), SearchCounts()
    results = []
    for _ in range(tries):
        results.append(attempt(degree, girth_target, n, rng, counts))
        if results[-1] is not None:
            break
        counts.restarts += 1
    return results, vars(counts)


def test_attempt_matches_the_choice_oracle():
    # the draws written out with getrandbits are the draws rng.choice made:
    # from equal seeds the attempt and oracles.greedy_attempt give the same
    # edges and tallies, over the oracle grid (listings, double swaps,
    # rotations and failed attempts), the benchmark's build requests and
    # builds of girth 7 to 10, whose balls have h = 3 and 4
    total = Counter()
    for degree, girth_target, n, seed in ORACLE_GRID:
        ours = _attempts(graphs._greedy_attempt, degree, girth_target, n, seed, 3)
        assert ours == _attempts(oracles.greedy_attempt, degree, girth_target, n, seed, 3)
        total.update(ours[1])
    assert all(total[name] > 0 for name in ("listings", "swaps", "rotations", "restarts")), total
    requests = ((7, 4, 168), (7, 5, 1032), (7, 5, 1200), (7, 6, 6216),
                (5, 7, 800), (4, 8, 600), (3, 9, 600), (3, 10, 1200))
    for degree, girth_target, n in requests:
        for seed in range(3):
            ours = _attempts(graphs._greedy_attempt, degree, girth_target, n, seed, MAX_RESTARTS)
            assert ours[0][-1] is not None
            assert ours == _attempts(oracles.greedy_attempt, degree, girth_target, n, seed, MAX_RESTARTS)
