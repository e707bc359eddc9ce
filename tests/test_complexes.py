import json
import random
import re
import time
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from systolic import complexes
from systolic.complexes import (
    SimplicialComplex,
    connected_sum,
    face_counts,
    is_admissible_dim2,
    load_complex,
    orient,
)
from systolic.corpus import corpus_complex
from systolic.homology import homology

import oracles
from test_snf import _freudenthal_torus


RP2 = corpus_complex("rp2_min")
SPHERE = corpus_complex("sphere_delta3")
TORUS = corpus_complex("torus_7")
MOEBIUS = corpus_complex("moebius_band")
PINCHED = corpus_complex("pinched_spheres")


def refusal(complex_):
    """Why orient and connected_sum refuse the complex: "" for a pseudomanifold."""
    return complexes._facet_walk(complex_)[0]


class TestFromFacets:
    def test_single_triangle_closure(self):
        complex_ = SimplicialComplex([[0, 1, 2]])
        assert face_counts(complex_) == [3, 3, 1]

    def test_empty_complex_has_undefined_dim(self):
        complex_ = SimplicialComplex([])
        assert complex_.dim is None
        assert face_counts(complex_) == []

    def test_rp2_facet_count(self):
        assert face_counts(RP2)[2] == 10

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match=r"^repeated vertex in simplex \(0, 1, 1\)$"):
            SimplicialComplex([[0, 1, 1]])

    def test_sorting_and_dedup(self):
        complex_ = SimplicialComplex([[2, 1, 0], [0, 1, 2], [1, 0]])
        assert complex_.facets == ((0, 1, 2),)

    def test_non_maximal_faces_dropped(self):
        complex_ = SimplicialComplex([[0, 1], [0, 1, 2], [3, 4]])
        assert complex_.facets == ((0, 1, 2), (3, 4))

    def test_maximal_filter_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(500):
            n = rng.randint(1, 9)
            simplices = [rng.sample(range(n), rng.randint(0, min(n, 5)))
                         for _ in range(rng.randint(0, 14))]
            for simplex in list(simplices[:3]):  # duplicates and nested faces
                simplices.append(simplex[::-1])
                simplices.append(simplex[1:])
            distinct = {tuple(sorted(s)) for s in simplices if s}
            maximal = tuple(sorted(
                s for s in distinct if not any(set(s) < set(other) for other in distinct)
            ))
            assert SimplicialComplex(simplices).facets == maximal

    def test_maximal_filter_time_is_near_linear(self):
        # testing each shorter facet against every kept facet takes seconds here
        n = 4000
        disjoint = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n)]
        disjoint += [(3 * n + 2 * i, 3 * n + 2 * i + 1) for i in range(n)]
        # triangles and edges through vertex 0; the first 4000 edges lie in triangles
        cone = [(0, 2 * i + 1, 2 * i + 2) for i in range(n)] + [(0, v) for v in range(n + 1, 3 * n + 1)]
        for facets, kept in ((disjoint, 2 * n), (cone, 2 * n)):
            start = time.perf_counter()
            complex_ = SimplicialComplex(facets)
            assert time.perf_counter() - start < 1.0
            assert len(complex_.facets) == kept

    def test_empty_simplex_is_no_facet(self):
        # [[]] was kept as the facet (), a complex of dimension -1 that passed
        # as a pseudomanifold; it is the empty complex, as [] is
        for vertex_count in (None, 3):
            assert SimplicialComplex([[]], vertex_count) == SimplicialComplex([], vertex_count)
        assert SimplicialComplex([[]]) == SimplicialComplex((), 0)
        assert SimplicialComplex([[]]).dim is None
        assert refusal(SimplicialComplex([[]])) == "empty complex"
        with pytest.raises(ValueError, match="^orientation undefined: empty complex$"):
            orient(SimplicialComplex([[]]))
        assert SimplicialComplex([[], [3]]).facets == ((3,),)

    def test_unsorted_and_non_maximal_facets_give_the_canonical_record(self):
        # the constructor took these as they were: a non-maximal facet made an
        # impure record that orient refused, and unsorted facets one unequal
        # to the same complex
        canonical = SimplicialComplex(facets=((0, 1, 2),), vertex_count=3)
        for facets in (((0, 1), (0, 1, 2)), ((2, 0, 1),), ((1, 2, 0), (0, 2, 1), (2, 1))):
            made = SimplicialComplex(facets=facets, vertex_count=3)
            assert (made, hash(made), repr(made)) == (canonical, hash(canonical), repr(canonical))
            assert made.is_pure and made.facets == ((0, 1, 2),)
            assert refusal(made) == "boundary or branching ridges"

    @pytest.mark.parametrize("vertex_count, facets, message", [
        (None, [[0, 1, 1]], r"repeated vertex in simplex \(0, 1, 1\)"),
        (3, [[0, 3]], "vertex_count smaller than largest vertex id used"),
        (-1, [], "vertex_count smaller than largest vertex id used"),
        (2.5, [[0, 1]], r"vertex_count 2\.5 is not an integer"),
        (True, [[0]], "vertex_count True is not an integer"),
        (3, [[-1, 2]], r"facet \(-1, 2\) has vertices outside 0\.\.2"),
        (None, [[0, True]], r"facet \[0, True\] is not a list of integer vertex ids"),
        (None, [(0, 1.0)], r"facet \(0, 1\.0\) is not a list of integer vertex ids"),
        (None, [[0, 1], 2], "facet 2 is not a list of integer vertex ids"),
        (None, [range(2)], r"facet range\(0, 2\) is not a list of integer vertex ids"),
    ], ids=["repeated vertex", "vertex count too small", "negative vertex count", "float vertex count",
            "boolean vertex count", "negative vertex",
            "boolean vertex", "float vertex", "int facet", "range facet"])
    def test_constructor_refusals(self, vertex_count, facets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimplicialComplex(facets, vertex_count)

    def test_constructor_matches_the_per_facet_reference(self, monkeypatch):
        # seeded facet lists with unsorted, repeated and non-maximal facets,
        # negative, boolean and float vertices, repeated vertices, facets that
        # are no list, vertex counts too small and complexes past the face cap
        monkeypatch.setattr(complexes, "MAX_FACE_STEPS", 40)
        rng = random.Random(22)
        seen = set()
        for _ in range(1500):
            facets = [rng.sample(range(-1, 9), rng.randint(0, 4)) for _ in range(rng.randint(0, 6))]
            defect = rng.choice(("none", "repeat", "subface", "negative", "bool", "float", "no list", "reversed"))
            if facets and defect == "repeat":
                facets.insert(rng.randint(0, len(facets)), rng.choice(facets) + [0, 0][: rng.randint(0, 2)])
            elif facets and defect == "subface":
                facets.append(rng.choice(facets)[1:])
            elif defect == "negative":
                facets.append([-rng.randint(1, 3), rng.randint(0, 9)])
            elif facets and facets[0] and defect in ("bool", "float"):
                facets[0][0] = rng.choice((True, False)) if defect == "bool" else float(facets[0][0])
            elif facets and defect == "no list":
                facets[rng.randrange(len(facets))] = rng.choice((5, None, "01", {0: 1}))
            elif defect == "reversed":
                facets = [tuple(facet[::-1]) for facet in facets]
            vertex_count = rng.choice((None, rng.randint(-2, 12)))
            made = _outcome(lambda: SimplicialComplex(facets, vertex_count))
            assert made == _outcome(lambda: oracles.complex_facets(facets, vertex_count, 40)), (facets, vertex_count)
            text = json.dumps({"facets": facets, "vertices": vertex_count})
            loaded = _outcome(lambda: load_complex(text))
            expected = _outcome(lambda: oracles.complex_facets(json.loads(text)["facets"], vertex_count, 40),
                                "complex text: ")
            assert loaded == expected, text
            seen.add(next((kind for kind in FACET_FAULTS if kind in made), "made"))
        assert seen == {"made", *FACET_FAULTS}


# the refusal of each fault the facet fuzz inserts
FACET_FAULTS = ("repeated vertex", "vertex_count smaller", "has vertices outside", "is not a list", "past the cap")


def _outcome(make, where=""):
    """The (vertex count, facets) that ``make`` returns, or the text of the
    ValueError it raises, after ``where``."""
    try:
        made = make()
    except ValueError as exc:
        return f"error:{where}{exc}"
    return repr(made) if isinstance(made, tuple) else repr((made.vertex_count, made.facets))


class TestFaceCap:
    def test_at_the_cap_and_one_past(self, monkeypatch):
        # a tetrahedron and a triangle take 15 + 7 enumeration steps
        monkeypatch.setattr(complexes, "MAX_FACE_STEPS", 22)
        assert face_counts(SimplicialComplex([[0, 1, 2, 3], [4, 5, 6]])) == [7, 9, 5, 1]
        with pytest.raises(ValueError, match=r"a step count of 23, past the cap \(complexes\.MAX_FACE_STEPS = 22\)$"):
            SimplicialComplex([[0, 1, 2, 3], [4, 5, 6], [7]])

    def test_torus_k10_is_below_the_cap(self):
        torus = _freudenthal_torus(10)
        steps = sum(2 ** len(f) - 1 for f in torus.facets)
        assert steps == 90_000 and steps <= complexes.MAX_FACE_STEPS
        assert SimplicialComplex(torus.facets) == torus

    def test_homology_at_the_real_cap_and_one_past(self):
        # disjoint tetrahedra, 15 steps each, and isolated vertices, 1 step
        # each, to exactly the cap: homology there takes about a second
        count, rest = divmod(complexes.MAX_FACE_STEPS, 15)
        facets = [list(range(4 * i, 4 * i + 4)) for i in range(count)]
        facets += [[4 * count + i] for i in range(rest)]
        assert homology(SimplicialComplex(facets)).betti == (count + rest, 0, 0, 0)
        cap = complexes.MAX_FACE_STEPS
        with pytest.raises(ValueError, match=rf"a step count of {cap + 1}, past the cap \(complexes\.MAX_FACE_STEPS = {cap}\)$"):
            SimplicialComplex(facets + [[4 * count + rest]])


class TestFaceCounts:
    def test_sphere(self):
        assert face_counts(SPHERE) == [4, 6, 4]

    def test_rp2_derived_by_enumeration(self):
        # independent enumeration of all faces from the facet list
        faces = {1: set(), 2: set(), 3: set()}
        for facet in RP2.facets:
            for size in (1, 2, 3):
                faces[size].update(combinations(facet, size))
        assert face_counts(RP2) == [len(faces[1]), len(faces[2]), len(faces[3])]
        assert face_counts(RP2) == [6, 15, 10]

    def test_single_edge(self):
        assert face_counts(SimplicialComplex([[0, 1]])) == [2, 1]


class TestBoundaryMatrix:
    def test_triangle_column_signs(self):
        matrix = oracles.boundary_matrix(SimplicialComplex([[0, 1, 2]]), 2)
        dense = matrix.dense()
        assert matrix.rows == ((0, 1), (0, 2), (1, 2))
        assert [row[0] for row in dense] == [1, -1, 1]

    def test_three_cycle_rank(self):
        cycle = SimplicialComplex([[0, 1], [1, 2], [0, 2]])
        dense = oracles.boundary_matrix(cycle, 1).dense()
        assert oracles.naive_invariant_factors(dense) == (1, 1)

    def test_sphere_rows_have_two_nonzeros(self):
        matrix = oracles.boundary_matrix(SPHERE, 2)
        assert matrix.shape == (6, 4)
        for row in matrix.dense():
            assert sum(1 for x in row if x) == 2

    def test_columns_have_k_plus_one_nonzeros(self):
        for complex_ in (RP2, TORUS):
            for k in range(1, 3):
                matrix = oracles.boundary_matrix(complex_, k)
                for j in range(len(matrix.cols)):
                    nonzeros = sum(1 for i, jj, v in matrix.entries if jj == j)
                    assert nonzeros == k + 1

    def test_boundary_composition_is_zero(self):
        for complex_ in (RP2, SPHERE, TORUS, MOEBIUS, PINCHED):
            d1 = oracles.boundary_matrix(complex_, 1).dense()
            d2 = oracles.boundary_matrix(complex_, 2).dense()
            for j in range(len(d2[0]) if d2 else 0):
                column = [sum(d1[i][r] * d2[r][j] for r in range(len(d2))) for i in range(len(d1))]
                assert all(x == 0 for x in column)

    def test_package_sign_is_the_oracles(self):
        matrix = oracles.boundary_matrix(TORUS, 2)
        for i, j, v in matrix.entries:
            deleted = next(p for p, x in enumerate(matrix.cols[j]) if x not in matrix.rows[i])
            assert complexes.boundary_sign(deleted) == v

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            oracles.boundary_matrix(SPHERE, 3)
        with pytest.raises(ValueError):
            oracles.boundary_matrix(SPHERE, 0)


class TestPseudomanifold:
    def test_sphere_is_pseudomanifold(self):
        assert refusal(SPHERE) == ""

    def test_two_triangles_sharing_edge_fail(self):
        assert refusal(SimplicialComplex([[0, 1, 2], [1, 2, 3]])) == "boundary or branching ridges"

    def test_rp2_by_ridge_enumeration(self):
        incidence = {}
        for facet in RP2.facets:
            for i in range(3):
                ridge = facet[:i] + facet[i + 1:]
                incidence[ridge] = incidence.get(ridge, 0) + 1
        assert all(count == 2 for count in incidence.values())
        assert refusal(RP2) == ""

    def test_moebius_fails(self):
        assert refusal(MOEBIUS) == "boundary or branching ridges"

    def test_pinched_fails_connectivity(self):
        # every edge of the two tetrahedron boundaries lies in two triangles
        assert refusal(PINCHED) == "facet adjacency graph disconnected"

    def test_empty_complex(self):
        assert refusal(SimplicialComplex([])) == "empty complex"

    def test_branching_ridge_is_walked_once(self):
        # 16 000 triangles on one edge, under the face cap: a facet graph of
        # k^2 adjacencies took 0.35 s and 251 MiB at k = 2 000, and 16 000 is
        # past the memory of a small host; the branching ridge is refused
        # before the walk
        fan = SimplicialComplex([(0, 1, v) for v in range(2, 16_002)])
        start = time.monotonic()
        assert refusal(fan) == "boundary or branching ridges"
        with pytest.raises(ValueError) as refused:
            orient(fan)
        assert time.monotonic() - start < 1.0
        assert str(refused.value) == "orientation undefined: boundary or branching ridges"


class TestOrient:
    def test_sphere_orientable(self):
        assert orient(SPHERE) is True
        assert oracles.all_orientations(SPHERE.facets)

    def test_rp2_nonorientable(self):
        assert orient(RP2) is False
        assert not oracles.all_orientations(RP2.facets)

    def test_torus_orientable(self):
        assert orient(TORUS)
        assert oracles.all_orientations(TORUS.facets)

    def test_against_exhaustive_search(self):
        # brute force over all 2^f sign assignments; the boundary of the
        # 4-simplex and a 5-cycle are pseudomanifolds of dimension 3 and 1
        simplex4 = SimplicialComplex(combinations(range(5), 4))
        cycle = SimplicialComplex([(i, (i + 1) % 5) for i in range(5)])
        for complex_ in (SPHERE, RP2, TORUS, simplex4, cycle):
            assert orient(complex_) == bool(oracles.all_orientations(complex_.facets))

    def test_requires_pseudomanifold(self):
        with pytest.raises(ValueError, match="^orientation undefined: boundary or branching ridges$"):
            orient(MOEBIUS)

    def test_one_ridge_incidence_per_call(self, monkeypatch):
        # orient and connected_sum read the pseudomanifold check and the
        # verdict off one facet walk over one incidence map per input
        calls = []

        def spy(complex_):
            calls.append(complex_)
            return incidence(complex_)

        incidence = complexes._ridge_incidence
        monkeypatch.setattr(complexes, "_ridge_incidence", spy)
        for complex_ in (SPHERE, RP2, TORUS):
            orient(complex_)
            assert calls == [complex_]
            calls.clear()
        connected_sum(TORUS, SPHERE)
        assert calls == [TORUS, SPHERE]
        calls.clear()
        connected_sum(RP2, RP2, allow_nonorientable=True)
        assert calls == [RP2, RP2]


class TestAdmissibleDim2:
    def test_rp2_admissible(self):
        assert is_admissible_dim2(RP2)

    def test_sphere_admissible(self):
        assert is_admissible_dim2(SPHERE)

    def test_pinched_not_admissible(self):
        assert not is_admissible_dim2(PINCHED)

    def test_torus_admissible(self):
        assert is_admissible_dim2(TORUS)

    def test_boundary_link_not_admissible(self):
        # each boundary vertex's link is a path, not a cycle
        assert MOEBIUS.dim == 2 and MOEBIUS.is_pure
        assert not is_admissible_dim2(MOEBIUS)

    def test_agrees_with_networkx_link_graphs(self):
        nx = pytest.importorskip("networkx")

        def links_are_cycles(complex_):
            for vertex in {v for facet in complex_.facets for v in facet}:
                link = nx.Graph([tuple(v for v in facet if v != vertex) for facet in complex_.facets if vertex in facet])
                if not nx.is_connected(link) or any(degree != 2 for _, degree in link.degree):
                    return False
            return True

        rng = random.Random(2037)
        wedge = SimplicialComplex([*SPHERE.facets, *([v and v + 10 for v in facet] for facet in TORUS.facets)])
        surfaces = [RP2, SPHERE, TORUS, connected_sum(TORUS, TORUS), connected_sum(RP2, RP2, allow_nonorientable=True),
                    PINCHED, wedge]  # the last two have a pinch point
        verdicts = set()
        for _ in range(1500):
            if rng.random() < 0.5:  # random triangles on a few vertices: rarely a surface
                triangles = list(combinations(range(rng.randint(4, 7)), 3))
                facets = rng.sample(triangles, rng.randint(1, len(triangles)))
            else:  # a surface, relabelled, less some facets or plus some random triangles
                surface = rng.choice(surfaces)
                labels = rng.sample(range(surface.vertex_count + 2), surface.vertex_count)
                facets = [[labels[v] for v in facet] for facet in surface.facets]
                rng.shuffle(facets)
                facets = facets[rng.choice([0, 0, 1, 2]):]
                facets += [rng.sample(range(surface.vertex_count + 2), 3) for _ in range(rng.choice([0, 0, 1]))]
            complex_ = SimplicialComplex(facets)
            verdict = is_admissible_dim2(complex_)
            assert verdict == links_are_cycles(complex_), complex_.facets
            verdicts.add(verdict)
        assert verdicts == {False, True}

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            is_admissible_dim2(SimplicialComplex([[0, 1], [1, 2]]))


class TestConnectedSum:
    def test_sphere_sphere(self):
        result = connected_sum(SPHERE, SPHERE)
        assert len(result.facets) == 6
        summary = homology(result)
        assert summary.betti == (1, 0, 1)
        assert all(not t for t in summary.torsion)

    def test_torus_torus_genus_two(self):
        result = connected_sum(TORUS, TORUS)
        assert len(result.facets) == 26
        assert homology(result).betti == (1, 4, 1)
        assert orient(result)

    def test_sphere_neutral_for_betti1(self):
        result = connected_sum(TORUS, SPHERE)
        assert homology(result).betti[1] == homology(TORUS).betti[1]

    def test_facet_count_identity(self):
        for x, y in ((SPHERE, SPHERE), (TORUS, SPHERE), (TORUS, TORUS)):
            assert len(connected_sum(x, y).facets) == len(x.facets) + len(y.facets) - 2

    def test_result_is_pseudomanifold(self):
        assert refusal(connected_sum(TORUS, TORUS)) == ""

    def test_nonorientable_refused_by_default(self):
        with pytest.raises(ValueError, match="^first argument is non-orientable$"):
            connected_sum(RP2, RP2)
        with pytest.raises(ValueError, match="^second argument is non-orientable$"):
            connected_sum(TORUS, RP2)

    def test_nonorientable_allowed_with_flag(self):
        klein = connected_sum(RP2, RP2, allow_nonorientable=True)
        summary = homology(klein)
        assert summary.betti == (1, 1, 0)
        assert summary.torsion[1] == (2,)

    def test_refusals_name_the_argument_and_the_reason(self):
        impure = SimplicialComplex([[0, 1, 2], [2, 3]])
        for x, y, message in (
            (MOEBIUS, SPHERE, "first argument: boundary or branching ridges"),
            (SPHERE, PINCHED, "second argument: facet adjacency graph disconnected"),
            (impure, SPHERE, "first argument: not dimension-homogeneous"),
        ):
            with pytest.raises(ValueError) as refused:
                connected_sum(x, y)
            assert str(refused.value) == message
        with pytest.raises(ValueError, match="^orientation undefined: not dimension-homogeneous$"):
            orient(impure)

    def test_dimension_mismatch(self):
        edge = SimplicialComplex([[0, 1], [1, 2], [0, 2]])
        with pytest.raises(ValueError):
            connected_sum(SPHERE, edge)


class TestEulerCharacteristic:
    def test_corpus_euler_matches_homology(self):
        for name in ("rp2_min", "sphere_delta3", "torus_7", "moebius_band", "pinched_spheres"):
            complex_ = corpus_complex(name)
            counts = face_counts(complex_)
            chi_faces = sum((-1) ** k * c for k, c in enumerate(counts))
            betti = homology(complex_).betti
            chi_homology = sum((-1) ** k * b for k, b in enumerate(betti))
            assert chi_faces == chi_homology


class TestJsonRoundTrip:
    def test_round_trip(self):
        blob = json.dumps({"vertices": RP2.vertex_count, "facets": [list(f) for f in RP2.facets]})
        assert load_complex(blob).facets == RP2.facets

    def test_missing_facets_rejected(self):
        with pytest.raises(ValueError):
            load_complex('{"vertices": 3}')

    @pytest.mark.parametrize("vertices, refusal", [
        (-5, "vertex_count smaller than largest vertex id used"),
        (-1, "vertex_count smaller than largest vertex id used"),
        ("4", "vertex_count '4' is not an integer"),
        (2.0, "vertex_count 2.0 is not an integer"),
        (True, "vertex_count True is not an integer"),
    ], ids=["-5", "-1", "4", "2.0", "True"])
    def test_vertex_count_must_be_a_non_negative_integer(self, vertices, refusal):
        # the loader's own check gave 'vertices' must be a non-negative
        # integer; the constructor's check is now the one check
        blob = json.dumps({"vertices": vertices, "facets": [[0, 1]]})
        with pytest.raises(ValueError, match=f"^complex text: {re.escape(refusal)}$"):
            load_complex(blob)


@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=8,
    )
)
def test_boundary_squared_zero_random(facet_lists):
    complex_ = SimplicialComplex(facet_lists)
    if complex_.dim is None or complex_.dim < 2:
        return
    for k in range(2, complex_.dim + 1):
        lower = oracles.boundary_matrix(complex_, k - 1).dense()
        upper = oracles.boundary_matrix(complex_, k).dense()
        for j in range(len(upper[0]) if upper else 0):
            for i in range(len(lower)):
                assert sum(lower[i][r] * upper[r][j] for r in range(len(upper))) == 0


@given(
    st.lists(
        st.lists(st.integers(0, 6), min_size=2, max_size=3, unique=True),
        min_size=1,
        max_size=9,
    )
)
def test_euler_characteristic_random(facet_lists):
    complex_ = SimplicialComplex(facet_lists)
    counts = face_counts(complex_)
    chi_faces = sum((-1) ** k * c for k, c in enumerate(counts))
    betti = homology(complex_).betti
    assert chi_faces == sum((-1) ** k * b for k, b in enumerate(betti))
