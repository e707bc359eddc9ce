import json
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from systolic import complexes
from systolic.complexes import (
    SimplicialComplex,
    connected_sum,
    face_counts,
    from_facets,
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
        complex_ = from_facets([[0, 1, 2]])
        assert face_counts(complex_) == [3, 3, 1]

    def test_empty_complex_has_undefined_dim(self):
        complex_ = from_facets([])
        assert complex_.dim is None
        assert face_counts(complex_) == []

    def test_rp2_facet_count(self):
        assert face_counts(RP2)[2] == 10

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match=r"^repeated vertex in simplex \(0, 1, 1\)$"):
            from_facets([[0, 1, 1]])

    def test_sorting_and_dedup(self):
        complex_ = from_facets([[2, 1, 0], [0, 1, 2], [1, 0]])
        assert complex_.facets == ((0, 1, 2),)

    def test_non_maximal_faces_dropped(self):
        complex_ = from_facets([[0, 1], [0, 1, 2], [3, 4]])
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
            assert from_facets(simplices).facets == maximal

    def test_maximal_filter_time_is_near_linear(self):
        # testing each shorter facet against every kept facet takes seconds here
        n = 4000
        disjoint = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n)]
        disjoint += [(3 * n + 2 * i, 3 * n + 2 * i + 1) for i in range(n)]
        # triangles and edges through vertex 0; the first 4000 edges lie in triangles
        cone = [(0, 2 * i + 1, 2 * i + 2) for i in range(n)] + [(0, v) for v in range(n + 1, 3 * n + 1)]
        for facets, kept in ((disjoint, 2 * n), (cone, 2 * n)):
            start = time.perf_counter()
            complex_ = from_facets(facets)
            assert time.perf_counter() - start < 1.0
            assert len(complex_.facets) == kept

    def test_empty_simplex_is_no_facet(self):
        # [[]] was kept as the facet (), a complex of dimension -1 that passed
        # as a pseudomanifold; it is the empty complex, as [] is
        for vertex_count in (None, 3):
            assert from_facets([[]], vertex_count) == from_facets([], vertex_count)
        assert from_facets([[]]) == SimplicialComplex(0, ())
        assert from_facets([[]]).dim is None
        assert refusal(from_facets([[]])) == "empty complex"
        with pytest.raises(ValueError, match="^orientation undefined: empty complex$"):
            orient(from_facets([[]]))
        assert from_facets([[], [3]]).facets == ((3,),)

    def test_canonical_facets_are_not_checked_again(self, monkeypatch):
        # from_facets makes its facets canonical itself, so the constructor's
        # order, range and duplicate checks do not run on that path
        def refuse(self):
            raise AssertionError("from_facets re-checked its own facets")

        monkeypatch.setattr(SimplicialComplex, "__post_init__", refuse)
        made = from_facets([[2, 0, 1], [1, 0], [5], [2, 1, 0]])
        assert (made.vertex_count, made.facets) == (6, ((0, 1, 2), (5,)))

    def test_python_callers_keep_every_check(self):
        for vertex_count, facets, message in (
            (-1, (), "non-negative"), (3, ((0, 1), (0, 1)), "duplicate"),
            (3, ((1, 0),), "strictly sorted"), (3, ((0, 3),), "outside"), (3, ((-1, 0),), "outside"),
        ):
            with pytest.raises(ValueError, match=message):
                SimplicialComplex(vertex_count, facets)

    def test_outcomes_match_the_checked_constructor(self, monkeypatch):
        # the same complexes and error texts as when from_facets ended in
        # the constructor, on seeded facet lists with negative vertices,
        # repeats, non-maximal faces and vertex counts too small
        rng = random.Random(22)
        cases = []
        for _ in range(600):
            facets = [[rng.randint(-2, 9) for _ in range(rng.randint(0, 4))] for _ in range(rng.randint(0, 6))]
            cases.append((facets, rng.choice((None, rng.randint(-2, 12)))))

        def outcomes():
            found = []
            for facets, vertex_count in cases:
                try:
                    found.append(repr(from_facets(facets, vertex_count)))
                except ValueError as error:
                    found.append((type(error), str(error)))
            return found

        fast = outcomes()
        monkeypatch.setattr(complexes, "trusted", lambda cls, *values: cls(*values))
        assert fast == outcomes()
        errors = {text.split()[0] for text in (o[1] for o in fast if isinstance(o, tuple))}
        assert {"repeated", "vertex_count", "facet"} <= errors
        assert sum(isinstance(o, str) for o in fast) > 100


class TestFaceCap:
    def test_at_the_cap_and_one_past(self, monkeypatch):
        # a tetrahedron and a triangle take 15 + 7 enumeration steps
        monkeypatch.setattr(complexes, "MAX_FACE_STEPS", 22)
        assert face_counts(from_facets([[0, 1, 2, 3], [4, 5, 6]])) == [7, 9, 5, 1]
        with pytest.raises(ValueError, match=r"a step count of 23, past the cap \(complexes\.MAX_FACE_STEPS = 22\)$"):
            from_facets([[0, 1, 2, 3], [4, 5, 6], [7]])
        with pytest.raises(ValueError, match=r"a step count of 23, past the cap \(complexes\.MAX_FACE_STEPS = 22\)$"):
            SimplicialComplex(8, ((0, 1, 2, 3), (4, 5, 6), (7,)))

    def test_torus_k10_is_below_the_cap(self):
        torus = _freudenthal_torus(10)
        steps = sum(2 ** len(f) - 1 for f in torus.facets)
        assert steps == 90_000 and steps <= complexes.MAX_FACE_STEPS
        assert from_facets(torus.facets) == torus

    def test_homology_at_the_real_cap_and_one_past(self):
        # disjoint tetrahedra, 15 steps each, and isolated vertices, 1 step
        # each, to exactly the cap: homology there takes about a second
        count, rest = divmod(complexes.MAX_FACE_STEPS, 15)
        facets = [range(4 * i, 4 * i + 4) for i in range(count)]
        facets += [[4 * count + i] for i in range(rest)]
        assert homology(from_facets(facets)).betti == (count + rest, 0, 0, 0)
        cap = complexes.MAX_FACE_STEPS
        with pytest.raises(ValueError, match=rf"a step count of {cap + 1}, past the cap \(complexes\.MAX_FACE_STEPS = {cap}\)$"):
            from_facets(facets + [[4 * count + rest]])


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
        assert face_counts(from_facets([[0, 1]])) == [2, 1]


class TestBoundaryMatrix:
    def test_triangle_column_signs(self):
        matrix = oracles.boundary_matrix(from_facets([[0, 1, 2]]), 2)
        dense = matrix.dense()
        assert matrix.rows == ((0, 1), (0, 2), (1, 2))
        assert [row[0] for row in dense] == [1, -1, 1]

    def test_three_cycle_rank(self):
        cycle = from_facets([[0, 1], [1, 2], [0, 2]])
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
        assert refusal(from_facets([[0, 1, 2], [1, 2, 3]])) == "boundary or branching ridges"

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
        assert refusal(from_facets([])) == "empty complex"

    def test_branching_ridge_is_walked_once(self):
        # 16 000 triangles on one edge, under the face cap: a facet graph of
        # k^2 adjacencies took 0.35 s and 251 MiB at k = 2 000, and 16 000 is
        # past the memory of a small host; the branching ridge is refused
        # before the walk
        fan = from_facets([(0, 1, v) for v in range(2, 16_002)])
        start = time.monotonic()
        assert refusal(fan) == "boundary or branching ridges"
        with pytest.raises(ValueError) as refused:
            orient(fan)
        assert time.monotonic() - start < 1.0
        assert str(refused.value) == "orientation undefined: boundary or branching ridges"


class TestOrient:
    def test_sphere_orientable(self):
        assert orient(SPHERE).orientable
        assert oracles.all_orientations(SPHERE.facets)

    def test_rp2_nonorientable(self):
        assert not orient(RP2).orientable
        assert not oracles.all_orientations(RP2.facets)

    def test_torus_orientable(self):
        assert orient(TORUS).orientable
        assert oracles.all_orientations(TORUS.facets)

    def test_against_exhaustive_search(self):
        # brute force over all 2^f sign assignments; the boundary of the
        # 4-simplex and a 5-cycle are pseudomanifolds of dimension 3 and 1
        simplex4 = from_facets(combinations(range(5), 4))
        cycle = from_facets([(i, (i + 1) % 5) for i in range(5)])
        for complex_ in (SPHERE, RP2, TORUS, simplex4, cycle):
            assert orient(complex_).orientable == bool(oracles.all_orientations(complex_.facets))

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

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            is_admissible_dim2(from_facets([[0, 1], [1, 2]]))


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
        assert orient(result).orientable

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
        impure = from_facets([[0, 1, 2], [2, 3]])
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
        edge = from_facets([[0, 1], [1, 2], [0, 2]])
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

    @pytest.mark.parametrize("vertices", [-5, -1, "4", 2.0, True])
    def test_vertex_count_must_be_a_non_negative_integer(self, vertices):
        blob = json.dumps({"vertices": vertices, "facets": [[0, 1]]})
        with pytest.raises(ValueError, match="^complex JSON 'vertices' must be a non-negative integer$"):
            load_complex(blob)


@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
        min_size=1,
        max_size=8,
    )
)
def test_boundary_squared_zero_random(facet_lists):
    complex_ = from_facets(facet_lists)
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
    complex_ = from_facets(facet_lists)
    counts = face_counts(complex_)
    chi_faces = sum((-1) ** k * c for k, c in enumerate(counts))
    betti = homology(complex_).betti
    assert chi_faces == sum((-1) ** k * b for k, b in enumerate(betti))
