import math
import random

import pytest

from systolic.complexes import SimplicialComplex, connected_sum
from systolic.corpus import corpus_complex, corpus_complexes
import systolic.homology as homology_mod
from systolic.homology import (
    HomologySummary,
    check_s2_torsion_bound,
    homology,
)
from systolic.snf import smith_normal_form

import oracles
from test_snf import _freudenthal_torus


RP2 = corpus_complex("rp2_min")
SPHERE = corpus_complex("sphere_delta3")
TORUS = corpus_complex("torus_7")


class TestHomology:
    def test_sphere(self):
        summary = homology(SPHERE)
        assert summary.betti == (1, 0, 1)
        assert all(not t for t in summary.torsion)

    def test_rp2_against_naive_oracle(self):
        dense = oracles.boundary_matrix(RP2, 2).dense()
        oracle_factors = oracles.naive_invariant_factors(dense)
        assert tuple(d for d in oracle_factors if d > 1) == (2,)
        summary = homology(RP2)
        assert summary.betti == (1, 0, 0)
        assert summary.torsion[1] == (2,)

    def test_torus_against_naive_oracle(self):
        d1 = oracles.naive_invariant_factors(oracles.boundary_matrix(TORUS, 1).dense())
        d2 = oracles.naive_invariant_factors(oracles.boundary_matrix(TORUS, 2).dense())
        counts = [7, 21, 14]
        betti1 = (counts[1] - len(d1)) - len(d2)
        assert betti1 == 2
        assert homology(TORUS).betti == (1, 2, 1)

    def test_empty(self):
        summary = homology(SimplicialComplex([]))
        assert summary.betti == ()

    def test_disconnected_counts_components(self):
        two = SimplicialComplex([[0, 1, 2], [3, 4, 5]])
        assert homology(two).betti[0] == 2


def _shifted(complex_, offset):
    return [[v + offset for v in facet] for facet in complex_.facets]


def _random_pure(rng, dim):
    n = rng.randint(dim + 1, 9)
    return SimplicialComplex([rng.sample(range(n), dim + 1) for _ in range(rng.randint(1, 14))])


def _moore_space(m):
    """A disk whose boundary wraps m times around the triangle 0, 1, 2: H_1 = Z/m.

    The centre is 3 and the inner ring is 4 .. 3m + 3.
    """
    ring = [4 + i for i in range(3 * m)]
    facets = []
    for i in range(3 * m):
        u, w = ring[i], ring[(i + 1) % (3 * m)]
        facets += [(3, u, w), (u, w, i % 3), (w, i % 3, (i + 1) % 3)]
    return SimplicialComplex(facets)


class TestReductionPairs:
    """The reduction pairs against the Smith form of the full boundaries."""

    def _assert_oracle(self, complex_):
        assert homology(complex_) == oracles.homology(complex_)

    def test_corpus(self):
        for complex_ in corpus_complexes().values():
            self._assert_oracle(complex_)

    @pytest.mark.parametrize("k", [3, 4])
    def test_freudenthal_torus(self, k):
        summary = homology(_freudenthal_torus(k))
        assert summary == HomologySummary((1, 3, 3, 1), ((), (), (), ()))
        assert summary == oracles.homology(_freudenthal_torus(k))

    def test_connected_sums(self):
        sums = [
            connected_sum(TORUS, TORUS),
            connected_sum(connected_sum(TORUS, TORUS), TORUS),
            connected_sum(RP2, RP2, allow_nonorientable=True),
            connected_sum(TORUS, RP2, allow_nonorientable=True),
        ]
        for complex_ in sums:
            self._assert_oracle(complex_)
        assert homology(sums[3]) == HomologySummary((1, 2, 0), ((), (2,), ()))

    def test_multi_component(self):
        facets = list(TORUS.facets) + _shifted(RP2, 10) + _shifted(SPHERE, 20) + [[30, 31]]
        summary = homology(SimplicialComplex(facets))
        assert summary == HomologySummary((4, 2, 2), ((), (2,), ()))
        self._assert_oracle(SimplicialComplex(facets))

    def test_non_pure_and_empty(self):
        # a triangle, a dangling edge, a lone vertex and an unused vertex id
        non_pure = SimplicialComplex([[0, 1, 2], [2, 3], [5]], vertex_count=7)
        assert homology(non_pure) == HomologySummary((2, 0, 0), ((), (), ()))
        self._assert_oracle(non_pure)
        assert homology(SimplicialComplex([])) == oracles.homology(SimplicialComplex([])) == HomologySummary((), ())

    def test_random_pure_complexes(self):
        rng = random.Random(31)
        for trial in range(200):
            complex_ = _random_pure(rng, 2 + trial % 2)
            self._assert_oracle(complex_)
            order = math.prod(oracles.homology(complex_).torsion[1])
            assert check_s2_torsion_bound(complex_).torsion_order == order

    @pytest.mark.parametrize("m", [2, 3, 5, 6])
    def test_moore_space_torsion(self, m):
        assert homology(_moore_space(m)) == HomologySummary((1, 0, 0), ((), (m,), ()))
        self._assert_oracle(_moore_space(m))
        assert check_s2_torsion_bound(_moore_space(m)).torsion_order == m


def _relabelled(complex_, rng, offset=0):
    """The facets of ``complex_`` under a random vertex permutation, shifted by ``offset``."""
    perm = rng.sample(range(complex_.vertex_count), complex_.vertex_count)
    return [[perm[v] + offset for v in facet] for facet in complex_.facets]


def _glued_chain(rng):
    """A connected sum of one to three tori and projective planes: Sigma_g, N_g or a mix."""
    parts = [rng.choice((TORUS, RP2)) for _ in range(rng.randint(1, 3))]
    chain = parts[0]
    for part in parts[1:]:
        chain = connected_sum(chain, part, allow_nonorientable=True)
    return chain


def _random_mixed(rng, offset=0):
    """Facets of one to four vertices among at most nine."""
    n = rng.randint(1, 9)
    return [
        [v + offset for v in rng.sample(range(n), rng.randint(1, min(n, 4)))]
        for _ in range(rng.randint(1, 10))
    ]


def test_homology_matches_the_oracle_on_a_seeded_fuzz():
    # random facets of mixed dimension, glued surface chains and T^3, each
    # alone or beside a random block on fresh vertices
    rng = random.Random(2109)
    seen = set()
    for trial in range(300):
        kind = trial % 3
        if kind == 0:
            facets = _random_mixed(rng)
        elif kind == 1:
            facets = _relabelled(_glued_chain(rng), rng)
        else:
            facets = _relabelled(_freudenthal_torus(rng.choice((2, 3, 4))), rng)
        if rng.random() < 0.4:
            facets += _random_mixed(rng, offset=1 + max((v for f in facets for v in f), default=0))
        complex_ = SimplicialComplex(facets)
        summary = homology(complex_)
        assert summary == oracles.homology(complex_), facets
        if any(summary.torsion):
            seen.add("torsion")
        if summary.betti and summary.betti[0] > 1:
            seen.add("components")
        if summary.betti and not any(homology_mod._reduce(complex_)[1]):
            seen.add("empty leftovers")
    assert seen == {"torsion", "components", "empty leftovers"}


def _random_tree(rng):
    """The edges of a random tree on one to eight vertices (no edge for one)."""
    n = rng.randint(1, 8)
    return [[rng.randrange(v), v] for v in range(1, n)] or [[0]]


def _dangling(rng):
    """A triangle or a closed surface with edges hung from some of its vertices."""
    base = rng.choice((SimplicialComplex([[0, 1, 2]]), SPHERE, RP2, TORUS))
    facets = list(base.facets)
    for i in range(rng.randint(1, 3)):
        facets.append([rng.randrange(base.vertex_count), base.vertex_count + i])
    return facets


def _disjoint_union(rng):
    """Facets of two to five blocks on disjoint vertices, the labels shuffled:
    isolated vertices, trees, dangling edges, closed surfaces and pure
    3-complexes."""
    kinds = (
        lambda: [[0]],
        lambda: _random_tree(rng),
        lambda: _dangling(rng),
        lambda: list(_glued_chain(rng).facets),
        lambda: list(SPHERE.facets),
        lambda: list(_random_pure(rng, 3).facets),
        lambda: list(_freudenthal_torus(2).facets),
    )
    facets = []
    for _ in range(rng.randint(2, 5)):
        offset = 1 + max((v for f in facets for v in f), default=-1)
        facets += [[v + offset for v in facet] for facet in rng.choice(kinds)()]
    n = 1 + max(v for f in facets for v in f)
    perm = rng.sample(range(n), n)
    return [[perm[v] for v in facet] for facet in facets]


def test_homology_counts_components_on_a_seeded_fuzz():
    # the reduction takes out one vertex each time its queue runs dry, and
    # its count of them alone must be betti[0]: the union-find count of the
    # components
    rng = random.Random(3511)
    for _ in range(150):
        facets = _disjoint_union(rng)
        complex_ = SimplicialComplex(facets)
        summary = homology(complex_)
        assert summary == oracles.homology(complex_), facets
        assert summary.betti[0] == oracles.components(complex_) == homology_mod._reduce(complex_)[0], facets


def _torsion_order(complex_):
    return check_s2_torsion_bound(complex_).torsion_order


class TestTorsionOrder:
    def test_sphere_torsion_free(self):
        assert _torsion_order(SPHERE) == 1

    def test_rp2(self):
        assert _torsion_order(RP2) == 2

    def test_triple_projective_sum(self):
        triple = connected_sum(
            connected_sum(RP2, RP2, allow_nonorientable=True),
            RP2,
            allow_nonorientable=True,
        )
        assert _torsion_order(triple) == 2
        assert homology(triple).betti[1] == 2

    def test_graph_has_trivial_torsion(self):
        # below dimension 2 there is no 2-cell: a graph has H_1 free, and a
        # set of vertices or the empty complex no H_1 at all
        for facets in ([[0, 1], [1, 2]], [[0], [2]], []):
            assert _torsion_order(SimplicialComplex(facets)) == 1

    def test_smith_forms_of_the_leftover_boundaries(self, monkeypatch):
        calls = []

        def spy(entries):
            calls.append(entries)
            return smith_normal_form(entries)

        monkeypatch.setattr(homology_mod, "smith_normal_form", spy)
        moore = _moore_space(6)
        assert _torsion_order(moore) == 6
        assert len(calls) == 2  # one per boundary operator, d_1 and d_2
        entries = calls[1]
        rows, cols = len({i for i, _ in entries}), len({j for _, j in entries})
        raw_rows, raw_cols = oracles.boundary_matrix(moore, 2).shape
        assert rows < raw_rows and cols < raw_cols


class TestTriangleTorsionBound:
    def test_rp2_values(self):
        report = check_s2_torsion_bound(RP2)
        assert report.s2 == 10
        assert report.torsion_order == 2
        assert report.lower_bound == pytest.approx(2 * math.log(2) / math.log(3), rel=1e-12)
        assert report.lower_bound == pytest.approx(1.2619, abs=1e-4)
        assert report.holds

    def test_sphere(self):
        report = check_s2_torsion_bound(SPHERE)
        assert (report.s2, report.lower_bound, report.holds) == (4, 0.0, True)

    def test_never_fails_on_corpus_and_sums(self):
        complexes = list(corpus_complexes().values())
        complexes.append(connected_sum(TORUS, TORUS))
        complexes.append(connected_sum(RP2, RP2, allow_nonorientable=True))
        for complex_ in complexes:
            assert check_s2_torsion_bound(complex_).holds

    @pytest.mark.parametrize("order, holds", [(3 ** 20, True), (3 ** 20 + 1, False)])
    def test_holds_is_exact_at_the_edge(self, monkeypatch, order, holds):
        # 2 log3(3^20 + 1) exceeds s2 = 40 by about 5e-10, below any float slack
        monkeypatch.setattr(homology_mod, "face_counts", lambda _: [0, 0, 40])
        monkeypatch.setattr(homology_mod, "homology", lambda _: HomologySummary((1, 0, 0), ((), (order,), ())))
        assert check_s2_torsion_bound(SPHERE).holds is holds


def _minor_count(nrows, ncols, rank):
    """How many minors the brute-force oracle takes for a matrix of this rank."""
    orders = range(rank, min(nrows, ncols) + 1)
    return sum(math.comb(nrows, o) * math.comb(ncols, o) for o in orders)


class TestMinorGcd:
    def test_rp2_boundary(self):
        matrix = oracles.boundary_matrix(RP2, 2)
        form = smith_normal_form(matrix.sparse())
        assert (form.rank, form.factor_product) == (10, 2)
        assert oracles.max_minor_gcd(matrix.dense()) == (10, 2)

    def test_single_triangle(self):
        matrix = oracles.boundary_matrix(SimplicialComplex([[0, 1, 2]]), 2)
        assert smith_normal_form(matrix.sparse()).factor_product == 1
        assert oracles.max_minor_gcd(matrix.dense()) == (1, 1)

    def test_random_columns_match_brute_force(self):
        rng = random.Random(4242)
        for _ in range(50):
            rows = rng.randint(3, 6)
            cols = rng.randint(1, 3)
            dense = [[0] * cols for _ in range(rows)]
            for j in range(cols):
                for i in rng.sample(range(rows), 3):
                    dense[i][j] = rng.choice([-1, 1])
            form = smith_normal_form(dense)
            rank, gcd_minors = oracles.max_minor_gcd(dense)
            assert (form.rank, form.factor_product) == (rank, gcd_minors)

    def test_determinant_divisor_bound_whole_corpus(self):
        compared = 0
        for complex_ in corpus_complexes().values():
            for k in range(1, complex_.dim + 1):
                matrix = oracles.boundary_matrix(complex_, k)
                form = smith_normal_form(matrix.sparse())
                if k == 2:
                    assert form.factor_product ** 2 <= 3 ** len(matrix.cols)
                # torus_7's boundaries would take millions of minors
                if _minor_count(len(matrix.rows), len(matrix.cols), form.rank) <= 40_000:
                    assert oracles.max_minor_gcd(matrix.dense()) == (form.rank, form.factor_product)
                    compared += 1
        assert compared == 8
