import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from systolic import (
    boundary_matrix,
    corpus_complex,
    corpus_complexes,
    from_facets,
    smith_normal_form,
    snf,
)

import oracles


class TestKnownForms:
    def test_identity(self):
        form = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert form.invariant_factors == (1, 1, 1)

    def test_already_chained_diagonal(self):
        assert smith_normal_form([[2, 0], [0, 4]]).invariant_factors == (2, 4)

    def test_coprime_diagonal_rechains(self):
        form = smith_normal_form([[3, 0], [0, 5]])
        assert form.invariant_factors == (1, 15)
        assert form.invariant_factors == oracles.naive_invariant_factors([[3, 0], [0, 5]])

    def test_empty_matrix(self):
        form = smith_normal_form([])
        assert form.rank == 0
        assert form.invariant_factors == ()

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]).rank == 0

    def test_sparse_input(self):
        form = smith_normal_form({(0, 0): 2, (1, 1): 3}, shape=(3, 3))
        assert form.invariant_factors == (1, 6)
        assert (form.row_dim, form.col_dim) == (3, 3)

    def test_boundary_matrix_input(self):
        rp2 = corpus_complex("rp2_min")
        form = smith_normal_form(boundary_matrix(rp2, 2))
        assert form.torsion_factors == (2,)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            smith_normal_form([[1.5]])


def _random_sparse(rng, max_dim=8, bound=3):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    density = rng.choice([0.2, 0.4, 0.7, 1.0])
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


class TestOracleEquivalence:
    def test_random_matrices_match_naive_oracle(self):
        rng = random.Random(20240811)
        for _ in range(300):
            dense = _random_sparse(rng)
            assert (
                smith_normal_form(dense).invariant_factors
                == oracles.naive_invariant_factors(dense)
            ), dense

    def test_divisibility_chain_holds(self):
        rng = random.Random(7)
        for _ in range(200):
            factors = smith_normal_form(_random_sparse(rng)).invariant_factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_product_equals_minor_gcd(self):
        # the invariant factor product is the gcd of all rank-size minors
        rng = random.Random(99)
        for _ in range(120):
            dense = _random_sparse(rng, max_dim=4)
            form = smith_normal_form(dense)
            rank, gcd_minors = _brute_rank_and_minor_gcd(dense)
            assert form.rank == rank
            if rank:
                assert form.factor_product == gcd_minors


def _brute_rank_and_minor_gcd(dense):
    from itertools import combinations

    nrows, ncols = len(dense), len(dense[0]) if dense else 0
    for order in range(min(nrows, ncols), 0, -1):
        g = 0
        for rows in combinations(range(nrows), order):
            for cols in combinations(range(ncols), order):
                g = math.gcd(g, abs(_det([[dense[i][j] for j in cols] for i in rows])))
        if g:
            return order, g
    return 0, 1


def _det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * _det(minor)
    return total


_small_matrix = st.lists(
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@given(_small_matrix, st.randoms(use_true_random=False))
def test_invariance_under_row_col_permutation_and_signs(dense, rng):
    base = smith_normal_form(dense).invariant_factors
    rows = [row[:] for row in dense]
    rng.shuffle(rows)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    flips_r = [rng.choice([1, -1]) for _ in rows]
    flips_c = [rng.choice([1, -1]) for _ in cols]
    permuted = [
        [flips_r[i] * flips_c[jj] * rows[i][j] for jj, j in enumerate(cols)]
        for i in range(len(rows))
    ]
    assert smith_normal_form(permuted).invariant_factors == base


@given(_small_matrix)
def test_transpose_invariance(dense):
    transposed = [list(col) for col in zip(*dense)]
    assert (
        smith_normal_form(dense).invariant_factors
        == smith_normal_form(transposed).invariant_factors
    )


@given(_small_matrix)
def test_matches_naive_oracle_property(dense):
    assert smith_normal_form(dense).invariant_factors == oracles.naive_invariant_factors(dense)


def _freudenthal_torus(k):
    """T^3 from the k*k*k cube grid, each cube split into 6 tetrahedra."""
    def vid(point):
        x, y, z = (c % k for c in point)
        return (x * k + y) * k + z

    facets = []
    for corner in itertools.product(range(k), repeat=3):
        for order in itertools.permutations(range(3)):
            point = list(corner)
            simplex = [vid(point)]
            for axis in order:
                point[axis] += 1
                simplex.append(vid(point))
            facets.append(sorted(simplex))
    return from_facets(facets)


def _unimodular(n, rng):
    """L*U with unit diagonals and entries in {-1, 0, 1}: determinant 1."""
    lower = [[int(i == j) or (rng.randint(-1, 1) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) or (rng.randint(-1, 1) if j > i else 0) for j in range(n)]
             for i in range(n)]
    return _mul(lower, upper)


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _dense_entries(dense):
    return {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}


def _assert_scan_pivots(matrix, entries):
    """The heap takes the pivots of a scan over every entry, in order, and
    the unit-aware chain gives the pairwise chain's factors."""
    diagonal, pivots = oracles.scan_pivot_elimination(entries)
    assert snf._pivot_sequence(matrix) == pivots
    assert (
        smith_normal_form(matrix).invariant_factors
        == oracles.pairwise_divisibility_chain(diagonal)
    )


class TestHeapPivotsMatchScan:
    def test_corpus_boundaries(self):
        for complex_ in corpus_complexes().values():
            for k in range(1, complex_.dim + 1):
                matrix = boundary_matrix(complex_, k)
                _assert_scan_pivots(matrix, matrix.sparse())

    @pytest.mark.parametrize("k", [3, 4])
    def test_three_torus_boundaries(self, k):
        torus = _freudenthal_torus(k)
        for dim in (1, 2, 3):
            matrix = boundary_matrix(torus, dim)
            _assert_scan_pivots(matrix, matrix.sparse())

    def test_dense_presentation_matrix(self):
        # U * diag(1, ..., 1, 2, 6, 12, 0) * V: entries grow to hundreds
        rng = random.Random(0)
        size = 30
        diag = [1] * (size - 4) + [2, 6, 12, 0]
        d = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]
        dense = _mul(_mul(_unimodular(size, rng), d), _unimodular(size, rng))
        _assert_scan_pivots(dense, _dense_entries(dense))
        assert smith_normal_form(dense).invariant_factors == (1,) * 26 + (2, 6, 12)

    @pytest.mark.parametrize("values", [(-1, 1), tuple(range(-9, 10))])
    def test_random_sparse_matrices(self, values):
        rng = random.Random(len(values))
        for _ in range(150):
            rows, cols = rng.randint(1, 14), rng.randint(1, 14)
            density = rng.choice([0.15, 0.3, 0.6, 1.0])
            dense = [
                [rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            _assert_scan_pivots(dense, _dense_entries(dense))


def test_divisibility_chain_matches_pairwise():
    rng = random.Random(3)
    for _ in range(500):
        values = [rng.choice([0, 1, 1, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 25, 49])
                  for _ in range(rng.randint(0, 12))]
        assert snf._divisibility_chain(values) == oracles.pairwise_divisibility_chain(values)
    assert snf._divisibility_chain([1, 0, 3, 1, 5, 0]) == (1, 1, 1, 15)
    assert snf._divisibility_chain([0, 0]) == ()


def test_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    def sympy_factors(dense):
        found = invariant_factors(sympy.Matrix(dense), domain=sympy.ZZ)
        return tuple(abs(int(d)) for d in found if d)

    rng = random.Random(11)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(dense).invariant_factors == sympy_factors(dense), dense
    for name in ("rp2_min", "torus_7"):
        matrix = boundary_matrix(corpus_complex(name), 2)
        assert smith_normal_form(matrix).invariant_factors == sympy_factors(matrix.dense())
