import itertools
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from systolic import homology as homology_mod, snf
from systolic.complexes import SimplicialComplex, connected_sum
from systolic.corpus import corpus_complex, corpus_complexes
from systolic.snf import smith_normal_form

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
        form = smith_normal_form({(0, 0): 2, (1, 1): 3})
        assert form.invariant_factors == (1, 6)

    def test_boundary_matrix_input(self):
        rp2 = corpus_complex("rp2_min")
        matrix = oracles.boundary_matrix(rp2, 2)
        form = smith_normal_form(matrix.sparse())
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
            rank, gcd_minors = oracles.max_minor_gcd(dense)
            assert form.rank == rank
            if rank:
                assert form.factor_product == gcd_minors


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
    return SimplicialComplex(facets)


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


def _found_matrix(seed):
    """19 x 20, entries in {-6, 2, 3} at density 1/2: at seed 7, Euclidean
    steps on the non-unit pivots grew entries to 810 212 bits."""
    rng = random.Random(seed)
    return [[rng.choice((-6, 2, 3)) if rng.random() < 0.5 else 0 for _ in range(20)]
            for _ in range(19)]


def _presentation_matrix(size, seed):
    """U * diag(1, ..., 1, 2, 6, 12, 0) * V, as the dense U*D*V presentations."""
    rng = random.Random(seed)
    diag = [1] * (size - 4) + [2, 6, 12, 0]
    d = [[diag[i] if i == j else 0 for j in range(size)] for i in range(size)]
    return _mul(_mul(_unimodular(size, rng), d), _unimodular(size, rng))


def _assert_scan_pivots(matrix, entries):
    """The unit pivots lie in distinct rows and columns, the unit phase stops
    only when no unit is left, and the invariant factors are those of the
    scan's diagonal under the pairwise chain."""
    diagonal, _ = oracles.scan_pivot_elimination(entries)
    units, rows, _ = snf._unit_phase(dict(entries))
    assert len({i for i, _ in units}) == len({j for _, j in units}) == len(units)
    assert all(abs(v) > 1 for row in rows.values() for v in row.values())
    assert (
        smith_normal_form(matrix).invariant_factors
        == oracles.pairwise_divisibility_chain(diagonal)
    )


class TestUnitPhase:
    def test_corpus_boundaries(self):
        for complex_ in corpus_complexes().values():
            for k in range(1, complex_.dim + 1):
                matrix = oracles.boundary_matrix(complex_, k)
                _assert_scan_pivots(matrix.dense(), matrix.sparse())

    @pytest.mark.parametrize("k", [3, 4])
    def test_three_torus_boundaries(self, k):
        torus = _freudenthal_torus(k)
        for dim in (1, 2, 3):
            matrix = oracles.boundary_matrix(torus, dim)
            _assert_scan_pivots(matrix.dense(), matrix.sparse())

    def test_dense_presentation_matrix(self):
        # entries grow to hundreds
        dense = _presentation_matrix(30, 0)
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


def _glued(name, genus):
    """Sigma_g (torus_7) or N_g (rp2_min), as g - 1 connected sums."""
    chain = part = corpus_complex(name)
    for _ in range(genus - 1):
        chain = connected_sum(chain, part, allow_nonorientable=True)
    return chain


def _unit_phase_corpus():
    """Named sparse matrices for the unit phase: every corpus boundary, the
    leftover boundaries of T^3 and of glued surfaces, the bench U*D*V
    presentations and the two 19 x 20 matrices of ``_found_matrix``."""
    for name, complex_ in corpus_complexes().items():
        for k in range(1, complex_.dim + 1):
            yield f"{name} d{k}", oracles.boundary_matrix(complex_, k).sparse()
    leftovers = [(f"T3 k={k}", _freudenthal_torus(k)) for k in (3, 4)]
    leftovers += [(f"{name} g={g}", _glued(name, g)) for name in ("torus_7", "rp2_min")
                  for g in (2, 5)]
    for name, complex_ in leftovers:
        for k, boundary in enumerate(homology_mod._reduce(complex_)[2], 1):
            yield f"{name} leftover d{k}", boundary
    for size, seed in ((30, 0), (36, 0), (36, 1)):
        yield f"U*D*V {size} seed {seed}", _dense_entries(_presentation_matrix(size, seed))
    for seed in (7, 0):
        yield f"19 x 20 seed {seed}", _dense_entries(_found_matrix(seed))


def _seeded_sparse(rng):
    """A sparse matrix with entries in -3..3: any of them, only units, or no unit."""
    values = rng.choice((tuple(range(-3, 4)), (-1, 1), (-3, -2, 2, 3)))
    rows, cols = rng.randint(1, 14), rng.randint(1, 14)
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    return {(i, j): rng.choice(values) for i in range(rows) for j in range(cols)
            if rng.random() < density}


class TestUnitPhaseOracle:
    """The one-pass unit phase returns the oracle's pivots, rows and columns."""

    def test_named_matrices(self):
        seen = 0
        for name, entries in _unit_phase_corpus():
            assert snf._unit_phase(entries) == oracles.unit_phase(entries), name
            seen += 1
        assert seen > 20

    def test_seeded_sparse_matrices(self):
        rng = random.Random(2601)
        kinds = set()
        for _ in range(1200):
            entries = _seeded_sparse(rng)
            nonzero = {key: v for key, v in entries.items() if v}
            pivots, rows, cols = snf._unit_phase(entries)  # zeros are dropped here
            assert (pivots, rows, cols) == oracles.unit_phase(nonzero), entries
            if nonzero and all(abs(v) == 1 for v in nonzero.values()):
                kinds.add("all units")
            if nonzero and all(abs(v) > 1 for v in nonzero.values()):
                kinds.add("no unit")
            if pivots and rows:
                kinds.add("units and a residual")
        assert kinds == {"all units", "no unit", "units and a residual"}

    def test_insertion_order_does_not_matter(self):
        rng = random.Random(2602)
        matrices = [entries for _, entries in _unit_phase_corpus()]
        matrices += [_seeded_sparse(rng) for _ in range(300)]
        for entries in matrices:
            shuffled = list(entries.items())
            rng.shuffle(shuffled)
            assert snf._unit_phase(dict(shuffled)) == snf._unit_phase(entries), entries


class TestResidualPhase:
    def test_random_non_unit_matrices_match_oracles(self):
        try:
            import sympy
            from sympy.matrices.normalforms import invariant_factors
        except ImportError:
            sympy = None
        rng = random.Random(500)
        for _ in range(500):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            density = rng.choice((0.3, 0.6, 1.0))
            dense = [
                [rng.choice((2, -2, 3, -3, 4, 6, -6, 9)) if rng.random() < density else 0
                 for _ in range(cols)]
                for _ in range(rows)
            ]
            factors = smith_normal_form(dense).invariant_factors
            assert factors == oracles.naive_invariant_factors(dense), dense
            if sympy is not None:
                found = invariant_factors(sympy.Matrix(dense), domain=sympy.ZZ)
                assert factors == tuple(abs(int(d)) for d in found if d), dense

    def test_diagonal_mod_minor_may_split_a_factor(self):
        # rank 1 with d1 = 1; D = 6 and the diagonal mod 6 is (2, 3), whose
        # chain (1, 6) must be cut to the rank
        dense = [[8, 6], [12, 9]]
        assert snf._rank_and_minor(dense) == (1, 6)
        assert snf._diagonal_mod(dense, 6) == [2, 3]
        assert smith_normal_form(dense).invariant_factors == (1,)

    def test_unit_minor_pads_to_rank(self):
        # no unit entry, but a unit 2 x 2 minor: every entry is 0 mod D = 1
        dense = [[2, 3], [3, 5]]
        assert snf._rank_and_minor(dense) == (2, 1)
        assert smith_normal_form(dense).invariant_factors == (1, 1)

    def test_blocks_are_reduced_apart(self):
        n = 400
        form = smith_normal_form({(i, i): 2 + i % 2 for i in range(n)})
        assert form.invariant_factors == (1,) * (n // 2) + (6,) * (n // 2)

    @pytest.mark.parametrize("x, y", [(3, 3), (2, 6), (5, 0), (1, 7), (4, 6), (6, 4), (9, 21)])
    def test_bezout(self, x, y):
        g, s, t = snf._bezout(x, y)
        assert g == math.gcd(x, y) == s * x + t * y
        if y % x == 0:
            # the pivot line stays as it is, or the alternation never ends
            assert (g, s, t) == (x, 1, 0)

    def test_found_and_presentation_matrices(self):
        start = time.monotonic()
        assert smith_normal_form(_found_matrix(7)).invariant_factors == (1,) * 15 + (3, 3, 3, 60)
        assert smith_normal_form(_found_matrix(0)).invariant_factors == (1,) * 17 + (3, 6)
        for seed in range(6):
            form = smith_normal_form(_presentation_matrix(36, seed))
            assert form.invariant_factors == (1,) * 32 + (2, 6, 12)
        # the Euclidean elimination took over 20 s on the seed 7 matrix alone
        assert time.monotonic() - start < 5.0


def test_sparse_ids_only_order_the_work():
    # strictly increasing relabellings of the row and column ids keep every
    # choice of the elimination, and the form equals the dense one
    rng = random.Random(24)
    for _ in range(300):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        density = rng.choice((0.2, 0.5, 1.0))
        values = rng.choice(((-1, 1), tuple(range(-6, 7)), (2, -2, 3, 4, -6, 9)))
        dense = [
            [rng.choice(values) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        row_ids = sorted(rng.sample(range(-50, 1000), rows))
        col_ids = sorted(rng.sample(range(-50, 1000), cols))
        relabelled = {(row_ids[i], col_ids[j]): v for (i, j), v in _dense_entries(dense).items()}
        form = smith_normal_form(dense)
        assert smith_normal_form(relabelled) == smith_normal_form(_dense_entries(dense)) == form
        assert snf._unit_phase(relabelled)[0] == [
            (row_ids[i], col_ids[j]) for i, j in snf._unit_phase(_dense_entries(dense))[0]
        ]


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
        matrix = oracles.boundary_matrix(corpus_complex(name), 2)
        assert smith_normal_form(matrix.sparse()).invariant_factors == sympy_factors(matrix.dense())


class TestResidualCap:
    """A residual block of rows * cols * min(rows, cols) past the cap is refused."""

    def test_block_at_the_cap_is_reduced(self, monkeypatch):
        monkeypatch.setattr(snf, "MAX_RESIDUAL_WORK", 8)  # 2 * 2 * 2
        assert smith_normal_form([[2, 4], [6, 2]]).invariant_factors == (2, 10)

    def test_block_past_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(snf, "MAX_RESIDUAL_WORK", 8)
        with pytest.raises(ValueError, match=r"2 x 3 block .* an entry update count of up to 12, past the cap \(snf\.MAX_RESIDUAL_WORK = 8\)$"):
            smith_normal_form([[2, 4, 0], [6, 2, 2]])

    def test_cap_is_per_connected_block(self, monkeypatch):
        monkeypatch.setattr(snf, "MAX_RESIDUAL_WORK", 8)
        doubled = [[2 * (i == j) for j in range(50)] for i in range(50)]
        assert smith_normal_form(doubled).invariant_factors == (2,) * 50

    def test_refusal_is_a_value_error(self, monkeypatch):
        # a plain ValueError naming the cap, which the CLI maps to exit 2
        monkeypatch.setattr(snf, "MAX_RESIDUAL_WORK", 8)
        with pytest.raises(ValueError, match=r"\(snf\.MAX_RESIDUAL_WORK = 8\)$") as refused:
            smith_normal_form([[2, 4, 0], [6, 2, 2]])
        assert type(refused.value) is ValueError
