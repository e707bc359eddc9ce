"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test is tagged with the ``acceptance`` marker; the conftest summary
hook prints one PASS/FAIL line per criterion at the end of the run.
"""
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

from systolic.bounds import (
    UpperBoundIngredients,
    best_upper_bound,
    best_upper_table,
    group_count_bound,
    kappa_upper_from_systole,
    surface_kappa_bounds,
)
from systolic.complexes import (
    connected_sum,
    face_counts,
    is_admissible_dim2,
    orient,
)
from systolic.corpus import corpus_complex, corpus_complexes
from systolic.genfun import RationalSequence, detect_linear_recurrence
from systolic.graphs import Graph, construct_regular_girth, girth, load_graph, vertex_window
from systolic.homology import check_s2_torsion_bound, homology
from systolic.presentations import abelianization, heisenberg_presentation
from systolic.sleeves import CubicalModel, assemble, upper_bound_even
from systolic.snf import smith_normal_form
from systolic.waring import (
    _extend_counts,
    _table as _waring_table,
    min_count,
    min_powers,
    verify_g4,
)

import oracles


def _circulant(n, offsets):
    edges = set()
    for i in range(n):
        for d in offsets:
            j = (i + d) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph(n, tuple(sorted(edges)))


def _odd_regular_circulant(n, degree):
    # offsets 1..(degree-1)/2 plus the antipode of an even cycle
    half = (degree - 1) // 2
    return _circulant(n, tuple(range(1, half + 1)) + (n // 2,))


@pytest.mark.acceptance("criterion 01 (projective-plane pipeline)")
def test_criterion_1_rp2_pipeline():
    start = time.monotonic()
    rp2 = corpus_complex("rp2_min")
    assert face_counts(rp2) == [6, 15, 10]
    summary = homology(rp2)
    assert summary.betti[1] == 0
    assert summary.torsion[1] == (2,)
    assert not orient(rp2)
    assert is_admissible_dim2(rp2)
    report = check_s2_torsion_bound(rp2)
    assert report.s2 == 10
    assert report.lower_bound == pytest.approx(1.2619, abs=5e-5)
    assert report.holds
    assert time.monotonic() - start < 1.0


@pytest.mark.acceptance("criterion 02 (Smith form oracle equivalence)")
def test_criterion_2_snf_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(186282)
    checked = 0
    while checked < 1000:
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        density = rng.choice([0.25, 0.5, 0.75, 1.0])
        dense = [
            [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        factors = smith_normal_form(dense).invariant_factors
        assert factors == oracles.naive_invariant_factors(dense), dense

        # invariance under row/column permutation with sign flips
        permuted_rows = [row[:] for row in dense]
        rng.shuffle(permuted_rows)
        col_order = list(range(cols))
        rng.shuffle(col_order)
        signs = [rng.choice([1, -1]) for _ in range(cols)]
        permuted = [
            [signs[idx] * row[j] for idx, j in enumerate(col_order)]
            for row in permuted_rows
        ]
        assert smith_normal_form(permuted).invariant_factors == factors

        # transpose invariance
        transposed = [list(col) for col in zip(*dense)]
        assert smith_normal_form(transposed).invariant_factors == factors
        checked += 1
    assert checked >= 1000
    assert time.monotonic() - start < 30.0


@pytest.mark.acceptance("criterion 03 (determinant-divisor bound on corpus)")
def test_criterion_3_determinant_divisor_bound():
    complexes = dict(corpus_complexes())
    torus = complexes["torus_7"]
    rp2 = complexes["rp2_min"]
    complexes["torus_torus"] = connected_sum(torus, torus)
    complexes["klein"] = connected_sum(rp2, rp2, allow_nonorientable=True)
    violations = []
    for name, complex_ in complexes.items():
        if complex_.dim is None or complex_.dim < 2:
            continue
        matrix = oracles.boundary_matrix(complex_, 2)
        product = smith_normal_form(matrix.sparse()).factor_product
        s2 = len(matrix.cols)
        if product * product > 3 ** s2:  # exact integer form of the bound
            violations.append(name)
    assert violations == []


@pytest.mark.acceptance("criterion 04 (Heisenberg abelianization family)")
def test_criterion_4_heisenberg_family():
    start = time.monotonic()
    for n in range(1, 201):
        image = abelianization(heisenberg_presentation(n))
        assert image.free_rank == 2
        if n == 1:
            assert image.torsion_factors == ()
        else:
            assert image.torsion_factors == (n,)
    assert time.monotonic() - start < 5.0


@pytest.mark.acceptance("criterion 05 (fourth-power decompositions to 10^6)")
def test_criterion_5_waring():
    start = time.monotonic()
    limit = 10 ** 6
    report = verify_g4(limit)
    assert report.within_19
    assert report.max_count == 19
    assert min_count(79, 4) == 19

    # the layered table against the dynamic program's count list, at every k
    layers = _waring_table(4, limit)
    counts = _extend_counts(4, [0], limit)
    assert max(counts[1:]) <= 19
    assert all(layers[k] == counts[k] for k in range(1, limit + 1))

    # exact big-integer re-summation of decompositions across the range
    for k in [79, 96, 159, 319, 399] + list(range(1, limit + 1, 9973)) + [limit]:
        decomposition = min_powers(k, 4)
        assert sum(p ** 4 for p in decomposition.parts) == k
        assert decomposition.count == counts[k]
    assert time.monotonic() - start < 60.0


@pytest.mark.acceptance("criterion 06 (girth-constrained construction)")
def test_criterion_6_girth_construction():
    targets = [(3, 5, 10), (3, 6, 14), (7, 4, 50), (7, 5, 150)]
    for degree, girth_target, vertices in targets:
        graph = construct_regular_girth(degree, girth_target, vertices, seed=1)
        # independent verification: the build checks nothing at run time
        oracles.check_regular_girth(graph, degree, girth_target)
        assert all(d == degree for d in graph.degrees)
        assert girth(graph) >= girth_target

    rng = random.Random(5150)
    for _ in range(200):
        n = rng.randint(2, 12)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        edges = tuple(sorted(pairs[: rng.randint(0, len(pairs))]))
        assert girth(Graph(n, edges)) == oracles.brute_force_girth(n, edges)
    for structured in (
        _circulant(12, (1,)),
        _circulant(9, (1,)),
        Graph(10, tuple(combinations(range(5), 2)) + ((5, 6), (6, 7))),
    ):
        assert girth(structured) == oracles.brute_force_girth(
            structured.vertex_count, structured.edges
        )


@pytest.mark.acceptance("criterion 07 (sleeve assembly formulas)")
def test_criterion_7_sleeve_formulas():
    # exact volume on a grid of >= 100 parameter points
    points = 0
    for m in (3, 4, 5):
        c = 2 * m + 1
        low, high = vertex_window(c, 2)
        sizes = [two_n for two_n in range(low, high + 1, 2) if two_n > c][:6]
        for two_n in sizes:
            graph = _odd_regular_circulant(two_n, c)
            for eps in (Fraction(1, 4), Fraction(1, 5), Fraction(2, 9),
                        Fraction(3, 13), Fraction(5, 21), Fraction(4, 17)):
                report = assemble(CubicalModel(m, c), eps, graph)
                assert report.volume == 4 * m * (two_n // 2) * c * eps  # exact
                assert report.systole_lower_bound == 1
                points += 1
    assert points >= 100

    # the ratio recovers m c ln(c-1) to 1e-12 relative error
    model = CubicalModel(3, 7)
    constant = 3 * 7 * math.log(6)
    for n in (2, 17, 311, 10 ** 4, 10 ** 7):
        ratio = upper_bound_even(model, n) / ((2 * n) / math.log(2 * n))
        assert abs(ratio - constant) <= 1e-12 * constant

    assert vertex_window(7, 5) == (6216, 7776)

    # 100/100 adversarial girth rejections
    adversarial_graph = _odd_regular_circulant(168, 7)
    assert girth(adversarial_graph) == 3
    rejected = 0
    for t in range(100):
        eps = Fraction(1000 + t, 6800 + 6 * t)  # threshold in (3.36, 3.4], l = 3
        with pytest.raises(ValueError, match="girth"):
            assemble(CubicalModel(3, 7), eps, adversarial_graph)
        rejected += 1
    assert rejected == 100


@pytest.mark.acceptance("criterion 08 (composed upper bound subadditivity)")
def test_criterion_8_best_upper_bound():
    # the k/ln(1+k) ingredient is active; a uniform Waring-type cap is also
    # available, which is what drives the ratio far below best(1) by 10^6
    ingredients = UpperBoundIngredients.make(base={1: 1.0}, sublinear=[1.0], caps=[19.0])
    table = best_upper_table(1000, ingredients)

    for j in range(1, 201):
        for k in range(1, 201):
            assert table[j + k] <= table[j] + table[k] + 1e-12

    ratios = [table[k] / k for k in range(1, 1001)]
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a + 1e-12

    best_one = table[1]
    tail_ratio = best_upper_bound(10 ** 6, ingredients) / 10 ** 6
    assert tail_ratio < 0.01 * best_one

    # sanity: the sublinear ingredient really is the binding bound early on
    assert table[40] == pytest.approx(40 / math.log(41))


@pytest.mark.acceptance("criterion 09 (bound-calculus spot values)")
def test_criterion_9_bound_calculus_spots():
    assert surface_kappa_bounds(1) == (Fraction(4, 3), 14)
    assert surface_kappa_bounds(2)[1] == 24
    for k in range(1, 61):
        report = group_count_bound(k)
        assert report.chain_ok
        assert 14 * report.triangle_slots <= k ** 3
        assert sum(math.comb(report.triangle_slots, s) for s in range(k + 1)) <= 2 ** report.triangle_slots
    with pytest.raises(ValueError):
        kappa_upper_from_systole(math.pi / 16 * 0.999)
    assert math.isfinite(kappa_upper_from_systole(math.pi / 16))


@pytest.mark.acceptance("criterion 10 (recurrence detection)")
def test_criterion_10_recurrence_detection():
    constant = detect_linear_recurrence(RationalSequence.from_values([4] * 40))
    assert constant.found and constant.order == 1

    fib = [1, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    verdict = detect_linear_recurrence(RationalSequence.from_values(fib), max_order=2)
    assert verdict.found and verdict.order == 2
    assert verdict.coefficients == (Fraction(1), Fraction(1))

    sublinear = [math.floor(100 * k / math.log(1 + k)) for k in range(1, 61)]
    assert not detect_linear_recurrence(
        RationalSequence.from_values(sublinear), max_order=12
    ).found

    rng = random.Random(299792458)
    for _ in range(500):
        length = rng.randint(12, 20)
        if rng.random() < 0.5:
            terms = [Fraction(rng.randint(-3, 3)) for _ in range(length)]
        else:
            order = rng.randint(1, 3)
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(order)]
            terms = [Fraction(rng.randint(-2, 2)) for _ in range(order)]
            while len(terms) < length:
                terms.append(
                    sum(c * t for c, t in zip(coeffs, reversed(terms[-order:])))
                )
        max_order = (length - 4) // 2
        verdict = detect_linear_recurrence(RationalSequence.from_values(terms), max_order)
        oracle_order = oracles.hankel_min_order(terms, max_order)
        assert verdict.found == (oracle_order is not None)
        if verdict.found:
            assert verdict.order == oracle_order


def _cli(args, hashseed, threads):
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hashseed),
        OMP_NUM_THREADS=str(threads),
    )
    return subprocess.run(
        [sys.executable, "-m", "systolic.cli", *args],
        capture_output=True,
        env=env,
        check=False,
    )


@pytest.mark.acceptance("criterion 11 (byte-identical CLI output)")
def test_criterion_11_cli_determinism(tmp_path):
    seq_file = tmp_path / "seq.json"
    seq_file.write_text(json.dumps({"terms": [str(k * k) for k in range(1, 41)]}))
    commands = [
        ["corpus", "--format", "csv"],
        ["homology", "--corpus", "--format", "csv"],
        ["check-torsion-bound", "--corpus"],
        ["build-graph", "--c", "3", "--girth", "6", "--vertices", "16", "--seed", "3"],
        ["waring", "--k", "159", "--d", "4"],
        ["bounds", "group-count", "--value", "20"],
        ["genfun", "detect", "--file", str(seq_file), "--max-order", "5"],
    ]
    for args in commands:
        runs = [
            _cli(args, hashseed=0, threads=1),
            _cli(args, hashseed=0, threads=1),
            _cli(args, hashseed=17, threads=4),
            _cli(args, hashseed=99, threads=2),
        ]
        assert all(r.returncode == 0 for r in runs), (args, runs[0].stderr)
        outputs = {r.stdout for r in runs}
        assert len(outputs) == 1, f"non-deterministic output for {args}"
        if args[0] == "build-graph":
            oracles.check_regular_girth(load_graph(runs[0].stdout), 3, 6)
