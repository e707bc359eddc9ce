import math
from fractions import Fraction

import pytest

from systolic.bounds import multiple_class_bound
from systolic.graphs import Graph, construct_regular_girth, girth, vertex_window
from systolic import sleeves
from systolic.sleeves import (
    AssemblyReport,
    CubicalModel,
    assemble,
    sleeve_volume_single,
    upper_bound_even,
)

import oracles

MODEL = CubicalModel(3, 7)


def circulant(n, offsets):
    edges = set()
    for i in range(n):
        for d in offsets:
            j = (i + d) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph(n, tuple(sorted(edges)))


def seven_regular_girth3(n):
    # offsets 1,2,3 plus the antipode: degree 7 on even n, triangles everywhere
    return circulant(n, (1, 2, 3, n // 2))


class TestModel:
    def test_cube_count_floor(self):
        with pytest.raises(ValueError):
            CubicalModel(3, 3)
        with pytest.raises(ValueError):
            CubicalModel(3, 6)

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            CubicalModel(2, 7)

    @pytest.mark.parametrize("m, c", [(3.5, 7), (3, 9.5), (3.0, 7), (True, 7), ("3", 7)])
    def test_m_and_c_must_be_integers(self, m, c):
        # m = 3.5 was kept, and sleeve_volume_single gave the inexact float 6.300000000000001
        with pytest.raises(ValueError, match="assembly model needs integers m and c"):
            CubicalModel(m, c)


class TestSingleVolume:
    def test_exact_value(self):
        assert sleeve_volume_single(MODEL, Fraction(1, 10)) == Fraction(42, 10)

    def test_linearity_in_eps(self):
        eps = Fraction(3, 17)
        assert sleeve_volume_single(MODEL, 2 * eps) == 2 * sleeve_volume_single(MODEL, eps)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            sleeve_volume_single(MODEL, 0)


class TestAssemble:
    def test_small_honest_assembly(self):
        graph = seven_regular_girth3(26)
        assert girth(graph) == 3
        report = assemble(MODEL, Fraction(1, 5), graph)
        assert report.volume == 4 * 3 * 13 * 7 * Fraction(1, 5)
        assert report.volume == 2 * 13 * sleeve_volume_single(MODEL, Fraction(1, 5))
        assert report.path_scale == 2
        assert report.systole_lower_bound == 1
        assert report.handle_count == 13 * (7 - 2) + 1

    def test_volume_additivity_across_sizes(self):
        for two_n in (24, 26, 30, 36):
            report = assemble(MODEL, Fraction(1, 5), seven_regular_girth3(two_n))
            assert report.volume == two_n * sleeve_volume_single(MODEL, Fraction(1, 5))

    def test_girth_not_exceeding_threshold_rejected(self):
        graph = seven_regular_girth3(168)  # inside the l=3 window [168, 216]
        with pytest.raises(ValueError, match="girth 3 does not exceed"):
            assemble(MODEL, Fraction(1, 7), graph)  # threshold 3.5 >= girth 3

    @pytest.mark.parametrize(
        "two_n, eps, message",
        [
            (26, Fraction(1, 7), r"window \[168, 216\] for degree 7, path scale 3$"),
            (40, Fraction(1, 5), r"window \[24, 36\] for degree 7, path scale 2$"),
            (26, Fraction(1, 10), r"for degree 7, path scale 5, which starts above 2\^5$"),
            (26, Fraction(1, 10 ** 12), r"path scale 500000000000, which starts above 2\^500000000000$"),
        ],
    )
    def test_window_is_checked_before_the_girth(self, two_n, eps, message, monkeypatch):
        def no_girth(graph):
            raise AssertionError("girth searched outside the window")

        monkeypatch.setattr(sleeves, "girth", no_girth)
        with pytest.raises(ValueError, match=rf"^vertex count {two_n} outside .*{message}"):
            assemble(MODEL, eps, seven_regular_girth3(two_n))

    @pytest.mark.parametrize("c", [7, 8, 11, 30])
    def test_a_window_past_the_bit_length_starts_above_2n(self, c):
        # the refusal that does not form (c-1)^l: l >= bit_length(2n) puts 2n below the window
        for two_n in range(4, 300, 2):
            for path_scale in range(two_n.bit_length(), two_n.bit_length() + 3):
                assert vertex_window(c, path_scale)[0] > two_n

    def test_window_violation_rejected(self):
        graph = seven_regular_girth3(40)  # above the l=2 window maximum 36
        with pytest.raises(ValueError, match="window"):
            assemble(MODEL, Fraction(1, 5), graph)

    def test_irregular_graph_rejected(self):
        bad = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        with pytest.raises(ValueError, match="regular"):
            assemble(MODEL, Fraction(1, 5), bad)

    def test_odd_vertex_count_rejected(self):
        odd = circulant(25, (1, 2, 3))  # 6-regular on odd count; degree fails first
        with pytest.raises(ValueError):
            assemble(MODEL, Fraction(1, 5), odd)

    def test_large_instance_arithmetic(self):
        # the window-minimum instance: 2n = 6216, eps = 1/10, girth must exceed 5
        assert vertex_window(7, 5)[0] == 6216
        n = 3108
        assert 4 * 3 * n * 7 * Fraction(1, 10) == Fraction(261072, 10)
        assert float(4 * 3 * n * 7 * Fraction(1, 10)) == pytest.approx(26107.2)
        assert n * (7 - 2) + 1 == 15541

    def test_report_is_frozen_dataclass(self):
        report = assemble(MODEL, Fraction(1, 5), seven_regular_girth3(26))
        assert isinstance(report, AssemblyReport)
        with pytest.raises(AttributeError):
            report.volume = 0


class TestUpperBounds:
    def test_even_bound_value(self):
        value = upper_bound_even(MODEL, 100)
        expected = 3 * 7 * math.log(6) * 200 / math.log(200)
        assert value == pytest.approx(expected, rel=1e-15)
        assert value == pytest.approx(1420.4, rel=1e-3)

    def test_constant_extraction(self):
        for n in (2, 10, 1000, 10 ** 6):
            ratio = upper_bound_even(MODEL, n) / ((2 * n) / math.log(2 * n))
            assert ratio == pytest.approx(3 * 7 * math.log(6), rel=1e-12)

    def test_monotone_in_n(self):
        values = [upper_bound_even(MODEL, n) for n in range(2, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            upper_bound_even(MODEL, 1)


class TestMultipleClassBound:
    def test_unit_value(self):
        assert multiple_class_bound(1, 1.0) == pytest.approx(1 / math.log(2), rel=1e-15)

    def test_near_e_minus_one(self):
        k = math.e - 1
        assert multiple_class_bound(k, 1.0) == pytest.approx(k, rel=1e-12)

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            multiple_class_bound(0, 1.0)
        with pytest.raises(ValueError):
            multiple_class_bound(5, 0.0)

    def test_ratio_strictly_decreasing_to_zero(self):
        grid = [2, 3, 5, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6]
        ratios = [multiple_class_bound(k, 2.5) / k for k in grid]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.2 * ratios[0]


def test_assembly_with_constructed_graph():
    # end to end: build a graph, then assemble on it
    graph = construct_regular_girth(7, 3, 30, seed=5)
    oracles.check_regular_girth(graph, 7, 3)
    report = assemble(MODEL, Fraction(1, 5), graph)
    assert report.two_n == 30
    assert report.volume == Fraction(4 * 3 * 15 * 7, 5)
