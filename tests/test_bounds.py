import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from systolic.bounds import (
    BoundConstants,
    UpperBoundIngredients,
    abelian_kappa_bounds,
    best_upper_bound,
    best_upper_table,
    finite_pi1_3manifold_lb,
    group_count_bound,
    height_lb,
    kappa_alpha_scale,
    kappa_upper_from_systole,
    lens_lb,
    load_constants,
    sandwich,
    simvol_lb,
    surface_kappa_bounds,
    systolic_area_upper_from_kappa,
    torsion_lb,
)

import oracles

UNIT = BoundConstants()


class TestHeightLb:
    def test_at_e_with_unit_constants(self):
        assert height_lb(math.e, UNIT) == pytest.approx(1.0, rel=1e-12)

    def test_increasing_for_large_arguments(self):
        values = [height_lb(h, UNIT) for h in (10, 100, 1000, 10 ** 4)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_below_two_rejected(self):
        with pytest.raises(ValueError):
            height_lb(1, UNIT)

    def test_linear_in_cm(self):
        assert height_lb(50, BoundConstants(cm=3.0)) == pytest.approx(
            3 * height_lb(50, UNIT), rel=1e-12
        )


class TestSimvolLb:
    def test_zero(self):
        assert simvol_lb(0, UNIT) == 0.0

    def test_dimension_one_fixed_point(self):
        constants = BoundConstants(m=1)
        assert simvol_lb(math.e - 2, constants) == pytest.approx(math.e - 2, rel=1e-12)

    def test_linear_in_constant(self):
        assert simvol_lb(7.0, BoundConstants(cm_second=2.5)) == pytest.approx(
            2.5 * simvol_lb(7.0, UNIT), rel=1e-12
        )


class TestTorsionLb:
    def test_at_e_to_the_e(self):
        assert torsion_lb(math.e ** math.e, UNIT) == pytest.approx(1.0, rel=1e-12)

    def test_small_torsion_rejected(self):
        with pytest.raises(ValueError):
            torsion_lb(2, UNIT)

    def test_increasing_beyond_threshold(self):
        values = [torsion_lb(t, UNIT) for t in (20, 10 ** 2, 10 ** 4, 10 ** 8, 10 ** 16)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestSandwich:
    def test_unit_values_at_one(self):
        report = sandwich(1, BoundConstants(m=2))
        assert report.lower == pytest.approx(1 / math.log(2) ** 2, rel=1e-12)
        assert report.upper == pytest.approx(1 / math.log(2), rel=1e-12)
        assert not report.consistent  # lower exceeds upper below k = e - 1

    def test_consistent_beyond_e_minus_one(self):
        for k in (2, 3, 10, 100):
            assert sandwich(k, BoundConstants(m=2)).consistent

    def test_consistency_algebra(self):
        # lower <= upper iff pair_lower <= pair_upper (ln(1+k))^(m-1)
        constants = BoundConstants(m=3, pair_lower=2.0, pair_upper=1.0)
        for k in range(1, 60):
            report = sandwich(k, constants)
            expected = 2.0 <= 1.0 * math.log(1 + k) ** 2 * (1 + 1e-9)
            assert report.consistent == expected

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            sandwich(0, UNIT)


class TestLensAndThreeManifolds:
    def test_lens_delegates_to_torsion(self):
        for n in (3, 10, 1000):
            assert lens_lb(n, UNIT) == torsion_lb(n, UNIT)

    def test_lens_small_rejected(self):
        with pytest.raises(ValueError):
            lens_lb(2, UNIT)

    def test_order_36_composition(self):
        assert finite_pi1_3manifold_lb(36, UNIT) == pytest.approx(
            lens_lb(3, UNIT) / 12, rel=1e-12
        )

    def test_exact_division_identity(self):
        for n in (3, 7, 50):
            assert finite_pi1_3manifold_lb(12 * n, UNIT) == pytest.approx(
                lens_lb(n, UNIT) / 12, rel=1e-12
            )

    def test_order_35_rejected(self):
        with pytest.raises(ValueError):
            finite_pi1_3manifold_lb(35, UNIT)


class TestKappaSystole:
    def test_floor_value_finite(self):
        floor = math.pi / 16
        value = kappa_upper_from_systole(floor)
        assert math.isfinite(value) and value > 0
        alpha = kappa_alpha_scale(floor)
        assert alpha > 5  # guaranteed on the admissible domain

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            kappa_upper_from_systole(math.pi / 16 - 1e-9)
        with pytest.raises(ValueError):
            kappa_alpha_scale(0.1)

    def test_alpha_increasing(self):
        values = [kappa_alpha_scale(s) for s in (0.2, 0.5, 1.0, 10.0, 100.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_kappa_upper_increasing(self):
        values = [kappa_upper_from_systole(s) for s in (0.2, 1.0, 5.0, 50.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestAreaFromKappa:
    def test_ten(self):
        assert systolic_area_upper_from_kappa(10) == pytest.approx(10 / (2 * math.pi), rel=1e-12)
        assert systolic_area_upper_from_kappa(10) == pytest.approx(1.5915, abs=1e-4)

    def test_free_group_zero(self):
        assert systolic_area_upper_from_kappa(0) == 0.0

    def test_two_pi(self):
        assert systolic_area_upper_from_kappa(2 * math.pi) == pytest.approx(1.0, rel=1e-12)


class TestGroupCount:
    def test_budget_14_exact(self):
        report = group_count_bound(14)
        assert report.exponent == Fraction(14 ** 3, 14) == 196
        assert report.bound_exact == 2 ** 196
        assert report.chain_ok

    def test_budget_one_real(self):
        report = group_count_bound(1)
        assert report.bound_exact is None
        assert report.bound_float == pytest.approx(2 ** (1 / 14), rel=1e-12)
        assert report.chain_ok

    def test_chain_exact_up_to_60(self):
        for k in range(1, 61):
            report = group_count_bound(k)
            assert report.chain_ok, k
            # the chain inequality in exact integers
            assert 14 * report.triangle_slots <= k ** 3
            assert sum(math.comb(report.triangle_slots, s) for s in range(k + 1)) <= 2 ** report.triangle_slots

    def test_monotone_exponent(self):
        exponents = [group_count_bound(k).exponent for k in range(1, 30)]
        assert all(a < b for a, b in zip(exponents, exponents[1:]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            group_count_bound(0)

    @pytest.mark.parametrize("k", [14_000, 10 ** 9])
    def test_large_budget_is_cheap(self, k):
        report = group_count_bound(k)
        assert report.chain_ok
        assert (report.bound_exact, report.bound_float) == (None, math.inf)

    def test_exact_bound_stops_at_1024_bits(self):
        # 14^3/14 = 196 keeps 2^196; 28^3/14 = 1568 would need 1569 bits
        assert group_count_bound(14).bound_exact == 2 ** 196
        assert group_count_bound(28).exponent == 1568
        assert group_count_bound(28).bound_exact is None


class TestSurfaceKappa:
    def test_genus_one(self):
        assert surface_kappa_bounds(1) == (Fraction(4, 3), 14)

    def test_genus_two_exception(self):
        assert surface_kappa_bounds(2) == (Fraction(8, 3), 24)

    def test_genus_six(self):
        # sqrt(1+288) = 17, brace((7+17)/2) = 12, upper = 20 + 24
        assert surface_kappa_bounds(6) == (Fraction(8), 44)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            surface_kappa_bounds(0)

    def test_lower_below_upper_on_large_scan(self):
        for genus in range(1, 10 ** 6 + 1):
            low, high = surface_kappa_bounds(genus)
            assert low <= high, genus


class TestAbelianKappa:
    def test_rank_two_matches_genus_one_surface(self):
        assert abelian_kappa_bounds(2) == (1, 14)

    def test_rank_one_free(self):
        assert abelian_kappa_bounds(1) == (0, 0)

    def test_rank_five(self):
        assert abelian_kappa_bounds(5) == (10, 140)


class TestBestUpperBound:
    def test_single_base_caps_linear(self):
        ing = UpperBoundIngredients.make(base={1: 2.0})
        for k in (1, 5, 40):
            assert best_upper_bound(k, ing) == pytest.approx(2.0 * k)

    def test_formula_improves_on_linear(self):
        ing = UpperBoundIngredients.make(base={1: 1.0}, sublinear=[1.0])
        for k in (10, 100, 400):
            expected = min(k * 1.0, k / math.log(1 + k))
            assert best_upper_bound(k, ing) == pytest.approx(expected)

    def test_subadditive_exhaustively(self):
        ing = UpperBoundIngredients.make(base={1: 1.0, 3: 2.1}, sublinear=[1.5], caps=[25.0])
        table = best_upper_table(120, ing)
        for j in range(1, 61):
            for k in range(1, 61):
                assert table[j + k] <= table[j] + table[k] + 1e-12

    def test_ratio_non_increasing(self):
        ing = UpperBoundIngredients.make(base={1: 1.0}, sublinear=[1.0], caps=[19.0])
        table = best_upper_table(1000, ing)
        ratios = [table[k] / k for k in range(1, 1001)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-12

    def test_table_equals_the_oracle(self):
        rng = random.Random(2037)
        tables = []
        for case in range(400):
            base = {rng.randint(1, 12): rng.choice([0.0, rng.uniform(0, 10)]) for _ in range(rng.randint(0, 4))}
            sublinear = [rng.uniform(0.1, 5) for _ in range(rng.randint(0, 2))]
            caps = [rng.uniform(0, 40) for _ in range(rng.randint(0, 2))]
            if case % 4 == 0:  # caps only: a flat table
                base, sublinear, caps = {}, [], caps or [7.5]
            elif case % 4 == 1:  # atoms only, none at 1: a multiple no sum of atoms reaches stays inf
                base, sublinear, caps = {m: v for m, v in base.items() if m > 1} or {3: 1.0}, [], []
            elif not (base or sublinear or caps):
                caps = [7.5]
            if case % 10 == 2:  # a NaN anywhere is refused; it was dropped without a word
                with pytest.raises(ValueError, match="^constant caps must be non-negative$"):
                    UpperBoundIngredients.make(base, sublinear, caps + [math.nan])
            elif case % 10 == 7:
                with pytest.raises(ValueError, match="^base entries are"):
                    UpperBoundIngredients.make({**base, rng.randint(1, 12): math.nan}, sublinear, caps)
                with pytest.raises(ValueError, match="^sublinear constants must be positive$"):
                    UpperBoundIngredients.make(base, sublinear + [math.nan], caps)
            ingredients = UpperBoundIngredients.make(base, sublinear, caps)
            k_max = rng.randint(1, 60)
            table = best_upper_table(k_max, ingredients)
            assert table == oracles.best_upper_table(k_max, ingredients), ingredients
            tables.append(table)
        assert any(math.inf in table for table in tables) and any(set(table[1:]) == {7.5} for table in tables)

    def test_empty_ingredients_rejected(self):
        with pytest.raises(ValueError):
            UpperBoundIngredients.make()

    def test_zero_k_rejected(self):
        ing = UpperBoundIngredients.make(base={1: 1.0})
        with pytest.raises(ValueError):
            best_upper_bound(0, ing)


class TestConstants:
    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            BoundConstants(cm=0.0)
        with pytest.raises(ValueError):
            BoundConstants(m=0)
        for m in (2.5, True, 3.0):
            with pytest.raises(ValueError, match="positive integer"):
                BoundConstants(m=m)

    @pytest.mark.parametrize("field", ["cm", "cm_prime", "cm_second", "pair_lower", "pair_upper"])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_rejected(self, field, value):
        # True passed as 1 and False as "must be positive"
        with pytest.raises(ValueError, match=f"^constant {field} must be a number, not a boolean$"):
            BoundConstants(**{field: value})

    @pytest.mark.parametrize("field", ["cm", "cm_prime", "cm_second", "pair_lower", "pair_upper"])
    @pytest.mark.parametrize("value", ["x", "2", None, [1], {"a": 1}])
    def test_non_number_rejected(self, field, value):
        # a comparison with 0 raised TypeError, which load_constants passed on in Python's text
        with pytest.raises(ValueError, match=f"^constant {field} must be a number, not {re.escape(repr(value))}$"):
            BoundConstants(**{field: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="pair_lower must be finite"):
            BoundConstants(pair_lower=value)
        with pytest.raises(ValueError, match="pair_lower must be positive"):
            BoundConstants(pair_lower=-math.inf)

    def test_int_past_the_float_range_rejected(self):
        # math.isfinite raised OverflowError on these, which is no ValueError
        top = int(sys.float_info.max)
        assert BoundConstants(cm=top).cm == top
        for value in (top + 1, 2 ** 1024, 10 ** 400):
            with pytest.raises(ValueError, match="^constant cm is past the float range$"):
                BoundConstants(cm=value)

    def test_provenance_tag(self):
        assert UNIT.provenance == "illustrative-defaults"

    @pytest.mark.parametrize("text", ['{"cx": 2}', '{"cm": "x"}', "[1]"])
    def test_malformed_file_rejected(self, text, tmp_path):
        path = tmp_path / "constants.json"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_constants(str(path))


@given(st.floats(2.0, 1e6), st.floats(0.1, 10.0))
def test_height_lb_scales_linearly_in_cm(h, scale):
    base = height_lb(h, UNIT)
    scaled = height_lb(h, BoundConstants(cm=scale))
    assert scaled == pytest.approx(scale * base, rel=1e-9)


@given(st.integers(3, 10 ** 9))
def test_lens_bound_positive(n):
    assert lens_lb(n, UNIT) > 0
