from array import array

import pytest

from systolic import waring
from systolic.waring import (
    min_count,
    min_powers,
    verify_g4,
)

import oracles


class TestMinPowers:
    def test_perfect_fourth_power(self):
        decomposition = min_powers(16, 4)
        assert decomposition.parts == (2,)
        assert decomposition.count == 1

    def test_79_needs_nineteen(self):
        decomposition = min_powers(79, 4)
        assert decomposition.count == 19
        assert decomposition.parts == (2, 2, 2, 2) + (1,) * 15

    def test_five_ones(self):
        assert min_powers(5, 4).parts == (1,) * 5

    def test_parts_resummed_exactly(self):
        for k in (1, 17, 79, 625, 9999):
            decomposition = min_powers(k, 4)
            assert sum(p ** 4 for p in decomposition.parts) == k

    def test_parts_non_increasing_largest_first(self):
        for k in (17, 79, 100, 2500):
            parts = min_powers(k, 4).parts
            assert parts == tuple(sorted(parts, reverse=True))

    def test_squares_lagrange(self):
        # four squares always suffice
        for k in range(1, 500):
            assert min_count(k, 2) <= 4

    def test_cubes_small(self):
        assert min_count(23, 3) == 9  # 23 = 2*8 + 7*1, the classical worst case

    def test_96_is_six_sixteens(self):
        # the greedy answer 81 + 15 * 1 would take 16 parts
        assert min_count(96, 4) == 6
        assert min_powers(96, 4).parts == (2,) * 6

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(waring, "CAP", 1000)
        with pytest.raises(ValueError, match=r"^k = 1000000, past the cap \(waring\.CAP = 1000\)$"):
            min_powers(10 ** 6, 4)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            min_powers(0, 4)
        with pytest.raises(ValueError):
            min_powers(5, 1)

    @pytest.mark.parametrize("k", [10.5, 79.0, True, "79"])
    def test_non_integer_k_rejected(self, k):
        for call in (min_count, min_powers):
            with pytest.raises(ValueError, match="^k must be a positive integer$"):
                call(k, 4)

    @pytest.mark.parametrize("d", [2.5, 4.0, True, "4"])
    def test_non_integer_d_rejected(self, d):
        for call in (min_count, min_powers):
            with pytest.raises(ValueError, match="^exponent d must be an integer >= 2$"):
                call(79, d)

    def test_huge_exponent(self):
        # 2^d > k, so only 1 fits; b^d is never formed for b >= 2
        assert min_powers(5, 2_000_000_000).parts == (1,) * 5
        assert min_count(5, 10 ** 8) == 5


class TestBellmanProperty:
    def test_dp_optimality_condition(self):
        # count(k) = 1 + min over feasible j of count(k - j^4)
        for k in range(2, 400):
            count = min_count(k, 4)
            options = [
                min_count(k - j ** 4, 4) + 1
                for j in range(1, k + 1)
                if j ** 4 <= k and j ** 4 != k
            ]
            if k ** 0.25 == int(k ** 0.25):
                options.append(1)
            assert count == min(options)

    def test_against_exhaustive_search(self):
        for k in range(1, 120):
            assert min_count(k, 4) == oracles.minimal_parts_by_search(k, 4)


class TestVerifyG4:
    def test_limit_100(self):
        report = verify_g4(100)
        assert report.max_count == 19
        assert report.argmax == (79,)
        assert report.within_19

    def test_limit_15(self):
        report = verify_g4(15)
        assert report.max_count == 15
        assert report.argmax == (15,)

    def test_limit_1(self):
        assert verify_g4(1).max_count == 1

    def test_reads_a_larger_table_up_to_its_limit(self, monkeypatch):
        monkeypatch.setattr(waring, "_tables", {})
        min_count(10 ** 4, 4)
        assert verify_g4(15).argmax == (15,)
        report = verify_g4(400)
        assert (report.max_count, report.argmax) == (19, (79, 159, 239, 319, 399))
        assert len(waring._tables[4]) == 10 ** 4 + 1


# Waring's g(d): every integer is a sum of at most g(d) d-th powers
G = {2: 4, 3: 9, 4: 19, 5: 37}


@pytest.fixture(scope="module")
def count_lists():
    """The dynamic program's count lists, the reference for the layers."""
    return {d: waring._extend_counts(d, [0], 10 ** 5) for d in (2, 3, 4, 5)}


class TestLayers:
    @pytest.mark.parametrize("d, limit", [(2, 10 ** 5), (3, 10 ** 5), (4, 10 ** 5), (5, 3 * 10 ** 4)])
    def test_counts_equal_the_list_dp(self, d, limit, count_lists):
        layers = waring._Layers.build(d, limit)
        assert len(layers.layers) <= G[d] + 1
        assert len(layers) == limit + 1
        counts = count_lists[d]
        assert all(layers[k] == counts[k] for k in range(limit + 1))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_parts_equal_the_largest_first_reference(self, d, count_lists, monkeypatch):
        monkeypatch.setattr(waring, "_tables", {})
        counts = count_lists[d]
        for k in [*range(1, 3001), *range(3001, 10 ** 5 + 1, 997)]:
            assert min_powers(k, d).parts == oracles.largest_first_parts(counts, k, d)
        assert isinstance(waring._tables[d], waring._Layers)

    def test_growth_is_geometric(self, monkeypatch):
        class CountedTables(dict):
            """Records the limit of every table stored."""

            def __setitem__(self, d, table):
                limits.append(len(table) - 1)
                super().__setitem__(d, table)

        limits = []
        monkeypatch.setattr(waring, "_tables", CountedTables())
        for k in range(1, 20_001):
            min_count(k, 4)
        assert len(limits) <= 17
        assert limits == sorted(limits) and limits[-1] < 2 * 20_000

    def test_growth_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(waring, "_tables", {})
        monkeypatch.setattr(waring, "CAP", 1000)
        min_count(600, 4)
        min_count(700, 4)
        assert len(waring._tables[4]) == 1001


class TestListFallback:
    """Tables for d >= 6, where a count can pass 64, are count lists."""

    @pytest.mark.parametrize("k", [50, 10 ** 4])
    def test_layered_exactly_up_to_d5(self, k, monkeypatch):
        for d in range(2, 10):
            monkeypatch.setattr(waring, "_tables", {})
            assert isinstance(waring._table(d, k), waring._Layers) == (d <= 5), d

    def test_d7_against_search(self, monkeypatch):
        monkeypatch.setattr(waring, "_tables", {})
        limit = 2 * 10 ** 4
        counts = waring._table(7, limit)
        assert isinstance(counts, array)
        assert max(counts) == 143  # 144 layers, 0..143
        for k in [*range(1, 501), *range(501, limit + 1, 61), counts.index(143)]:
            assert counts[k] == oracles.minimal_parts_by_search(k, 7)
        parts = min_powers(limit, 7).parts
        assert parts == oracles.largest_first_parts(counts, limit, 7)

    def test_d30_is_all_ones(self, monkeypatch):
        monkeypatch.setattr(waring, "_tables", {})
        assert min_count(3000, 30) == 3000
        assert isinstance(waring._tables[30], array)
        for k in range(1, 301, 7):
            assert min_count(k, 30) == oracles.minimal_parts_by_search(k, 30)

    def test_no_table_holds_more_than_max_layers(self, monkeypatch):
        monkeypatch.setattr(waring, "_tables", {})
        for d in range(2, 12):
            min_count(5000, d)
        for d, table in waring._tables.items():
            assert isinstance(table, array) if d > 5 else len(table.layers) <= G[d] + 1
        assert max(waring._tables[6]) == 73  # g(6), attained at 703

    def test_counts_past_a_byte_against_search(self, monkeypatch):
        # below 2^9 every d = 9 count is all ones: 511 takes 511, 1023 takes 512
        monkeypatch.setattr(waring, "_tables", {})
        counts = waring._table(9, 1100)
        assert counts.typecode == "i" and counts.itemsize >= 4
        assert (counts[511], max(counts), counts.index(512)) == (511, 512, 1023)
        assert [counts[k] for k in range(1, 1101)] == [
            oracles.minimal_parts_by_search(k, 9) for k in range(1, 1101)
        ]

    def test_extension_equals_one_build(self):
        # a list grown in pieces, across power boundaries, equals one built at once
        for d in (6, 7, 9):
            whole = waring._extend_counts(d, array("i", [0]), 5000)
            grown = array("i", [0])
            for upto in (1, 63, 64, 65, 128, 2186, 2187, 2188, 5000):
                waring._extend_counts(d, grown, upto)
                assert grown == whole[:upto + 1], (d, upto)


def _list_steps(d, upto):
    """The list DP's steps for 0..upto, one entry at a time: two for the
    entry, one for each power it tries."""
    powers = [b ** d for b in range(1, upto + 1) if b ** d <= upto]
    return sum(2 + sum(p <= i for p in powers) for i in range(1, upto + 1))


class TestListCap:
    """A d >= 6 count list may take MAX_LIST_STEPS steps: for d = 6,
    k = 3 695 424 takes 44 999 998 and k + 1 45 000 012."""

    def test_steps_match_the_entry_by_entry_count(self, monkeypatch):
        for d, upto in [(6, 1), (6, 64), (6, 1000), (7, 5000), (30, 300)]:
            steps = _list_steps(d, upto)
            monkeypatch.setattr(waring, "_tables", {})
            monkeypatch.setattr(waring, "MAX_LIST_STEPS", steps)
            assert waring._table(d, upto)[upto] == waring._extend_counts(d, [0], upto)[upto]
            monkeypatch.setattr(waring, "_tables", {})
            monkeypatch.setattr(waring, "MAX_LIST_STEPS", steps - 1)
            with pytest.raises(ValueError, match=rf"\(1 of them, up to {upto}\) take a step count of {steps}, past the cap"):
                waring._table(d, upto)
            assert waring._tables == {}

    def test_a_cached_list_counts_from_zero(self, monkeypatch):
        # whether a k is refused does not depend on what is cached
        expected = waring._extend_counts(6, [0], 1000)[1000]
        monkeypatch.setattr(waring, "_tables", {})
        monkeypatch.setattr(waring, "MAX_LIST_STEPS", _list_steps(6, 1000))
        assert min_count(1000, 6) == expected
        with pytest.raises(ValueError, match=r"\(1 of them, up to 1001\) take a step count of \d+, past the cap"):
            min_count(1001, 6)

    def test_at_the_cap(self, monkeypatch):
        assert waring.MAX_LIST_STEPS == 45_000_000
        monkeypatch.setattr(waring, "_tables", {})
        decomposition = min_powers(3_695_424, 6)
        assert sum(p ** 6 for p in decomposition.parts) == 3_695_424
        assert decomposition.count <= 73  # g(6)

    def test_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(waring, "_tables", {})
        message = (r"the d >= 6 count lists of this request \(1 of them, up to 3695425\) "
                   r"take a step count of 45000012, past the cap \(waring\.MAX_LIST_STEPS = 45000000\)")
        with pytest.raises(ValueError, match=message):
            min_powers(3_695_425, 6)
        assert list(waring._tables.get(6, [0])) == [0]  # refused before the list is built


class TestListBudget:
    """One request's d >= 6 count lists may take MAX_LIST_STEPS steps in all:
    one list per d, up to the largest k."""

    def test_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(waring, "MAX_LIST_STEPS", _list_steps(6, 900) + _list_steps(7, 900))
        assert waring.list_budget([5, 900, 3], [6, 7, 6, 2]) is None

    def test_past_the_budget(self, monkeypatch):
        steps = _list_steps(6, 900) + _list_steps(7, 900)
        monkeypatch.setattr(waring, "MAX_LIST_STEPS", steps - 1)
        message = (rf"the d >= 6 count lists of this request \(2 of them, up to 900\) take a step count of "
                   rf"{steps}, past the cap \(waring\.MAX_LIST_STEPS = {steps - 1}\)")
        with pytest.raises(ValueError, match=message):
            waring.list_budget([5, 900, 3], [6, 7, 6, 2])

    def test_values_min_count_refuses_count_nothing(self, monkeypatch):
        monkeypatch.setattr(waring, "MAX_LIST_STEPS", _list_steps(6, 900))
        waring.list_budget([900, 0, -5, 10 ** 8, True, 2.5, "900"], [6, 6.0, True, 1, "7"])
        assert waring.list_budget([], [6, 7]) is None
        assert waring.list_budget([10 ** 7], [2, 3, 4, 5]) is None

    def test_at_the_real_cap(self):
        # d = 6 ... 12 at k = 10^6 take 44 301 199 steps; adding d = 13 passes the cap
        assert waring.MAX_LIST_STEPS == 45_000_000
        waring.list_budget([10 ** 6], range(6, 13))
        with pytest.raises(ValueError, match="take a step count of 48293008, past the cap"):
            waring.list_budget([10 ** 6], range(6, 14))


class TestPartsCap:
    """From d = 24 on every k <= CAP is a sum of ones, so a decomposition
    may have at most MAX_PARTS parts."""

    def test_at_the_cap(self, monkeypatch):
        assert waring.MAX_PARTS == 1_000_000
        monkeypatch.setattr(waring, "_tables", {})
        assert min_powers(10 ** 6, 40).parts == (1,) * 10 ** 6

    def test_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(waring, "_tables", {})
        message = r"^k = 1000001 for d = 40 needs a part count of 1000001, past the cap \(waring\.MAX_PARTS = 1000000\)$"
        with pytest.raises(ValueError, match=message):
            min_powers(10 ** 6 + 1, 40)
        assert min_count(10 ** 6 + 1, 40) == 10 ** 6 + 1  # the count alone is not capped
