import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from systolic.genfun import RationalSequence, detect_linear_recurrence

import oracles


def fibonacci(n):
    terms = [1, 1]
    while len(terms) < n:
        terms.append(terms[-1] + terms[-2])
    return terms[:n]


class TestDetect:
    def test_constant_order_one(self):
        verdict = detect_linear_recurrence(RationalSequence.from_values([7] * 40))
        assert verdict.found
        assert verdict.order == 1
        assert verdict.coefficients == (Fraction(1),)
        assert verdict.verified_length == 40

    def test_fibonacci_order_two(self):
        verdict = detect_linear_recurrence(
            RationalSequence.from_values(fibonacci(20)), max_order=2
        )
        assert verdict.found
        assert verdict.order == 2
        assert verdict.coefficients == (Fraction(1), Fraction(1))

    def test_integerised_sublinear_has_no_low_order_recurrence(self):
        values = [math.floor(100 * k / math.log(1 + k)) for k in range(1, 61)]
        verdict = detect_linear_recurrence(RationalSequence.from_values(values), max_order=12)
        assert not verdict.found
        assert verdict.max_order_searched == 12
        # cross-check with the dense Hankel-style oracle
        assert oracles.hankel_min_order(values, 12) is None

    def test_no_short_recurrence_returns_early(self):
        # run over all 1 200 terms the synthesis takes about 2 minutes; L
        # passes 16 within the first few dozen
        rng = random.Random(1200)
        digits = [rng.randint(0, 9) for _ in range(1200)]
        start = time.monotonic()
        verdict = detect_linear_recurrence(digits, max_order=16)
        assert time.monotonic() - start < 1.0
        assert not verdict.found
        assert verdict.max_order_searched == 16

    def test_too_short_rejected(self):
        seq = RationalSequence.from_values([1, 2, 3])
        with pytest.raises(ValueError):
            detect_linear_recurrence(seq, max_order=4)

    def test_rational_geometric(self):
        values = [Fraction(3, 2) ** k for k in range(40)]
        verdict = detect_linear_recurrence(RationalSequence.from_values(values))
        assert verdict.found
        assert verdict.order == 1
        assert verdict.coefficients == (Fraction(3, 2),)

    def test_replay_is_exact_not_approximate(self):
        # a sequence following x2 recurrence except for a tiny final defect
        values = [Fraction(2) ** k for k in range(30)]
        values[-1] += Fraction(1, 10 ** 30)
        verdict = detect_linear_recurrence(RationalSequence.from_values(values), max_order=1)
        assert not verdict.found


class TestConjectureSeries:
    def test_detector_returns_order_one(self):
        # the conjectured series S z / (1 - z) has the constant coefficients S, S, ...
        for volume in (Fraction(3, 7), Fraction(2), Fraction(11, 4)):
            verdict = detect_linear_recurrence(RationalSequence.from_values([volume] * 40))
            assert verdict.found and verdict.order == 1


class TestHankelOracleAgreement:
    def test_known_orders(self):
        assert oracles.hankel_min_order([7] * 12, 3) == 1
        assert oracles.hankel_min_order(fibonacci(16), 3) == 2
        assert oracles.hankel_min_order([0] * 10, 3) == 0

    def test_random_cross_check(self):
        rng = random.Random(20240607)
        for _ in range(120):
            order = rng.randint(1, 3)
            coeffs = [Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(order)]
            terms = [Fraction(rng.randint(-3, 3)) for _ in range(order)]
            while len(terms) < 18:
                terms.append(sum(c * t for c, t in zip(coeffs, reversed(terms[-order:]))))
            max_order = 5
            verdict = detect_linear_recurrence(RationalSequence.from_values(terms), max_order)
            oracle_order = oracles.hankel_min_order(terms, max_order)
            assert verdict.found == (oracle_order is not None)
            if verdict.found:
                assert verdict.order == oracle_order


@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=12,
        max_size=24,
    )
)
def test_detector_agrees_with_hankel_oracle(terms):
    max_order = (len(terms) - 4) // 2
    verdict = detect_linear_recurrence(RationalSequence.from_values(terms), max_order)
    oracle_order = oracles.hankel_min_order(terms, max_order)
    assert verdict.found == (oracle_order is not None)
    if verdict.found:
        assert verdict.order == oracle_order
        # replay check: the recurrence reproduces the whole sequence
        for n in range(verdict.order, len(terms)):
            expected = sum(
                verdict.coefficients[i] * Fraction(terms[n - 1 - i])
                for i in range(verdict.order)
            )
            assert Fraction(terms[n]) == expected
