import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from systolic import genfun
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
        # run over all 1 200 terms the synthesis would pass the coefficient
        # cap; L passes 16 within the first few dozen
        rng = random.Random(1200)
        digits = RationalSequence.from_values([rng.randint(0, 9) for _ in range(1200)])
        start = time.monotonic()
        verdict = detect_linear_recurrence(digits, max_order=16)
        assert time.monotonic() - start < 1.0
        assert not verdict.found
        assert verdict.max_order_searched == 16

    @pytest.mark.parametrize("value", [0.1, 3.0, True, False])
    def test_inexact_value_is_refused(self, value):
        with pytest.raises(ValueError, match=f"term {value!r} is not exact"):
            RationalSequence.from_values([1, "1/2", value] * 20)

    @pytest.mark.parametrize("value", [None, "1/0", "abc", [1]])
    def test_unreadable_value_is_refused(self, value):
        with pytest.raises(ValueError, match=f"^term {re.escape(repr(value))} is not a rational number$"):
            RationalSequence.from_values([1, "1/2", value])

    @pytest.mark.parametrize("terms", [(1.5,) * 10, (Fraction(1), 2), (True,), [Fraction(1)], "12"])
    def test_terms_other_than_a_tuple_of_fractions_are_refused(self, terms):
        # floats reached detect_linear_recurrence, which raised AttributeError
        with pytest.raises(ValueError, match="^terms must be a tuple of Fractions"):
            RationalSequence(terms)

    def test_too_short_rejected(self):
        seq = RationalSequence.from_values([1, 2, 3])
        with pytest.raises(ValueError):
            detect_linear_recurrence(seq, max_order=4)

    def test_rational_geometric(self):
        # the lcm of the denominators read so far grows at every term
        for length in (40, 1000):
            values = [Fraction(3, 2) ** k for k in range(length)]
            verdict = detect_linear_recurrence(RationalSequence.from_values(values))
            assert verdict.found
            assert verdict.order == 1
            assert verdict.coefficients == (Fraction(3, 2),)
            assert verdict.verified_length == length

    def test_replay_checks_every_term_from_the_order_on(self):
        # the oracle's replay, which the fuzz below applies to every found verdict
        terms = [Fraction(2) ** k for k in range(12)]
        assert oracles._replays(terms, 1, (Fraction(2),))
        # a wrong first term is seen only by the check at n = L = 1
        for n in (0, 6, 11):
            wrong = list(terms)
            wrong[n] += Fraction(1, 3)
            assert not oracles._replays(wrong, 1, (Fraction(2),))

    def test_replay_is_exact_not_approximate(self):
        # a sequence following x2 recurrence except for a tiny final defect
        values = [Fraction(2) ** k for k in range(30)]
        values[-1] += Fraction(1, 10 ** 30)
        verdict = detect_linear_recurrence(RationalSequence.from_values(values), max_order=1)
        assert not verdict.found


def _rational(rng, size=9, denominators=12):
    return Fraction(rng.randint(-size, size), rng.randint(1, denominators))


def _recurrent(coefficients, start, length):
    terms = list(start)
    while len(terms) < length:
        terms.append(sum(c * t for c, t in zip(coefficients, reversed(terms))))
    return terms


def _oracle_corpus():
    """(terms, max_order) cases, seeded: each kind the fraction-free path must match."""
    rng = random.Random(15)
    cases = []
    for _ in range(150):
        # rational recurrences with mixed denominators, some longer than max_order
        order = rng.randint(1, 6)
        max_order = rng.randint(max(1, order - 2), order + 3)
        length = 2 * max_order + 4 + rng.choice((0, 0, 1, rng.randint(2, 40)))
        coefficients = [_rational(rng, 3, 5) for _ in range(order)]
        start = [_rational(rng) for _ in range(order)]
        terms = _recurrent(coefficients, start, length)
        cases.append((terms, max_order))
        # the same after a prefix of zeros
        cases.append(([Fraction(0)] * rng.randint(1, 6) + terms, max_order))
        # and with its last term perturbed
        perturbed = list(terms)
        perturbed[-1] += Fraction(1, rng.randint(1, 10**12))
        cases.append((perturbed, max_order))
    for _ in range(150):
        # no recurrence up to max_order, at and past the shortest length
        max_order = rng.randint(1, 8)
        length = 2 * max_order + 4 + rng.choice((0, rng.randint(1, 30)))
        terms = [_rational(rng, 20, rng.choice((1, 7, 1000))) for _ in range(length)]
        if rng.random() < 0.3:
            zeros = rng.randint(1, length // 2)
            terms[:zeros] = [Fraction(0)] * zeros
        cases.append((terms, max_order))
    for max_order in (1, 2, 5, 9):
        # the all-zero sequence, and sparse periodic ones, at the shortest length
        length = 2 * max_order + 4
        cases.append(([Fraction(0)] * length, max_order))
        cases.append(([Fraction(int(i % (max_order + 1) == 0)) for i in range(length)], max_order))
    # one sequence shaped like the benchmark's order-24 job
    coefficients = [rng.choice((-1, 0, 1)) for _ in range(23)] + [rng.choice((-1, 1))]
    start = [rng.randint(-9, 9) for _ in range(24)]
    cases.append(([Fraction(t) for t in _recurrent(coefficients, start, 1200)], 28))
    return cases


def test_verdict_matches_the_fraction_oracle():
    kinds = {"found": 0, "not found": 0, "order 0": 0}
    for terms, max_order in _oracle_corpus():
        verdict = detect_linear_recurrence(RationalSequence.from_values(terms), max_order)
        assert verdict == oracles.recurrence_verdict(terms, max_order), (terms, max_order)
        kinds["found" if verdict.found else "not found"] += 1
        kinds["order 0"] += verdict.found and verdict.order == 0
    assert min(kinds.values()) > 0, kinds


def test_every_found_verdict_replays_over_the_whole_sequence():
    # the package returns a found verdict without a replay: Berlekamp-Massey's
    # final polynomial generates every term it has read
    rng = random.Random(22)
    kinds = {"integer found": 0, "rational found": 0, "not found": 0}
    for _ in range(400):
        max_order = rng.randint(1, 10)
        length = 2 * max_order + 4 + rng.randint(0, 60)
        integer = rng.random() < 0.5
        term = (lambda: Fraction(rng.randint(-9, 9))) if integer else (lambda: _rational(rng))
        kind = rng.choice(("recurrent", "recurrent", "perturbed", "random"))
        if kind == "random":
            terms = [term() for _ in range(length)]
        else:
            order = rng.randint(1, max_order + 2)
            coefficients = [term() for _ in range(order)]
            terms = _recurrent(coefficients, [term() for _ in range(order)], length)
            if kind == "perturbed":
                terms[rng.randrange(length)] += rng.choice((1, Fraction(1, 7)))
        verdict = detect_linear_recurrence(RationalSequence.from_values(terms), max_order)
        if verdict.found:
            assert verdict.order <= max_order and verdict.verified_length == length
            assert oracles._replays(terms, verdict.order, verdict.coefficients), (terms, max_order)
            kinds["integer found" if integer else "rational found"] += 1
        else:
            assert not oracles.recurrence_verdict(terms, max_order).found, (terms, max_order)
            kinds["not found"] += 1
    assert min(kinds.values()) > 0, kinds


class TestCoefficientCap:
    """600 seeded terms in -9..9: up to order 287 the coefficients hold at
    most 999 419 bits together, and order 288 takes them to 1 007 122,
    past MAX_COEFFICIENT_BITS."""

    @staticmethod
    def digits():
        rng = random.Random(23)
        return RationalSequence.from_values([rng.randint(-9, 9) for _ in range(600)])

    def test_at_the_cap(self):
        assert genfun.MAX_COEFFICIENT_BITS == 1_000_000
        verdict = detect_linear_recurrence(self.digits(), max_order=287)
        assert not verdict.found and verdict.max_order_searched == 287

    def test_past_the_cap(self):
        with pytest.raises(ValueError, match=r"^at term 577 the recurrence synthesis's coefficients hold a bit count "
                           r"of 1007122, past the cap \(genfun\.MAX_COEFFICIENT_BITS = 1000000\)$"):
            detect_linear_recurrence(self.digits(), max_order=288)


class TestStepCap:
    """0/1 terms with their ones at the powers of two keep the coefficients
    small while L grows with the terms read: 8 000 terms at max_order 3 998
    take 15 995 999 multiply-adds, and 8 002 at 3 999 take 16 003 999, past
    MAX_STEP_WORK."""

    @staticmethod
    def powers_of_two(n):
        return RationalSequence.from_values([int(k & (k - 1) == 0) for k in range(1, n + 1)])

    def test_at_the_cap(self):
        assert genfun.MAX_STEP_WORK == 16_000_000
        verdict = detect_linear_recurrence(self.powers_of_two(8000), max_order=3998)
        assert not verdict.found and verdict.max_order_searched == 3998

    def test_past_the_cap(self):
        with pytest.raises(ValueError, match=r"^at term 7999 the recurrence synthesis's discrepancy sums take a multiply-add "
                           r"count of 16003999, past the cap \(genfun\.MAX_STEP_WORK = 16000000\)$"):
            detect_linear_recurrence(self.powers_of_two(8002), max_order=3999)


def test_distinct_prime_denominators_have_bounded_cost():
    # the lcm of all 30 000 denominators has about 505 000 bits; the terms
    # scaled by it would need about 1.9 GB, so D grows only as terms are read
    sieve = bytearray([1]) * 350_400
    sieve[:2] = b"\0\0"
    for p in range(2, 592):
        if sieve[p]:
            sieve[p * p:: p] = bytes(len(range(p * p, len(sieve), p)))
    primes = [p for p in range(len(sieve)) if sieve[p]][:30_000]
    assert len(primes) == 30_000
    sequence = RationalSequence(tuple(Fraction(1, p) for p in primes))
    tracemalloc.start()
    try:
        start = time.monotonic()
        verdict = detect_linear_recurrence(sequence, max_order=16)
        elapsed = time.monotonic() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.found
    assert elapsed < 1.0
    assert peak < 16 * 2**20


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
