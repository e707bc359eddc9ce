"""Exact analysis of candidate systolic-volume sequences.

Exact minimal linear recurrence detection over the rationals.  Detection
is exact: float data must be rationalised by the caller first, because the
rationality criterion is a statement about exact recurrences.

Berlekamp-Massey (Massey 1969) runs on integers only.  The terms are
read in order; D is the lcm of the denominators read so far, and a window
of the last terms is kept multiplied by D.  When a denominator does not
divide D, D, the window and the stored discrepancy b are multiplied by the
same factor: scaling a sequence changes none of its linear recurrences,
so the connection polynomials stay as they are.  The update is
fraction-free in Bareiss's sense, C <- b C - d x^gap B divided by its
content, so C stays proportional to the monic polynomial of the rational
update.  Only the returned coefficients are formed as fractions, -c_i/c_0,
and they are exactly those of the rational computation: past 2L terms the
minimal recurrence is unique.  A found verdict is not replayed: its
polynomial generates every term the synthesis has read, which is all of
them.  Cost and memory follow the terms read, not the lcm of all
denominators, which over 30 000 distinct primes has about half a million
bits.  The coefficients can still grow with every term read, and the cost
of a step grows with their size, so the synthesis is refused once they
hold more than ``MAX_COEFFICIENT_BITS`` bits together.  Coefficients that
stay small do not bound the run, since L, and with it the length of every
discrepancy sum, can grow with the terms read, so the synthesis is also
refused once those sums need more than ``MAX_STEP_WORK`` multiply-adds.
"""
from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from operator import mul

from ._caps import check, rational
from ._record import record

# The most bits the connection polynomial's coefficients may hold together.
# The cost of a step grows with them: on every shape of terms tried, a
# synthesis that stays just below the cap takes at most about 1.6 s (2 vCPUs,
# Python 3.11).  The bench shapes hold at most 45 000 bits, order 200 on
# 1 000 terms about 650 000.
MAX_COEFFICIENT_BITS = 1_000_000
# The most multiply-adds the discrepancy sums may take together, len(C) per
# term read.  It bounds the terms whose coefficients stay small while L
# grows: 8 000 0/1 terms with their ones at the powers of two, at max_order
# 3 998, take 15 995 999 of them in 1.5-1.7 s (2 vCPUs, Python 3.11).  The
# bench shapes take at most 33 000, a recurrence of order 200 over 1 000
# terms about 161 000.
MAX_STEP_WORK = 16_000_000


@record
class RationalSequence:
    """Finite exact sequence s_1, s_2, ... (1-indexed semantics).

    The terms are a tuple of Fractions; ``from_values`` converts other exact values.
    """

    terms: tuple[Fraction, ...]

    def __post_init__(self):
        if type(self.terms) is not tuple or not set(map(type, self.terms)) <= {Fraction}:
            raise ValueError("terms must be a tuple of Fractions; from_values converts other exact values")
        if not self.terms:
            raise ValueError("sequence must be nonempty")

    @classmethod
    def from_values(cls, values) -> "RationalSequence":
        """Terms from exact values, or a one-line ValueError naming the term: a
        float or a boolean is refused, not read as its binary value, and so is
        any value ``_caps.rational`` refuses (such as None, "1/0" or "abc")."""
        terms = []
        for value in values:
            if isinstance(value, (bool, float)):
                raise ValueError(f"term {value!r} is not exact: give a rational as a string or an integer")
            terms.append(rational(value, "term"))
        return cls(tuple(terms))


@record
class RecurrenceVerdict:
    """Outcome of recurrence detection.

    found=False only means no recurrence of order <= max_order_searched
    fits every supplied term exactly, never that none exists.
    """

    found: bool
    order: int
    coefficients: tuple[Fraction, ...]
    verified_length: int
    max_order_searched: int


def _lfsr_synthesis(terms: tuple[Fraction, ...], max_length: int) -> tuple[int, list[int]]:
    """Minimal shift-register length and connection polynomial over Q.

    Returns (L, C) with C = [c_0, c_1, ..., c_L], integers with c_0 != 0,
    such that c_0 s_n + sum_i c_i s_(n-i) = 0 for all n >= L, by the
    fraction-free update of the module docstring: d and b are the
    discrepancies of C and of the previous polynomial B on the terms scaled
    by the same D.  L never decreases, so once it passes ``max_length`` the
    synthesis stops and returns an L above ``max_length`` with the
    polynomial of the terms read so far.  A polynomial whose coefficients
    hold more than ``MAX_COEFFICIENT_BITS`` bits is refused, and so is a
    discrepancy sum that would take the multiply-adds past ``MAX_STEP_WORK``.
    """
    connection = [1]
    previous = [1]
    length = 0
    gap = 1
    prev_discrepancy = 1
    # the last terms times D, newest last: as many as a discrepancy reads
    window: deque[int] = deque(maxlen=max_length + 1)
    scale = 1  # D
    work = 0  # multiply-adds of the discrepancy sums
    for n, term in enumerate(terms):
        factor = term.denominator // math.gcd(scale, term.denominator)
        if factor != 1:  # D grows, and with it the window and b
            scale *= factor
            window = deque([t * factor for t in window], max_length + 1)
            prev_discrepancy *= factor
        window.append(term.numerator * (scale // term.denominator))
        # len(connection) is always length + 1
        work += len(connection)
        if work > MAX_STEP_WORK:
            check("genfun.MAX_STEP_WORK", work, MAX_STEP_WORK,
                  f"at term {n + 1} the recurrence synthesis's discrepancy sums take a multiply-add count of")
        discrepancy = sum(map(mul, connection, reversed(window)))
        if discrepancy == 0:
            gap += 1
            continue
        update = [prev_discrepancy * c for c in connection]
        update.extend([0] * (gap + len(previous) - len(update)))
        for i, coef in enumerate(previous, gap):
            update[i] -= discrepancy * coef
        content = math.gcd(*update)
        if content != 1:
            update = [c // content for c in update]
        if (bits := sum(map(int.bit_length, update))) > MAX_COEFFICIENT_BITS:
            check("genfun.MAX_COEFFICIENT_BITS", bits, MAX_COEFFICIENT_BITS,
                  f"at term {n + 1} the recurrence synthesis's coefficients hold a bit count of")
        if 2 * length <= n:
            previous = connection
            prev_discrepancy = discrepancy
            length = n + 1 - length
            gap = 1
        else:
            gap += 1
        connection = update
        if length > max_length:
            break
    return length, connection


def detect_linear_recurrence(sequence: RationalSequence, max_order: int = 16) -> RecurrenceVerdict:
    """Minimal-order exact linear recurrence, or found=False up to max_order.

    Synthesis is Berlekamp-Massey over the rationals, computed on integers
    (see the module docstring).  It stops early only once L passes
    max_order, so with L <= max_order its polynomial generates every term.
    """
    terms = sequence.terms
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if len(terms) < 2 * max_order + 4:
        raise ValueError(
            f"sequence of length {len(terms)} is too short to certify order "
            f"{max_order}; need at least {2 * max_order + 4} terms"
        )
    length, connection = _lfsr_synthesis(terms, max_order)
    if length <= max_order:
        coefficients = tuple(Fraction(-c, connection[0]) for c in connection[1:])
        return RecurrenceVerdict(True, length, coefficients, len(terms), max_order)
    return RecurrenceVerdict(False, 0, (), 0, max_order)
