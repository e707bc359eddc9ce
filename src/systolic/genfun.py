"""Exact analysis of candidate systolic-volume sequences.

Exact minimal linear recurrence detection over the rationals.  Detection
is exact: float data must be rationalised by the caller first, because the
rationality criterion is a statement about exact recurrences.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RationalSequence:
    """Finite exact sequence s_1, s_2, ... (1-indexed semantics)."""

    terms: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("sequence must be nonempty")
        object.__setattr__(self, "terms", tuple(Fraction(t) for t in self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    @classmethod
    def from_values(cls, values) -> "RationalSequence":
        return cls(tuple(Fraction(v) for v in values))


@dataclass(frozen=True)
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


def _lfsr_synthesis(terms: tuple[Fraction, ...], max_length: int) -> tuple[int, list[Fraction]]:
    """Minimal shift-register length and connection polynomial over Q.

    Returns (L, C) with C = [1, c_1, ..., c_L] such that
    s_n + sum_i c_i s_(n-i) = 0 for all n >= L.  L never decreases, so once
    it passes ``max_length`` the synthesis stops and returns an L above
    ``max_length`` with the polynomial of the terms read so far.
    """
    connection = [Fraction(1)]
    previous = [Fraction(1)]
    length = 0
    gap = 1
    prev_discrepancy = Fraction(1)
    for n, term in enumerate(terms):
        discrepancy = term
        for i in range(1, length + 1):
            discrepancy += connection[i] * terms[n - i]
        if discrepancy == 0:
            gap += 1
            continue
        scale = discrepancy / prev_discrepancy
        update = connection[:]
        padding = gap + len(previous) - len(connection)
        if padding > 0:
            update.extend([Fraction(0)] * padding)
        for i, coef in enumerate(previous):
            update[gap + i] -= scale * coef
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


def _replays(terms, order: int, coefficients) -> bool:
    return all(
        terms[n] == sum(coefficients[i] * terms[n - 1 - i] for i in range(order))
        for n in range(order, len(terms))
    )


def detect_linear_recurrence(sequence, max_order: int = 16) -> RecurrenceVerdict:
    """Minimal-order exact linear recurrence, or found=False up to max_order.

    Synthesis is Berlekamp-Massey over the rationals; a found verdict is
    replayed against the entire sequence with no tolerance before being
    returned.
    """
    terms = sequence.terms if isinstance(sequence, RationalSequence) else tuple(
        Fraction(t) for t in sequence
    )
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    if len(terms) < 2 * max_order + 4:
        raise ValueError(
            f"sequence of length {len(terms)} is too short to certify order "
            f"{max_order}; need at least {2 * max_order + 4} terms"
        )
    length, connection = _lfsr_synthesis(terms, max_order)
    coefficients = tuple(-c for c in connection[1: length + 1])
    coefficients += (Fraction(0),) * (length - len(coefficients))
    if length <= max_order and _replays(terms, length, coefficients):
        return RecurrenceVerdict(True, length, coefficients, len(terms), max_order)
    return RecurrenceVerdict(False, 0, (), 0, max_order)
