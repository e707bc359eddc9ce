"""Exact analysis of candidate systolic-volume sequences.

Partial sums of the generating series, exact minimal linear recurrence
detection over the rationals, and sandwich-consistency scans.  Recurrence
detection is exact: float data must be rationalised by the caller first,
because the rationality criterion is a statement about exact recurrences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import multiple_class_bound


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


def partial_series(sequence, z, n_terms: int):
    """Partial sum of s_k z^k for k <= n_terms; exact when z is rational."""
    terms = sequence.terms if isinstance(sequence, RationalSequence) else tuple(sequence)
    if n_terms < 0 or n_terms > len(terms):
        raise ValueError(f"need 0 <= n_terms <= {len(terms)}")
    if isinstance(z, float):
        total = 0.0
    else:
        z = Fraction(z)
        total = Fraction(0)
    if not abs(z) < 1:
        raise ValueError("the series is only evaluated inside the open unit disk")
    power = z
    for k in range(n_terms):
        total += terms[k] * power
        power *= z
    return total


def _lfsr_synthesis(terms: tuple[Fraction, ...]) -> tuple[int, list[Fraction]]:
    """Minimal shift-register length and connection polynomial over Q.

    Returns (L, C) with C = [1, c_1, ..., c_L] such that
    s_n + sum_i c_i s_(n-i) = 0 for all n >= L.
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
    length, connection = _lfsr_synthesis(terms)
    coefficients = tuple(-c for c in connection[1: length + 1])
    coefficients += (Fraction(0),) * (length - len(coefficients))
    if length <= max_order and _replays(terms, length, coefficients):
        return RecurrenceVerdict(True, length, coefficients, len(terms), max_order)
    return RecurrenceVerdict(False, 0, (), 0, max_order)


def conjecture_series(volume, n_terms: int) -> RationalSequence:
    """Coefficients of S z / (1 - z): the constant sequence S, S, ...

    Composing with the detector yields an order-1 recurrence for every S.
    """
    volume = Fraction(volume)
    if volume <= 0:
        raise ValueError("the torus systolic volume must be positive")
    if n_terms < 1:
        raise ValueError("need at least one term")
    return RationalSequence((volume,) * n_terms)


@dataclass(frozen=True)
class SandwichScan:
    """Per-multiple verdicts on membership in the sandwich band."""

    in_band: tuple[bool, ...]
    fraction_in_band: float
    first_violation: int | None  # 1-indexed multiple, None if all in band


def sandwich_scan(sequence, c_lower: float, c_upper: float, m: int) -> SandwichScan:
    """Check c_lower k/(ln(1+k))^m <= s_k <= c_upper k/ln(1+k) termwise."""
    if c_lower <= 0 or c_upper <= 0:
        raise ValueError("sandwich constants must be positive")
    if m < 1:
        raise ValueError("dimension m must be a positive integer")
    terms = sequence.terms if isinstance(sequence, RationalSequence) else tuple(sequence)
    slack = 1e-12
    flags = []
    for k, term in enumerate(terms, start=1):
        value = float(term)
        low = c_lower * k / math.log(1 + k) ** m
        high = multiple_class_bound(k, c_upper)
        flags.append(low * (1 - slack) - slack <= value <= high * (1 + slack) + slack)
    first_violation = next((k for k, ok in enumerate(flags, start=1) if not ok), None)
    fraction = sum(flags) / len(flags) if flags else 1.0
    return SandwichScan(tuple(flags), fraction, first_violation)
