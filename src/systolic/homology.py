"""Integer simplicial homology with torsion, plus the triangle/torsion bound.

Betti numbers come from boundary ranks, torsion from the invariant factors
of the next boundary operator.  Homology is unreduced: betti[0] counts the
connected components.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import height_from_torsion
from .complexes import SimplicialComplex, boundary_matrix, face_counts
from .snf import SmithForm, smith_normal_form


@dataclass(frozen=True)
class HomologySummary:
    """Betti numbers and torsion invariant factors per dimension."""

    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    def torsion_order(self, k: int) -> int:
        if k < 0 or k >= len(self.torsion):
            return 1
        return math.prod(self.torsion[k])


def homology(complex_: SimplicialComplex) -> HomologySummary:
    """Homology groups H_k = Z^betti(k) + sum Z_d for k = 0..dim."""
    dim = complex_.dim
    if dim is None:
        return HomologySummary((), ())
    counts = face_counts(complex_)
    forms: list[SmithForm | None] = [None] * (dim + 2)
    for k in range(1, dim + 1):
        forms[k] = smith_normal_form(boundary_matrix(complex_, k))
    ranks = [forms[k].rank if forms[k] else 0 for k in range(dim + 2)]
    betti = [counts[k] - ranks[k] - ranks[k + 1] for k in range(dim + 1)]
    torsion = [
        forms[k + 1].torsion_factors if forms[k + 1] else () for k in range(dim + 1)
    ]
    return HomologySummary(tuple(betti), tuple(torsion))


def torsion_order_h1(complex_: SimplicialComplex) -> int:
    """|Tors H_1| of this complex; 1 means torsion-free."""
    if complex_.dim is None or complex_.dim < 2:
        return 1
    return math.prod(smith_normal_form(boundary_matrix(complex_, 2)).torsion_factors)


@dataclass(frozen=True)
class TriangleTorsionReport:
    """Triangle count versus the 2*log3 |Tors H_1| lower bound."""

    s2: int
    torsion_order: int
    lower_bound: float
    holds: bool


def check_s2_torsion_bound(complex_: SimplicialComplex) -> TriangleTorsionReport:
    """Check s_2(X) >= 2 log_3 |Tors H_1(X, Z)|, decided as |Tors|^2 <= 3^s2 in integers.

    This holds for every complex; a False verdict signals a bug, not a
    property of the input.
    """
    counts = face_counts(complex_)
    s2 = counts[2] if len(counts) > 2 else 0
    order = torsion_order_h1(complex_)
    return TriangleTorsionReport(s2, order, height_from_torsion(order), order * order <= 3 ** s2)
