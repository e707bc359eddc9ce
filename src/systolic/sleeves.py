"""Volume and systole bookkeeping for cube-sleeve assemblies over a graph.

A model of dimension m decomposed into c cubes is hollowed into sleeves of
thickness eps and glued along a c-regular graph; the evaluators here emit
the exact assembly volume, the certified systole lower bound, and the
sublinear upper bounds the construction yields for iterated connected sums.
No geometry is computed: the systole certificate reduces to the graph-side
condition girth * 2 eps > 1, which is checked exactly.
"""
from __future__ import annotations

import math
from fractions import Fraction

from ._record import record
from .graphs import Graph, girth, vertex_window


@record
class CubicalModel:
    """Dimension m >= 3 and cube count c >= 2m+1 of a cubical decomposition."""

    m: int
    c: int

    def __post_init__(self):
        if type(self.m) is not int or type(self.c) is not int:
            raise ValueError(f"assembly model needs integers m and c, not {self.m!r} and {self.c!r}")
        if self.m < 3:
            raise ValueError("assembly model needs dimension m >= 3")
        if self.c < 2 * self.m + 1:
            raise ValueError(
                f"cube count {self.c} below the feasible regime 2m+1 = {2 * self.m + 1}"
            )


@record
class AssemblyReport:
    """Certified data of one assembly: exact volume, systole bound, upper bound."""

    m: int
    c: int
    eps: Fraction
    path_scale: int  # floor(1 / (2 eps))
    two_n: int
    graph_girth: int
    volume: Fraction  # exactly 4 m n c eps
    systole_lower_bound: int  # always 1, certified by the girth check
    sublinear_upper_bound: float  # m c ln(c-1) 2n / ln(2n)
    handle_count: int  # n (c-2) + 1


def sleeve_volume_single(model: CubicalModel, eps) -> Fraction:
    """Volume 2 m c eps of one hollowed model; exact in eps."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("sleeve thickness eps must be positive")
    return 2 * model.m * model.c * eps


def assemble(model: CubicalModel, eps, graph: Graph) -> AssemblyReport:
    """Validate a graph against the assembly preconditions and report.

    Requires: graph c-regular with an even vertex count inside the
    admissible window for l = floor(1/(2 eps)), and girth strictly above
    1/(2 eps), checked in that order, so a graph outside the window is
    refused before the girth search.  Each violation is named; success
    certifies the systole lower bound 1 via the distance-decreasing
    projection onto the graph.
    """
    eps = Fraction(eps)
    volume_single = sleeve_volume_single(model, eps)
    if not graph.is_regular(model.c):
        raise ValueError(f"graph is not {model.c}-regular")
    if graph.vertex_count % 2 or graph.vertex_count < 4:
        raise ValueError("assembly graph needs an even vertex count 2n >= 4")
    threshold = 1 / (2 * eps)
    path_scale = int(threshold)  # floor, exact on Fractions
    two_n = graph.vertex_count
    if path_scale >= two_n.bit_length():
        # Here l >= bit_length(2n) >= 3, and for c >= 7 the window starts
        # above 2n, so (c-1)^l is not formed: its lower end is at least
        # 4((c-1)^(l-1) - 1) >= 4 * 6^(l-1) - 4 > 2^l > 2n.
        raise ValueError(
            f"vertex count {two_n} outside the admissible window for degree {model.c}, "
            f"path scale {path_scale}, which starts above 2^{path_scale}"
        )
    low, high = vertex_window(model.c, path_scale)
    if not low <= two_n <= high:
        raise ValueError(
            f"vertex count {two_n} outside the admissible window [{low}, {high}] "
            f"for degree {model.c}, path scale {path_scale}"
        )
    g = girth(graph)  # finite: the graph is nonempty and c-regular with c >= 7
    if not g > threshold:
        raise ValueError(
            f"girth {g} does not exceed 1/(2 eps) = {threshold}; "
            "the systole certificate fails"
        )
    n = two_n // 2
    return AssemblyReport(
        m=model.m,
        c=model.c,
        eps=eps,
        path_scale=path_scale,
        two_n=two_n,
        graph_girth=g,
        volume=two_n * volume_single,
        systole_lower_bound=1,
        sublinear_upper_bound=upper_bound_even(model, n),
        handle_count=n * (model.c - 2) + 1,
    )


def upper_bound_even(model: CubicalModel, n: int) -> float:
    """Upper bound m c ln(c-1) 2n / ln(2n) for the 2n-fold connected sum."""
    if n < 2:
        raise ValueError("even-sum bound needs 2n >= 4")
    two_n = 2 * n
    return model.m * model.c * math.log(model.c - 1) * two_n / math.log(two_n)
