"""Closed-form lower/upper bound evaluators for systolic quantities.

The universal constants in these inequalities are not known numerically;
they are explicit inputs defaulting to 1.0 and outputs are tagged with the
constants' provenance so illustrative values are never mistaken for real
ones.  All "log" here is the natural logarithm.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from ._caps import read_json
from ._record import fields, record

_REL_SLACK = 1e-12

# fixed constants of the simplicial-complexity upper bound and its alpha scale
KAPPA_UPPER_C = 62500 * 25 / 3
KAPPA_UPPER_C_PRIME = 1 + math.log(25)
SYSTOLIC_AREA_FLOOR = math.pi / 16


@record
class BoundConstants:
    """User-supplied universal constants; defaults are illustrative only."""

    m: int = 3
    cm: float = 1.0  # height/torsion lower-bound constant
    cm_prime: float = 1.0  # exponential-correction constant
    cm_second: float = 1.0  # simplicial-volume lower-bound constant
    pair_lower: float = 1.0  # class-dependent sandwich lower constant
    pair_upper: float = 1.0  # class-dependent sandwich upper constant
    provenance: str = "illustrative-defaults"

    def __post_init__(self):
        if type(self.m) is not int or self.m < 1:
            raise ValueError("dimension m must be a positive integer")
        for field in ("cm", "cm_prime", "cm_second", "pair_lower", "pair_upper"):
            value = getattr(self, field)
            if isinstance(value, bool):
                raise ValueError(f"constant {field} must be a number, not a boolean")
            if not isinstance(value, (int, float, Fraction)):
                raise ValueError(f"constant {field} must be a number, not {value!r}")
            if value <= 0:
                raise ValueError(f"constant {field} must be positive")
            if type(value) is int and value > sys.float_info.max:  # math.isfinite would overflow
                raise ValueError(f"constant {field} is past the float range")
            if not math.isfinite(value):
                raise ValueError(f"constant {field} must be finite")


def load_constants(path: str) -> BoundConstants:
    """Load constants from a JSON file; missing keys keep their defaults, and a refusal names the file."""

    def build(data):
        keys = fields(BoundConstants)[:-1]  # all but provenance
        unknown = sorted(set(data) - set(keys))
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} (it takes {', '.join(keys[:-1])} and {keys[-1]})")
        return BoundConstants(**data, provenance=str(path))

    with open(path, "rb") as handle:
        return read_json(handle, "constants", build)


@record
class BoundReport:
    """A named lower and upper bound value for one quantity."""

    name: str
    lower: float
    upper: float

    @property
    def consistent(self) -> bool:
        """lower <= upper, with relative float slack."""
        return self.lower <= self.upper * (1 + _REL_SLACK) + _REL_SLACK


def height_lb(h, constants: BoundConstants = BoundConstants()) -> float:
    """Lower bound C_m h / exp(C'_m sqrt(ln h)) from the simplicial height."""
    if h < 2:
        raise ValueError("simplicial height must be at least 2")
    return constants.cm * h / math.exp(constants.cm_prime * math.sqrt(math.log(h)))


def simvol_lb(v, constants: BoundConstants = BoundConstants()) -> float:
    """Lower bound C''_m v / (ln(2+v))^m from the simplicial volume."""
    if v < 0:
        raise ValueError("simplicial volume must be non-negative")
    return constants.cm_second * v / math.log(2 + v) ** constants.m


def torsion_lb(t1, constants: BoundConstants = BoundConstants()) -> float:
    """Lower bound C_m ln t1 / exp(C'_m sqrt(ln ln t1)) from 1-torsion."""
    if t1 < 3:
        raise ValueError("torsion order must be at least 3 (ln ln must be positive)")
    log_t = math.log(t1)
    return constants.cm * log_t / math.exp(constants.cm_prime * math.sqrt(math.log(log_t)))


def height_from_torsion(t1) -> float:
    """Height lower bound 2 log_3 t1 implied by the 1-torsion."""
    if t1 < 1:
        raise ValueError("torsion order is a positive integer")
    return 2 * math.log(t1) / math.log(3)


def multiple_class_bound(k, constant) -> float:
    """C k / ln(1+k): sublinear upper bound for the k-th multiple of a class."""
    if k < 1:
        raise ValueError("multiple k must be at least 1")
    if constant <= 0:
        raise ValueError("the constant must be positive")
    return constant * k / math.log(1 + k)


def sandwich(k, constants: BoundConstants = BoundConstants()) -> BoundReport:
    """Sandwich for the k-th multiple of a class with positive simplicial volume.

    lower = pair_lower * k / (ln(1+k))^m, upper = pair_upper * k / ln(1+k).
    """
    if k < 1:
        raise ValueError("multiple k must be at least 1")
    lower = constants.pair_lower * k / math.log(1 + k) ** constants.m
    upper = multiple_class_bound(k, constants.pair_upper)
    return BoundReport("multiple-class-sandwich", lower, upper)


def lens_lb(n, constants: BoundConstants = BoundConstants()) -> float:
    """Lower bound for lens-space systolic volume: torsion bound at t1 = n."""
    if n < 3:
        raise ValueError("lens order must be at least 3")
    return torsion_lb(n, constants)


def finite_pi1_3manifold_lb(order: int, constants: BoundConstants = BoundConstants()) -> float:
    """Lower bound for a 3-manifold with finite fundamental group of this order.

    The group has a cyclic subgroup of index at most 12, so the lens bound
    applies to an n-sheeted cover with n = ceil(order/12) and transfers back
    divided by 12.
    """
    if order < 36:
        raise ValueError("group order must be at least 36 for the ln ln domain")
    n = -(-order // 12)
    return lens_lb(n, constants) / 12


def kappa_upper_from_systole(s: float) -> float:
    """Upper bound on simplicial complexity from systolic area, fixed constants.

    C s exp(C' sqrt(ln(62500 s))) with C = 62500*25/3 and C' = 1 + ln 25;
    the scale 62500 inside the logarithm keeps the exponent real on the
    whole admissible range s >= pi/16.
    """
    if s < SYSTOLIC_AREA_FLOOR:
        raise ValueError(f"systolic area is never below pi/16 ~ {SYSTOLIC_AREA_FLOOR:.6f}")
    return KAPPA_UPPER_C * s * math.exp(KAPPA_UPPER_C_PRIME * math.sqrt(math.log(62500 * s)))


def kappa_alpha_scale(s: float) -> float:
    """The admissible-ball scale 25 exp(sqrt(ln(62500 s))); exceeds 5 on the domain."""
    if s < SYSTOLIC_AREA_FLOOR:
        raise ValueError(f"systolic area is never below pi/16 ~ {SYSTOLIC_AREA_FLOOR:.6f}")
    return 25 * math.exp(math.sqrt(math.log(62500 * s)))


def systolic_area_upper_from_kappa(kappa: float) -> float:
    """Upper bound kappa / 2 pi on systolic area from simplicial complexity."""
    if kappa < 0:
        raise ValueError("simplicial complexity is non-negative")
    return kappa / (2 * math.pi)


@record
class GroupCountReport:
    """Bound 2^(K^3/14) on groups of zero free index with complexity <= K."""

    k_budget: int
    exponent: Fraction  # K^3 / 14
    bound_exact: int | None  # 2^exponent when the exponent is an integer below 1024
    bound_float: float  # inf once 2^exponent is past the float range
    chain_ok: bool  # 14 C(M,3) <= K^3, exact integers
    max_vertices: int  # M = ceil(3K/4)
    triangle_slots: int  # C(M, 3)


def group_count_bound(k_budget: int) -> GroupCountReport:
    """Count bound for groups of zero free index with complexity budget K.

    At most sum_(s<=K) C(C(M,3), s) <= 2^C(M,3) triangle sets with
    M = ceil(3K/4); the first inequality is a partial binomial row sum, so
    only 14 C(M,3) <= K^3 is checked, in exact integers.  ``bound_exact``
    is kept only while 2^(K^3/14) fits in 1024 bits, like ``bound_float``.
    """
    if k_budget < 1:
        raise ValueError("complexity budget must be a positive integer")
    m_vertices = -(-3 * k_budget // 4)
    slots = math.comb(m_vertices, 3)
    exponent = Fraction(k_budget ** 3, 14)
    exact = 2 ** exponent.numerator if exponent.denominator == 1 and exponent < 1024 else None
    try:
        as_float = 2.0 ** float(exponent)
    except OverflowError:
        as_float = math.inf
    return GroupCountReport(
        k_budget, exponent, exact, as_float, 14 * slots <= k_budget ** 3, m_vertices, slots
    )


def surface_kappa_bounds(genus: int) -> tuple[Fraction, int]:
    """Simplicial-complexity bounds (4l/3, 4(l-1) + 2{(7+sqrt(1+48l))/2}) for genus l.

    {a} is a for integers and floor(a)+1 otherwise; genus 2 is the quoted
    exception with upper bound 24.
    """
    if genus < 1:
        raise ValueError("genus must be a positive integer")
    lower = Fraction(4 * genus, 3)
    if genus == 2:
        return lower, 24
    radicand = 1 + 48 * genus
    root = math.isqrt(radicand)
    if root * root == radicand and (7 + root) % 2 == 0:
        brace = (7 + root) // 2
    else:
        brace = (7 + root) // 2 + 1
    return lower, 4 * (genus - 1) + 2 * brace


def abelian_kappa_bounds(n: int) -> tuple[int, int]:
    """Complexity bounds (n(n-1)/2, 7n(n-1)) for the free abelian group of rank n."""
    if n < 1:
        raise ValueError("rank must be a positive integer")
    return n * (n - 1) // 2, 7 * n * (n - 1)


@record
class UpperBoundIngredients:
    """Inputs for best_upper_bound.

    ``base``: known upper values at specific multiples (atoms of the
    decomposition lattice).  ``sublinear_constants``: one C per available
    C k/ln(1+k) bound.  ``constant_caps``: multiple-independent bounds,
    e.g. a Waring-type uniform cap.  These three families are closed under
    the min-plus composition used below: same-formula parts always merge
    (each family is subadditive), so an optimal decomposition is a multiset
    of base atoms plus at most one formula part, which the recursion explores
    exactly.
    """

    base: tuple[tuple[int, float], ...]
    sublinear_constants: tuple[float, ...] = ()
    constant_caps: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.base and not self.sublinear_constants and not self.constant_caps:
            raise ValueError("at least one ingredient is required")
        for multiple, value in self.base:
            if multiple < 1 or not value >= 0:
                raise ValueError("base entries are (multiple >= 1, value >= 0)")
        if any(not c > 0 for c in self.sublinear_constants):
            raise ValueError("sublinear constants must be positive")
        if any(not c >= 0 for c in self.constant_caps):
            raise ValueError("constant caps must be non-negative")

    @classmethod
    def make(cls, base=None, sublinear=(), caps=()) -> "UpperBoundIngredients":
        base_items = tuple(sorted((int(k), float(v)) for k, v in (base or {}).items()))
        return cls(base_items, tuple(float(c) for c in sublinear), tuple(float(c) for c in caps))


def best_upper_table(k_max: int, ingredients: UpperBoundIngredients) -> list[float]:
    """Min-plus closure table best[1..k_max]; best[0] = 0.

    best(j+k) <= best(j) + best(k) holds by construction, so the output
    sequence is subadditive.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    best = [0.0] * (k_max + 1)
    cap = min(ingredients.constant_caps, default=math.inf)
    for k in range(1, k_max + 1):
        value = cap
        for multiple, atom in ingredients.base:
            if multiple <= k:  # an atom at k itself is atom + best[0], its single-part value
                value = min(value, atom + best[k - multiple])
        for c in ingredients.sublinear_constants:
            value = min(value, multiple_class_bound(k, c))
        best[k] = value
    return best


def best_upper_bound(k: int, ingredients: UpperBoundIngredients) -> float:
    """Best composed upper bound for the k-th multiple."""
    if k < 1:
        raise ValueError("multiple k must be at least 1")
    return best_upper_table(k, ingredients)[k]
