"""Minimal decompositions of integers into sums of d-th powers.

The minimal part counts for each exponent d are cached in one table that
covers 0..limit.  It is kept as nested layers, after Deshouillers,
Hennecart and Landreau ("Waring's problem for sixteen biquadrates --
numerical results", 2000): layer t holds, as the bits of one integer, every
j <= limit that is a sum of at most t d-th powers, and layer t + 1 is the OR
of layer t shifted by each d-th power.  The count of j is the first layer
holding j.  Layers are stored as ``bytes``, so a bit test is O(1).  Tables
are layered for d <= 5 only: every integer is a sum of at most
g(d) = 4, 9, 19, 37 d-th powers for d = 2..5, so such a table has at most
38 layers.  From d = 6 on a count can pass 64 (127 = 2^6 + 63 ones takes 64
sixth powers), and a table would need as many layers, so those tables are
an array of counts built by the dynamic program over 1..limit instead.  A
layered table is rebuilt, not extended, so it grows geometrically: to
min(max(k, twice the old limit), the cap).
"""
from __future__ import annotations

import bisect
from array import array

from ._caps import check
from ._record import record

# the largest k the tables accept
CAP = 10_000_000
# Steps the list DP may take for all the d >= 6 count lists one request
# builds, checked by ``list_budget`` alone: a `waring` sweep passes it its
# grid, and ``_table`` the one list it extends.  Each list counts over the
# whole of 0..k whatever is cached: an entry costs two, and each power it
# tries one more.  A step takes about 40 ns, so a request at the cap about 2 s.
MAX_LIST_STEPS = 45_000_000
# Parts a decomposition may have: from d = 24 on, k <= CAP is all ones.
MAX_PARTS = 1_000_000


@record
class WaringDecomposition:
    """k = sum of parts[i]^d with a minimal number of parts."""

    k: int
    d: int
    parts: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.parts)


def _powers(d: int, limit: int) -> list[int]:
    """The d-th powers b^d <= limit, in increasing order."""
    if d >= limit.bit_length():  # 2^d > limit: only 1 fits, and b^d is never formed
        return [1]
    powers = []
    base = 1
    while base ** d <= limit:
        powers.append(base ** d)
        base += 1
    return powers


class _Layers:
    """Minimal counts for 0..limit, read off nested layers (see the module docstring).

    Like the count list it stands in for, ``table[j]`` is the count of j and
    ``len(table)`` is limit + 1.
    """

    def __init__(self, limit: int, layers: list[bytes]):
        self.limit = limit
        self.layers = layers

    @classmethod
    def build(cls, d: int, limit: int) -> _Layers:
        """The layers for 0..limit, for d <= 5: at most g(d) + 1 of them."""
        powers = _powers(d, limit)
        full = (1 << (limit + 1)) - 1
        size = limit // 8 + 1
        layer = 1
        layers = [layer.to_bytes(size, "little")]
        while layer != full:
            grown = layer
            for p in powers:
                grown |= layer << p
            layer = grown & full
            layers.append(layer.to_bytes(size, "little"))
        return cls(limit, layers)

    def __len__(self) -> int:
        return self.limit + 1

    def __getitem__(self, j: int) -> int:
        byte, bit = divmod(j, 8)
        return bisect.bisect_left(self.layers, 1, key=lambda layer: layer[byte] >> bit & 1)

    def top(self, limit: int) -> tuple[int, tuple[int, ...]]:
        """The largest count over 1..limit and every j <= limit that attains it."""
        wanted = (1 << (limit + 1)) - 2
        below = 0
        for t, layer in enumerate(self.layers):  # the last layer holds all of 0..self.limit
            held = int.from_bytes(layer, "little") & wanted
            if held == wanted:
                break
            below = held
        bits = bin(held & ~below)[:1:-1]  # bits[j] is bit j
        argmax = []
        j = bits.find("1")
        while j >= 0:
            argmax.append(j)
            j = bits.find("1", j + 1)
        return t, tuple(argmax)


def _list_steps(d: int, upto: int) -> int:
    """Steps of the d >= 6 count list over 0..upto (see ``MAX_LIST_STEPS``)."""
    return 2 * upto + sum(upto + 1 - p for p in _powers(d, upto))


def list_budget(ks, ds) -> None:
    """Refuse a request whose d >= 6 count lists take more than
    ``MAX_LIST_STEPS`` steps in all: for each d >= 6 in ``ds``, the list up
    to the largest k in ``ks``.  Values that ``min_count`` refuses count
    nothing."""
    ks = [k for k in ks if isinstance(k, int) and not isinstance(k, bool) and 1 <= k <= CAP]
    ds = {d for d in ds if isinstance(d, int) and not isinstance(d, bool) and d >= 6}
    if not ks or not ds:
        return
    top = max(ks)
    check("waring.MAX_LIST_STEPS", sum(_list_steps(d, top) for d in ds), MAX_LIST_STEPS,
          f"the d >= 6 count lists of this request ({len(ds)} of them, up to {top}) take a step count of")


def _extend_counts(d: int, counts: array, upto: int) -> array:
    """Extend the count list in place to 0..upto by the dynamic program."""
    powers = _powers(d, upto)
    start = len(counts)
    append = counts.append
    best = counts[-1]  # counts[i - 1], the candidate of the power 1, less one
    # between two consecutive powers, the powers no larger than i stay the same
    for t, end in enumerate([*powers[1:], upto + 1], 1):
        others = powers[1:t]
        for i in range(max(start, powers[t - 1]), end):
            for p in others:
                candidate = counts[i - p]
                if candidate < best:
                    best = candidate
            best += 1
            append(best)
    return counts


# per-exponent tables: d -> layers for d <= 5, the count list otherwise
_tables: dict[int, _Layers | array] = {}


def _table(d: int, upto: int) -> _Layers | array:
    """The cached minimal counts for exponent d, grown to cover 0..upto."""
    table = _tables.get(d)
    if table is not None and len(table) > upto:
        return table
    if d <= 5:
        old = len(table) - 1 if table is not None else 0
        table = _tables[d] = _Layers.build(d, max(upto, min(2 * old, CAP)))
        return table
    list_budget((upto,), (d,))
    if table is None:
        # a count is at most k <= CAP < 2^31, so a C int holds it: 4 bytes
        # an entry, where a list of int objects takes 8 and up to 28 more
        table = _tables[d] = array("i", [0])
    return _extend_counts(d, table, upto)


def min_count(k: int, d: int) -> int:
    """Minimal number of d-th powers summing to k."""
    _validate(k, d)
    return _table(d, k)[k]


def min_powers(k: int, d: int) -> WaringDecomposition:
    """A minimal decomposition, parts in non-increasing order.

    Tie-break: the largest feasible part is taken first, so among minimal
    decompositions the returned one is lexicographically largest.
    """
    _validate(k, d)
    counts = _table(d, k)
    target = counts[k]
    check("waring.MAX_PARTS", target, MAX_PARTS, f"k = {k} for d = {d} needs a part count of")
    powers = _powers(d, k)
    parts: list[int] = []
    remaining = k
    while remaining:
        target -= 1
        base = bisect.bisect_right(powers, remaining)  # the largest b with b^d <= remaining
        while counts[remaining - powers[base - 1]] != target:
            base -= 1
        parts.append(base)
        remaining -= powers[base - 1]
    return WaringDecomposition(k, d, tuple(parts))


@record
class FourthPowerReport:
    """Scan result: max minimal count for k <= limit and where it is attained."""

    limit: int
    max_count: int
    argmax: tuple[int, ...]
    within_19: bool


def verify_g4(limit: int) -> FourthPowerReport:
    """Check that every k <= limit needs at most 19 fourth powers."""
    _validate(limit, 4, "limit")
    # g(4) = 19 (Balasubramanian, Deshouillers and Dress, 1986): d = 4 tables are layered
    max_count, argmax = _table(4, limit).top(limit)
    return FourthPowerReport(limit, max_count, argmax, max_count <= 19)


def _validate(k: int, d: int, name: str = "k") -> None:
    if isinstance(d, bool) or not isinstance(d, int) or d < 2:
        raise ValueError("exponent d must be an integer >= 2")
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"{name} must be a positive integer")
    if k > CAP:  # checked on every sweep row: the helper is called only to refuse
        check("waring.CAP", k, CAP, f"{name} =")
