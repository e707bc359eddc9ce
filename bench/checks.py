"""Checks of the program's outputs, computed apart from the program.

Each checker takes the job (as made by ``inputs``), the text the job wrote
and, for jobs that read a built graph, that graph's text.  It raises
``CheckFailure`` naming what is wrong.  Nothing here imports ``systolic``.
"""
from __future__ import annotations

import functools
import json
import math
from collections import deque
from fractions import Fraction

VERIFY_G4_ARGMAX = (79, 159, 239, 319, 399, 479, 559)


class CheckFailure(Exception):
    """An output that contradicts a value computed apart from the program."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None


def _csv_rows(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    require(len(lines) >= 2 and lines[0].startswith("# "), "CSV lacks its provenance comment")
    require(lines[1].split(",") == header, f"CSV header {lines[1]!r}, expected {header}")
    return [line.split(",") for line in lines[2:]]


# ---------------------------------------------------------------------------
# homology


def check_homology(job, text, graph_text=None) -> None:
    out = _json(text)
    expect = job["expect"]
    require(out.get("betti") == expect["betti"], f"betti {out.get('betti')} != {expect['betti']}")
    require(out.get("torsion") == expect["torsion"],
            f"torsion {out.get('torsion')} != {expect['torsion']}")
    euler_faces = sum((-1) ** k * n for k, n in enumerate(expect["faces"]))
    euler_betti = sum((-1) ** k * b for k, b in enumerate(out["betti"]))
    require(euler_faces == euler_betti, f"Euler characteristic {euler_betti} != {euler_faces}")


def check_torsion_bound(job, text, graph_text=None) -> None:
    rows = _csv_rows(text, ["name", "s2", "bound", "holds"])
    require(len(rows) == 1, f"expected one row, got {len(rows)}")
    _, s2, bound, holds = rows[0]
    expect = job["expect"]
    require(int(s2) == expect["s2"], f"s2 {s2} != triangle count {expect['s2']}")
    exact = 2 * math.log(expect["torsion_order"]) / math.log(3)
    require(abs(float(bound) - exact) <= 1e-9, f"bound {bound} != 2 log3 {expect['torsion_order']}")
    require(holds == "true", f"holds is {holds}")


# ---------------------------------------------------------------------------
# graphs and sleeves


def bfs_girth(n: int, adjacency: list[list[int]]) -> float:
    """Exact girth by breadth-first search from every vertex."""
    best = math.inf
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            if 2 * dist[node] + 1 >= best:
                break
            for nb in adjacency[node]:
                if nb == parent[node]:
                    continue
                if nb in dist:
                    best = min(best, dist[node] + dist[nb] + 1)
                else:
                    dist[nb] = dist[node] + 1
                    parent[nb] = node
                    queue.append(nb)
    return best


@functools.lru_cache(maxsize=4)
def parse_graph(text: str, degree: int) -> tuple[int, float]:
    """Vertex count and exact girth of a simple degree-regular graph text.

    Cached, because the build, sleeve and girth checks all read one graph.
    """
    data = _json(text)
    n = data.get("n")
    require(isinstance(n, int) and n > 0, f"bad vertex count {n!r}")
    adjacency: list[list[int]] = [[] for _ in range(n)]
    seen = set()
    for u, v in data["edges"]:
        require(0 <= u < n and 0 <= v < n and u != v, f"bad edge ({u}, {v})")
        key = (min(u, v), max(u, v))
        require(key not in seen, f"duplicate edge {key}")
        seen.add(key)
        adjacency[u].append(v)
        adjacency[v].append(u)
    require(all(len(a) == degree for a in adjacency), f"graph is not {degree}-regular")
    return n, bfs_girth(n, adjacency)


def _in_window(n: int, expect) -> None:
    """The vertex count the program reports lies in the benchmark's window."""
    low, high = expect["window"]
    require(low <= n <= high, f"{n} vertices, outside the window [{low}, {high}]")


def check_graph(job, text, graph_text=None) -> None:
    expect = job["expect"]
    n, girth = parse_graph(text, expect["c"])
    _in_window(n, expect)
    require(n == expect["n"], f"{n} vertices, asked for {expect['n']}")
    require(girth >= expect["l"] + 1, f"girth {girth} below {expect['l'] + 1}")


def check_sleeve(job, text, graph_text) -> None:
    expect = job["expect"]
    out = _json(text)
    n, girth = parse_graph(graph_text, expect["c"])
    eps = Fraction(expect["eps"])
    m, c = expect["m"], expect["c"]
    half = Fraction(n, 2)
    _in_window(out["two_n"], expect)
    require(Fraction(out["volume"]) == 4 * m * half * c * eps, f"volume {out['volume']}")
    require(out["two_n"] == n == expect["n"], f"two_n {out['two_n']} != {n}")
    require(out["path_scale"] == expect["l"], f"path_scale {out['path_scale']} != {expect['l']}")
    require(out["handle_count"] == half * (c - 2) + 1, f"handle_count {out['handle_count']}")
    require(out["graph_girth"] == girth, f"graph_girth {out['graph_girth']} != {girth}")
    require(out["systole_lower_bound"] == 1, "systole lower bound is not 1")
    require((out["m"], out["c"], out["eps"]) == (m, c, expect["eps"]), "model echo differs")


def check_girth(job, text, graph_text) -> None:
    expect = job["expect"]
    out = _json(text)
    _, girth = parse_graph(graph_text, expect["c"])
    require(out["girth"] == girth, f"girth {out['girth']} != {girth}")
    systole = Fraction(girth, 2 * expect["l"])
    require(Fraction(out["metric_systole"]) == systole,
            f"metric_systole {out['metric_systole']} != {systole}")


# ---------------------------------------------------------------------------
# Waring


def _iroot(k: int, d: int) -> int:
    r = round(k ** (1 / d))
    while r ** d > k:
        r -= 1
    while (r + 1) ** d <= k:
        r += 1
    return r


class WaringLayers:
    """Layer j holds, as bits of one integer, every k <= limit with at most j parts."""

    def __init__(self, d: int, limit: int):
        self.limit = limit
        powers = [b ** d for b in range(1, _iroot(limit, d) + 1)]
        mask = (1 << (limit + 1)) - 1
        full = mask
        self.layers = [1]
        while self.layers[-1] != full:
            cur = self.layers[-1]
            nxt = cur
            for p in powers:
                nxt |= cur << p
            self.layers.append(nxt & mask)

    def count(self, k: int) -> int:
        require(0 <= k <= self.limit, f"k={k} outside the reference table")
        return next(j for j, layer in enumerate(self.layers) if layer >> k & 1)


def squares_count(k: int) -> int:
    """Minimal number of squares summing to k (Lagrange, Fermat, Legendre)."""
    if math.isqrt(k) ** 2 == k:
        return 1
    m, p = k, 2
    two_squares = True
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if p % 4 == 3 and e % 2:
            two_squares = False
        p += 1
    if m > 1 and m % 4 == 3:
        two_squares = False
    if two_squares:
        return 2
    while k % 4 == 0:
        k //= 4
    return 4 if k % 8 == 7 else 3


def check_waring(job, text, graph_text=None) -> None:
    expect = job["expect"]
    out = _json(text)
    k, d = expect["k"], expect["d"]
    parts = out["parts"]
    require((out["k"], out["d"]) == (k, d), f"echo ({out['k']}, {out['d']}) != ({k}, {d})")
    require(all(isinstance(p, int) and p >= 1 for p in parts), f"non-positive part in {parts}")
    require(sum(p ** d for p in parts) == k, f"parts do not sum to {k}")
    best = squares_count(k) if d == 2 else WaringLayers(d, k).count(k)
    require(len(parts) == best, f"{len(parts)} parts, the minimum is {best}")


def check_waring_verify(job, text, graph_text=None) -> None:
    out = _json(text)
    require(out["limit"] == job["expect"]["limit"], f"limit {out['limit']}")
    require(out["max_count"] == 19, f"max_count {out['max_count']} != 19")
    require(tuple(out["argmax"]) == VERIFY_G4_ARGMAX, f"argmax {out['argmax']}")
    require(out["within_19"] is True, "within_19 is not true")


def check_sweep_waring(job, text, graph_text=None) -> None:
    expect = job["expect"]
    rows = _csv_rows(text, ["d", "k", "result", "error"])
    got = {}
    for row in rows:
        require(len(row) == 4 and row[3] == "", f"row error or bad row {row}")
        key = (int(row[0]), int(row[1]))
        require(key not in got, f"row {key} repeated")
        got[key] = int(row[2])
    wanted = {(d, k) for d in expect["d"] for k in expect["k"]}
    require(set(got) == wanted, f"{len(got)} rows, expected {len(wanted)}")
    tables = {d: WaringLayers(d, max(expect["k"])) for d in expect["d"] if d > 2}
    for (d, k), count in got.items():
        best = squares_count(k) if d == 2 else tables[d].count(k)
        require(count == best, f"count for k={k}, d={d} is {count}")


# ---------------------------------------------------------------------------
# bounds, presentations, recurrences


def check_group_count(job, text, graph_text=None) -> None:
    out = _json(text)
    k = job["expect"]["k"]
    m = -(-3 * k // 4)
    require(out["k_budget"] == k, f"k_budget {out['k_budget']}")
    require(Fraction(out["exponent"]) == Fraction(k ** 3, 14), f"exponent {out['exponent']}")
    require(out["max_vertices"] == m, f"max_vertices {out['max_vertices']} != {m}")
    require(out["triangle_slots"] == math.comb(m, 3), f"triangle_slots {out['triangle_slots']}")
    require(out["chain_ok"] is True, "chain_ok is not true")


def check_abelianize(job, text, graph_text=None) -> None:
    out = _json(text)
    expect = job["expect"]
    require(out["free_rank"] == expect["free_rank"], f"free_rank {out['free_rank']}")
    require(out["torsion_factors"] == expect["torsion_factors"],
            f"torsion_factors {out['torsion_factors']} != {expect['torsion_factors']}")


def check_genfun(job, text, graph_text=None) -> None:
    out = _json(text)
    expect = job["expect"]
    require(out["found"] is True, "no recurrence found")
    order = out["order"]
    require(1 <= order <= expect["order"], f"order {order} above the generating order")
    coefficients = [Fraction(c) for c in out["coefficients"]]
    require(len(coefficients) == order, "coefficient count differs from the order")
    terms = [Fraction(t) for t in expect["terms"]]
    for n in range(order, len(terms)):
        value = sum(coefficients[i] * terms[n - 1 - i] for i in range(order))
        require(value == terms[n], f"recurrence fails at term {n}")


def check_version(job, text, graph_text=None) -> None:
    require(text.startswith("systolic "), f"unexpected version text {text!r}")


CHECKERS = {
    "homology": check_homology,
    "torsion_bound": check_torsion_bound,
    "graph": check_graph,
    "sleeve": check_sleeve,
    "girth": check_girth,
    "waring": check_waring,
    "waring_verify": check_waring_verify,
    "sweep_waring": check_sweep_waring,
    "group_count": check_group_count,
    "abelianize": check_abelianize,
    "genfun": check_genfun,
    "version": check_version,
}
