"""Quick tests of the benchmark's generator and checkers (no program runs).

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import itertools
import json
import os
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
from checks import CheckFailure  # noqa: E402


def hoffman_singleton() -> dict:
    """Robertson's pentagons and pentagrams: 7-regular, 50 vertices, girth 5."""
    def p(h, j):
        return 10 * h + j % 5

    def q(i, j):
        return 10 * i + 5 + j % 5

    edges = set()
    for h, j in itertools.product(range(5), repeat=2):
        edges.add(tuple(sorted((p(h, j), p(h, j + 1)))))
        edges.add(tuple(sorted((q(h, j), q(h, j + 2)))))
        for i in range(5):
            edges.add(tuple(sorted((p(h, j), q(i, h * i + j)))))
    return {"n": 50, "edges": sorted(list(e) for e in edges)}


def graph_job(l: int, n: int) -> dict:
    return {"expect": {"l": l, "n": n, "c": 7, "m": 3, "eps": f"1/{2 * l}", "window": [2, 100]}}


def test_generator_is_deterministic(tmp_path):
    for workload in inputs.WORKLOADS:
        first, top = inputs.generate(workload, 7, tmp_path / "a" / workload)
        second, _ = inputs.generate(workload, 7, tmp_path / "b" / workload)
        assert first == second
        assert top in {job["id"] for job in first}
        for path in (tmp_path / "a" / workload).iterdir():
            assert path.read_bytes() == (tmp_path / "b" / workload / path.name).read_bytes()


def test_seed_changes_inputs(tmp_path):
    a, _ = inputs.generate("homology-ladder", 1, tmp_path / "a")
    b, _ = inputs.generate("homology-ladder", 2, tmp_path / "b")
    assert (tmp_path / "a" / "n80.json").read_bytes() != (tmp_path / "b" / "n80.json").read_bytes()
    assert [job["argv"] for job in a] == [job["argv"] for job in b]


@pytest.mark.parametrize("base,g,euler", [(inputs.TORUS_7, 5, -8), (inputs.RP2_6, 6, -4)])
def test_glued_surfaces(base, g, euler):
    facets = inputs.glue_chain(base, g, random.Random(3))
    assert inputs.is_closed_surface(facets)
    vertices, edges, triangles = inputs.face_counts(facets)
    assert vertices - edges + triangles == euler


def test_freudenthal_torus_is_closed():
    facets = inputs.freudenthal_torus(3)
    assert len(facets) == 162
    ridges = {}
    for f in facets:
        for r in itertools.combinations(f, 3):
            ridges[r] = ridges.get(r, 0) + 1
    assert set(ridges.values()) == {2}
    counts = inputs.face_counts(facets)
    assert counts == [27, 189, 324, 162]
    assert counts[0] - counts[1] + counts[2] - counts[3] == 0


def test_bfs_girth():
    hs = hoffman_singleton()
    adjacency = [[] for _ in range(50)]
    for u, v in hs["edges"]:
        adjacency[u].append(v)
        adjacency[v].append(u)
    assert checks.bfs_girth(50, adjacency) == 5
    k4 = [[j for j in range(4) if j != i] for i in range(4)]
    assert checks.bfs_girth(4, k4) == 3
    cube = [[i ^ 1, i ^ 2, i ^ 4] for i in range(8)]
    assert checks.bfs_girth(8, cube) == 4


def test_graph_with_5_cycle_rejected_at_l5():
    text = json.dumps(hoffman_singleton())
    checks.check_graph(graph_job(4, 50), text)
    with pytest.raises(CheckFailure, match="girth"):
        checks.check_graph(graph_job(5, 50), text)


def test_graph_not_regular_rejected():
    graph = hoffman_singleton()
    graph["edges"].pop()
    with pytest.raises(CheckFailure, match="regular"):
        checks.check_graph(graph_job(4, 50), json.dumps(graph))


def test_sleeve_and_girth_checks():
    job = graph_job(4, 50)
    graph = json.dumps(hoffman_singleton())
    good = {"m": 3, "c": 7, "eps": "1/8", "path_scale": 4, "two_n": 50, "graph_girth": 5,
            "volume": "525/2", "systole_lower_bound": 1, "handle_count": 126}
    checks.check_sleeve(job, json.dumps(good), graph)
    with pytest.raises(CheckFailure, match="volume"):
        checks.check_sleeve(job, json.dumps(dict(good, volume="263")), graph)
    with pytest.raises(CheckFailure, match="handle_count"):
        checks.check_sleeve(job, json.dumps(dict(good, handle_count=125)), graph)
    with pytest.raises(CheckFailure, match="window"):
        checks.check_sleeve(job, json.dumps(dict(good, two_n=120)), graph)
    checks.check_girth(job, json.dumps({"girth": 5, "metric_systole": "5/8"}), graph)
    with pytest.raises(CheckFailure, match="metric_systole"):
        checks.check_girth(job, json.dumps({"girth": 5, "metric_systole": "5/9"}), graph)


def test_homology_wrong_betti_rejected():
    job = {"expect": {"betti": [1, 2, 1], "torsion": [[], [], []], "faces": [7, 21, 14]}}
    checks.check_homology(job, json.dumps({"betti": [1, 2, 1], "torsion": [[], [], []]}))
    with pytest.raises(CheckFailure, match="betti"):
        checks.check_homology(job, json.dumps({"betti": [1, 3, 1], "torsion": [[], [], []]}))
    with pytest.raises(CheckFailure, match="torsion"):
        checks.check_homology(job, json.dumps({"betti": [1, 2, 1], "torsion": [[], [2], []]}))
    bad_faces = {"expect": dict(job["expect"], faces=[7, 21, 15])}
    with pytest.raises(CheckFailure, match="Euler"):
        checks.check_homology(bad_faces, json.dumps({"betti": [1, 2, 1], "torsion": [[], [], []]}))


def test_torsion_bound_check():
    job = {"expect": {"s2": 642, "torsion_order": 2}}
    row = "# systolic\nname,s2,bound,holds\nn80,642,{},{}\n"
    checks.check_torsion_bound(job, row.format(1.2618595071429148, "true"))
    with pytest.raises(CheckFailure, match="holds"):
        checks.check_torsion_bound(job, row.format(1.2618595071429148, "false"))
    with pytest.raises(CheckFailure, match="s2"):
        checks.check_torsion_bound({"expect": {"s2": 640, "torsion_order": 2}},
                                   row.format(1.2618595071429148, "true"))


def test_waring_one_part_too_many_rejected():
    job = {"expect": {"k": 100, "d": 2}}
    checks.check_waring(job, json.dumps({"k": 100, "d": 2, "parts": [10]}))
    with pytest.raises(CheckFailure, match="minimum is 1"):
        checks.check_waring(job, json.dumps({"k": 100, "d": 2, "parts": [8, 6]}))
    with pytest.raises(CheckFailure, match="sum"):
        checks.check_waring(job, json.dumps({"k": 100, "d": 2, "parts": [9, 4]}))
    job4 = {"expect": {"k": 79, "d": 4}}
    checks.check_waring(job4, json.dumps({"k": 79, "d": 4, "parts": [2] * 4 + [1] * 15}))
    with pytest.raises(CheckFailure, match="minimum is 19"):
        checks.check_waring(job4, json.dumps({"k": 79, "d": 4, "parts": [2] * 3 + [1] * 31}))


def _brute_counts(d: int, limit: int) -> list[int]:
    counts = [0] + [limit] * limit
    for k in range(1, limit + 1):
        b = 1
        while b ** d <= k:
            counts[k] = min(counts[k], counts[k - b ** d] + 1)
            b += 1
    return counts


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_reference_counts_match_brute_force(d):
    limit = 3000
    brute = _brute_counts(d, limit)
    if d == 2:
        assert [checks.squares_count(k) for k in range(1, limit + 1)] == brute[1:]
    else:
        layers = checks.WaringLayers(d, limit)
        assert [layers.count(k) for k in range(limit + 1)] == brute


def test_verify_and_sweep_checks():
    verify = {"limit": 1000000, "max_count": 19, "argmax": list(checks.VERIFY_G4_ARGMAX),
              "within_19": True}
    job = {"expect": {"limit": 1000000}}
    checks.check_waring_verify(job, json.dumps(verify))
    with pytest.raises(CheckFailure, match="argmax"):
        checks.check_waring_verify(job, json.dumps(dict(verify, argmax=[79, 159])))
    sweep = {"expect": {"k": [7, 79], "d": [2, 4]}}
    text = "# systolic\nd,k,result,error\n2,7,4,\n2,79,4,\n4,7,7,\n4,79,19,\n"
    checks.check_sweep_waring(sweep, text)
    with pytest.raises(CheckFailure, match="k=79, d=4"):
        checks.check_sweep_waring(sweep, text.replace("79,19", "79,18"))
    with pytest.raises(CheckFailure, match="rows"):
        checks.check_sweep_waring(sweep, text.replace("4,7,7,\n", ""))


def test_group_count_check():
    good = {"k_budget": 1000, "exponent": "500000000/7", "max_vertices": 750,
            "triangle_slots": 70031500, "chain_ok": True}
    job = {"expect": {"k": 1000}}
    checks.check_group_count(job, json.dumps(good))
    with pytest.raises(CheckFailure, match="triangle_slots"):
        checks.check_group_count(job, json.dumps(dict(good, triangle_slots=70031501)))


def test_abelianize_check_and_presentation_shape():
    text, expected = inputs.dense_presentation(8, 0)
    assert expected == {"free_rank": 1, "torsion_factors": [2, 6, 12]}
    assert text.startswith("x0,x1,x2,x3,x4,x5,x6,x7 ; ")
    job = {"expect": expected}
    checks.check_abelianize(job, json.dumps(expected))
    with pytest.raises(CheckFailure, match="torsion_factors"):
        checks.check_abelianize(job, json.dumps(dict(expected, torsion_factors=[2, 6])))


def test_genfun_replay_check():
    coeffs, terms = inputs.recurrence_sequence(5, 40, random.Random(4))
    job = {"expect": {"order": 5, "terms": [str(t) for t in terms]}}
    good = {"found": True, "order": 5, "coefficients": [str(c) for c in coeffs]}
    checks.check_genfun(job, json.dumps(good))
    wrong = list(good["coefficients"])
    wrong[0] = str(int(wrong[0]) + 1)
    with pytest.raises(CheckFailure, match="recurrence fails"):
        checks.check_genfun(job, json.dumps(dict(good, coefficients=wrong)))
    with pytest.raises(CheckFailure, match="above the generating order"):
        checks.check_genfun(job, json.dumps(dict(good, order=6, coefficients=wrong + ["0"])))


def test_nonzero_exit_fails_and_output_is_still_checked(tmp_path, capsys):
    job = {"id": "verify", "check": "waring_verify", "expect": {"limit": 1000000}}
    good = {"limit": 1000000, "max_count": 19, "argmax": list(checks.VERIFY_G4_ARGMAX),
            "within_19": True}
    outputs = harness.Outputs()
    for name, out, code in [("a", good, 0), ("b", good, 2),
                            ("c", dict(good, within_19=False), 1), ("d", "", 2)]:
        path = tmp_path / f"{name}.out"
        path.write_text(out and json.dumps(out))
        outputs.record(job, path, code)
    assert outputs.verdicts({"verify": job}) == [True, False, False, False]
    err = capsys.readouterr().err
    assert "exit code 1; within_19 is not true" in err
    assert "exit code 2; output is not JSON" in err


def test_job_times_scaled_by_the_probes_around_their_stretches():
    ref = harness.PROBE_REFERENCE_S
    timeline = [["probe", -1, ref], ["job", 0, 3.0], ["probe", -1, ref],
                ["job", 1, 2.0], ["probe", -1, 3 * ref], ["job", 1, 1.0], ["probe", -1, ref]]
    # job 1 ran its first stretch while the host was half as fast as the
    # reference, and its second at two thirds of it
    assert harness.scaled_times(timeline, 2) == pytest.approx([3.0, 1.0 + 0.5])


def test_spawn_stops_a_job_for_each_stretch(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "SLICE_S", 0.05)
    stretches = []
    busy = "import time\nend = time.perf_counter() + 0.4\nwhile time.perf_counter() < end: pass\nprint('done')"
    wall, rss, code = harness.spawn(["-c", busy], tmp_path / "busy.out", dict(os.environ),
                                    time.monotonic() + 30, stretches.append)
    assert code == 0 and rss > 0
    assert (tmp_path / "busy.out").read_text() == "done\n"
    assert len(stretches) >= 3 and wall == pytest.approx(sum(stretches))


def test_spawn_kills_a_job_at_the_deadline(tmp_path):
    start = time.monotonic()
    _, _, code = harness.spawn(["-c", "import time; time.sleep(30)"], tmp_path / "slow.out",
                               dict(os.environ), start + 0.3)
    assert code == -1 and time.monotonic() - start < 5


def test_schedule_spreads_setup_and_extra_top_runs(tmp_path):
    jobs, top = inputs.generate("algebra-mix", 1, tmp_path)
    order = harness.schedule(jobs, top, 2)
    ids = [job["id"] for job in order]
    assert ids.count("setup") == harness.SETUP_PER_PASS and ids.count(top) == 2
    first, second = (i for i, job_id in enumerate(ids) if job_id == top)
    assert second - first >= len(ids) // 3
    assert len(order) == len(jobs) + harness.SETUP_PER_PASS + 1
    assert set(ids) - {"setup"} == {job["id"] for job in jobs}
