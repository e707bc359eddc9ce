import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import systolic._evaluators as evaluators_mod
import systolic.cli as cli_mod
import systolic.homology as homology_mod
from systolic.cli import main
from systolic import __version__, _caps, bounds, complexes, graphs, presentations, sleeves, snf, waring
from systolic.corpus import corpus_list
from test_snf import _freudenthal_torus

import oracles

EVALUATORS = evaluators_mod._table()


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHomologyCommand:
    def test_single_file_json(self, tmp_path, capsys):
        path = tmp_path / "sphere.json"
        path.write_text('{"vertices": 4, "facets": [[0,1,2],[0,1,3],[0,2,3],[1,2,3]]}')
        code, out, _ = run_cli(["homology", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == {"betti": [1, 0, 1], "torsion": [[], [], []]}

    def test_corpus_csv(self, capsys):
        code, out, _ = run_cli(["homology", "--corpus", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("#")  # provenance header
        assert lines[1] == "name,betti,torsion"
        assert any(line.startswith("rp2_min,1 0 0") for line in lines)

    @pytest.mark.parametrize("command, header", [
        (["homology", "--format", "csv"], ["name", "betti", "torsion"]),
        (["check-torsion-bound"], ["name", "s2", "bound", "holds"]),
    ])
    def test_a_stem_with_a_comma_is_one_quoted_cell(self, command, header, tmp_path, capsys):
        path = tmp_path / "tri,angle.json"
        path.write_text(json.dumps({"facets": [[0, 1, 2]]}))
        code, out, _ = run_cli([*command, str(path)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert rows[0] == header
        assert len(rows) == 2 and rows[1][0] == "tri,angle" and len(rows[1]) == len(header)

    def test_no_inputs_is_usage_error(self, capsys):
        code, _, err = run_cli(["homology"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", [
        ["homology"], ["homology", "--format", "csv"], ["check-torsion-bound"],
    ])
    def test_repeated_stems_are_refused(self, command, tmp_path, capsys):
        # a JSON summary is keyed by stem, so the second file hid the first
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "t.json")
            paths[-1].write_text(json.dumps({"facets": [[0, 1, 2]]}))
        code, out, err = run_cli([*command, *map(str, paths)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: input files {str(paths[0])!r}, {str(paths[1])!r} share the name 't'\n"

    @pytest.mark.parametrize("command", [["homology"], ["check-torsion-bound"]])
    def test_files_with_corpus_are_refused(self, command, tmp_path, capsys):
        # --corpus dropped the file without a word
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"facets": [[0, 1, 2]]}))
        code, out, err = run_cli([*command, str(path), "--corpus"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --corpus takes no files, but was given {str(path)!r}\n"

    @pytest.mark.parametrize("command", ["homology", "check-torsion-bound"])
    def test_faces_past_the_cap_are_refused_at_once(self, command, tmp_path, capsys):
        # one 40-vertex facet has 2^40 - 1 faces
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"facets": [list(range(40))]}))
        start = time.perf_counter()
        code, out, err = run_cli([command, str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert str(complexes.MAX_FACE_STEPS) in err

    def test_faces_at_the_cap_are_accepted(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(complexes, "MAX_FACE_STEPS", 2 ** 12 - 1)
        path = tmp_path / "simplex.json"
        path.write_text(json.dumps({"facets": [list(range(12))]}))
        code, out, _ = run_cli(["homology", str(path)], capsys)
        assert (code, json.loads(out)["betti"]) == (0, [1] + [0] * 11)

    def test_one_homology_call_per_complex(self, capsys, monkeypatch):
        calls = []
        real_homology = homology_mod.homology

        def counted(complex_):
            calls.append(complex_)
            return real_homology(complex_)

        monkeypatch.setattr(homology_mod, "homology", counted)
        code, out, _ = run_cli(["homology", "--corpus"], capsys)
        assert code == 0
        assert len(calls) == len(json.loads(out))


# sha256 of stdout, computed with the Smith form of every full boundary matrix
@pytest.mark.parametrize(
    "args, digest",
    [
        (["homology", "{t3k4}"], "fdcd6884eae7743b9458c075a7cfc37424b16148ce3714b0869ae2bcfee04c84"),
        (["homology", "{t3k4}", "--format", "csv"],
         "10587ec3bda7c537635288114278958008a5bd8f853e28d84caa2ba68703af2f"),
        (["check-torsion-bound", "{t3k4}"], "301e64592d35cc77460c5bedf477ee0a3cb6f2213255b445627b271272774e2e"),
        (["homology", "--corpus"], "c06a960607d71a8ed1c79c21345323384ba66a60189bb6078e8405540623305b"),
        (["homology", "--corpus", "--format", "csv"],
         "c0949e333177f1401e92e3566eb3b1334efd3db056b734cbc1116cf4943872b0"),
        (["check-torsion-bound", "--corpus"], "82daa8f4a95168d3e0ec06be2318d1ef1dbce05e02f589504084b2fc499556ce"),
    ],
)
def test_homology_bytes_pinned(args, digest, tmp_path, capsys):
    torus = _freudenthal_torus(4)
    path = tmp_path / "t3k4.json"
    path.write_text(json.dumps({"vertices": torus.vertex_count, "facets": [list(f) for f in torus.facets]}))
    code, out, _ = run_cli([arg.format(t3k4=path) for arg in args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _record_inputs(tmp_path):
    """Files for the record-serialising commands: a 7-regular circulant, a
    sequence with a rational order-2 recurrence and one without."""
    graph = tmp_path / "circulant.json"
    edges = {tuple(sorted((i, (i + d) % 26))) for i in range(26) for d in (1, 2, 3, 13)}
    graph.write_text(json.dumps({"n": 26, "edges": sorted(map(list, edges))}))
    terms = [Fraction(3, 2), Fraction(-1, 5)]
    while len(terms) < 16:
        terms.append(Fraction(1, 2) * terms[-1] + Fraction(7, 3) * terms[-2])
    recurrent = tmp_path / "recurrent.json"
    recurrent.write_text(json.dumps({"terms": [str(t) for t in terms]}))
    primes = tmp_path / "primes.json"
    primes.write_text(json.dumps({"terms": [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]}))
    return {"circulant": graph, "recurrent": recurrent, "primes": primes}


# sha256 of stdout, computed while the records were still dataclasses: each
# payload walks a record's fields, so a change in field order, a default or
# the form of a value shows here
@pytest.mark.parametrize(
    "args, digest",
    [
        (["sleeve", "--m", "3", "--c", "7", "--eps", "1/5", "--graph", "{circulant}"],
         "6d85f0fc9c9efb5142d4793a2c5cc4899874fb53732e8be575b6b84a4ebcdd3e"),
        (["waring", "--k", "79", "--d", "4"],
         "00d7736a846f6552dee34f25bead1c84e41728ed58d6084c300437710f809443"),
        (["waring", "--k", "1000003", "--d", "3"],
         "9128e1c6d6d682ea74027a6a1043680b1a4076c86a162ce9e2df136dcd563eb4"),
        (["waring", "verify", "--limit", "2000"],
         "e3c6b8a4a7fe996da3f258a14ab19b5bd4e318d962263b0f463a84444fc87569"),
        (["genfun", "detect", "--file", "{recurrent}", "--max-order", "4"],
         "0434d10d39deb437db5eda78e94b9760f6b3c9ded61a849d239466b64c5e01a1"),
        (["genfun", "detect", "--file", "{primes}", "--max-order", "3"],
         "d36f6bac193c2b87b17ec901e6c0dc99670ac23028f904c5f36bf7b34ca2345f"),
        (["bounds", "group-count", "--value", "14"],
         "8effda58c5e805fa072a096ae2c2c702b40c590080c0a407c8f7d454c6ffbaab"),
        (["bounds", "group-count", "--value", "300"],
         "539132e4dbcfc2618320f78a7b51bbe7891684e1e470f8da2105e8eea31a089d"),
        (["bounds", "sandwich", "--value", "10"],
         "76948fb8d3ee2b9ef8825b4598ed12cb8f46b034f391d1559878d35ce9372f1a"),
        (["corpus", "--format", "json"],
         "d12abf1cd2d729733b8e8905207a388e13f16764ea8f7266897ed072018516f1"),
    ],
)
def test_record_bytes_pinned(args, digest, tmp_path, capsys):
    paths = _record_inputs(tmp_path)
    code, out, _ = run_cli([arg.format(**paths) for arg in args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTorsionBoundCommand:
    def test_corpus_rows_all_hold(self, capsys):
        code, out, _ = run_cli(["check-torsion-bound", "--corpus"], capsys)
        assert code == 0
        rows = [line for line in out.strip().split("\n") if not line.startswith("#")][1:]
        assert all(row.endswith("true") for row in rows)
        rp2_row = next(row for row in rows if row.startswith("rp2_min"))
        assert rp2_row.split(",")[1] == "10"


class TestAbelianizeCommand:
    def test_heisenberg_string(self, capsys):
        code, out, _ = run_cli(["abelianize", "a,b,c ; [a,b]c^-5, [a,c], [b,c]"], capsys)
        assert code == 0
        assert json.loads(out) == {"free_rank": 2, "torsion_factors": [5]}

    def test_bad_syntax_is_usage_error(self, capsys):
        code, _, err = run_cli(["abelianize", "a b c"], capsys)
        assert code == 2

    @pytest.mark.parametrize("text, opener", [("a ; [a", "["), ("a ; (a", "("), ("a ; [a,a", "[")])
    def test_an_unclosed_bracket_is_one_line(self, capsys, text, opener):
        code, out, err = run_cli(["abelianize", text], capsys)
        assert (code, out, err) == (2, "", f"error: '{opener}' is not closed\n")

    def test_expansion_past_the_letter_cap_is_refused(self, capsys):
        cap = presentations.MAX_LETTERS
        code, out, _ = run_cli(["abelianize", f"a ; a^{cap}"], capsys)
        assert (code, json.loads(out)) == (0, {"free_rank": 0, "torsion_factors": [cap]})
        # the inner power counts 1 000 before the outer one counts 1 000 000
        for text, used in ((f"a ; a^{cap + 1}", cap + 1), ("a ; a^1000000000", 10 ** 9),
                           (f"a,b ; (a^1000)^{cap // 1000}", cap + 1000)):
            code, out, err = run_cli(["abelianize", text], capsys)
            assert (code, out) == (2, "")
            assert err == (f"error: the relators expand to a letter count of at least {used}, "
                           f"past the cap (presentations.MAX_LETTERS = {cap})\n")

    def test_segmenting_at_the_step_cap_and_one_past(self, capsys):
        # in a token of juxtaposed 'cd's each position walks c, d and the next
        # character, the last one c and d only; two 'b's at the end take 2 + 1
        cap = presentations.MAX_SEGMENT_STEPS
        pairs = (cap + 1) // 3
        assert 3 * pairs - 1 == cap
        code, out, _ = run_cli(["abelianize", "b, cd ; " + "cd" * pairs], capsys)
        assert (code, json.loads(out)) == (0, {"free_rank": 1, "torsion_factors": [pairs]})
        code, out, err = run_cli(["abelianize", "b, cd ; " + "cd" * (pairs - 1) + "bb"], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: splitting juxtaposed names takes a step count of at least {cap + 1}, "
                       f"past the cap (presentations.MAX_SEGMENT_STEPS = {cap})\n")

    def test_exponent_past_the_digit_cap_is_refused(self, capsys):
        # int() refused it in the interpreter's words, reported as no integer at all
        code, out, _ = run_cli(["abelianize", "a ; a^" + "0" * 4299 + "7"], capsys)
        assert (code, json.loads(out)) == (0, {"free_rank": 0, "torsion_factors": [7]})
        code, out, err = run_cli(["abelianize", "a ; a^" + "9" * 5000], capsys)
        assert (code, out, err) == (2, "", "error: an exponent after '^' has a digit count of 5000, "
                                           "past the cap (_caps.MAX_DIGITS = 4300)\n")

    def test_deep_nesting_is_refused(self, capsys):
        code, out, _ = run_cli(["abelianize", "a ; " + "(" * 200 + "a^2" + ")" * 200], capsys)
        assert (code, json.loads(out)) == (0, {"free_rank": 0, "torsion_factors": [2]})
        for depth in (990, 100_000):
            code, out, err = run_cli(["abelianize", "a ; " + "(" * depth + "a" + ")" * depth], capsys)
            assert (code, out, err) == (2, "", "error: the input is nested too deeply\n")

    def test_residual_past_the_cap_is_refused_at_once(self, capsys):
        # three powers from {2, 3, -6} per relator: no unit entry, one large residual block
        rng = random.Random(0)
        names = [f"x{j}" for j in range(400)]
        relators = [
            " ".join(f"{names[j]}^{rng.choice((2, 3, -6))}" for j in rng.sample(range(400), 3))
            for _ in range(400)
        ]
        start = time.perf_counter()
        code, out, err = run_cli(["abelianize", ",".join(names) + " ; " + ", ".join(relators)], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert str(snf.MAX_RESIDUAL_WORK) in err


class TestGraphCommands:
    def test_build_then_girth(self, tmp_path, capsys):
        out_file = tmp_path / "graph.json"
        code, _, _ = run_cli(
            ["build-graph", "--c", "3", "--girth", "5", "--vertices", "10",
             "--seed", "7", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        oracles.check_regular_girth(graphs.load_graph(out_file.read_text()), 3, 5)
        code, out, _ = run_cli(
            ["girth", str(out_file), "--edge-length", "1/4"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["girth"] == 5
        assert payload["metric_systole"] == "5/4"

    def test_empty_edge_length_is_refused(self, tmp_path, capsys):
        # an empty --edge-length was ignored, and only the girth printed
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
        code, out, err = run_cli(["girth", str(path), "--edge-length", ""], capsys)
        assert (code, out, err) == (2, "", "error: --edge-length '' is not a rational number\n")

    def test_edge_length_past_the_digit_cap_names_its_digit_count(self, capsys):
        # the refusal echoed all 5 000 digits as no rational number
        petersen = str(Path(cli_mod.__file__).parent / "data" / "petersen.json")
        code, out, err = run_cli(["girth", petersen, "--edge-length", "1" * 5000], capsys)
        assert (code, out, err) == (2, "", "error: --edge-length has a number with a digit count of 5000, "
                                           "past the cap (_caps.MAX_DIGITS = 4300)\n")

    def test_equal_edge_lengths_print_one_output(self, capsys):
        # the field echoed the option's text, so each spelling printed its own bytes
        petersen = str(Path(cli_mod.__file__).parent / "data" / "petersen.json")
        outputs = {run_cli(["girth", petersen, "--edge-length", length], capsys)
                   for length in ["1/2", "2/4", " 2/4", "0.5"]}
        assert outputs == {(0, '{\n  "girth": 5,\n  "edge_length": "1/2",\n  "metric_systole": "5/2"\n}\n', "")}

    def test_girth_with_edge_length_runs_one_search(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]}))
        calls = []

        def counted(graph):
            calls.append(graph)
            return graphs_girth(graph)

        graphs_girth = graphs.girth
        monkeypatch.setattr(graphs, "girth", counted)
        code, out, _ = run_cli(["girth", str(path), "--edge-length", "1/3"], capsys)
        assert code == 0
        assert json.loads(out) == {"girth": 5, "edge_length": "1/3", "metric_systole": "5/3"}
        assert len(calls) == 1

    def test_girth_at_and_past_the_degree_squares_cap(self, tmp_path, capsys, monkeypatch):
        # a 5-cycle with a pendant vertex: degrees 3, 2, 2, 2, 2 and 1, whose squares sum to 26
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": 6, "edges": [[i, (i + 1) % 5] for i in range(5)] + [[0, 5]]}))
        monkeypatch.setattr(graphs, "MAX_DEGREE_SQUARES", 26)
        code, out, _ = run_cli(["girth", str(path)], capsys)
        assert (code, json.loads(out)) == (0, {"girth": 5})
        monkeypatch.setattr(graphs, "MAX_DEGREE_SQUARES", 25)
        code, out, err = run_cli(["girth", str(path), "--edge-length", "1/3"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: the graph's squared degrees sum to 26, past the cap (graphs.MAX_DEGREE_SQUARES = 25)\n"
        )

    def test_infeasible_build_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["build-graph", "--c", "3", "--girth", "5", "--vertices", "8"], capsys
        )
        assert code == 2
        assert "Moore" in err

    def test_huge_girth_is_refused_at_once(self, capsys):
        start = time.monotonic()
        code, out, err = run_cli(
            ["build-graph", "--c", "3", "--girth", "200000", "--vertices", "10"], capsys
        )
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "Moore" in err

    def test_build_bytes_pinned(self, capsys):
        # any change to the search's draws from the generator changes these bytes
        code, out, _ = run_cli(
            ["build-graph", "--c", "7", "--girth", "5", "--vertices", "1032", "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "37e111345f63873f48e567a81ba15a0864ef05e3fca3d7e17051def0fa13e765"
        )
        oracles.check_regular_girth(graphs.load_graph(out), 7, 5)

    def test_girth6_build_bytes_pinned(self, capsys):
        # reach 4: the far test meets a ball of radius 2 around the drawn
        # vertex, and this search also lists partners and double swaps
        code, out, _ = run_cli(
            ["build-graph", "--c", "7", "--girth", "6", "--vertices", "1000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5c1df165d94d7e9c34b0a9cc992ad7bb15df8e7e31e84226faf53b9d13310709"
        )
        oracles.check_regular_girth(graphs.load_graph(out), 7, 6)

    def test_bench_scale_build_bytes_pinned(self, capsys):
        # the benchmark's l=5 request
        code, out, _ = run_cli(
            ["build-graph", "--c", "7", "--girth", "6", "--vertices", "6216", "--seed", "7"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4325c1f8ceccfa0ee7bb97c6c937d389c8a2fb62040ad3475dd68a0bf908daac"
        )
        oracles.check_regular_girth(graphs.load_graph(out), 7, 6)

    def test_build_proves_nothing_again_at_run_time(self, capsys, monkeypatch):
        # the build's girth and edges are theorems of the search, so neither
        # girth nor Graph's checks may run while it builds
        def refuse(*args, **kwargs):
            raise AssertionError("the build re-checked its own graph")

        monkeypatch.setattr(graphs, "girth", refuse)
        monkeypatch.setattr(graphs.Graph, "__post_init__", refuse)
        code, out, _ = run_cli(
            ["build-graph", "--c", "7", "--girth", "5", "--vertices", "1032", "--seed", "4"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "37e111345f63873f48e567a81ba15a0864ef05e3fca3d7e17051def0fa13e765"
        )
        monkeypatch.undo()  # the certificate runs girth and Graph's checks
        oracles.check_regular_girth(graphs.load_graph(out), 7, 5)

    @pytest.mark.parametrize("vertices", ["300002", "100000000"])
    def test_build_above_vertex_cap_is_usage_error(self, vertices, capsys):
        code, out, err = run_cli(
            ["build-graph", "--c", "7", "--girth", "6", "--vertices", vertices], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert err.endswith(", past the cap (graphs.STEP_BUDGET = 200000)\n")

    def test_build_beyond_step_budget_is_refused_at_once(self, monkeypatch, capsys):
        # the l=7 window top: 979776 edges against 200000 steps per attempt
        def no_attempt(*args):
            raise AssertionError("searched a request the budget cannot finish")

        monkeypatch.setattr(graphs, "_greedy_attempt", no_attempt)
        code, out, err = run_cli(
            ["build-graph", "--c", "7", "--girth", "8", "--vertices", "279936"], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert err == ("error: 279936 vertices of degree 7 need one attempt step per edge, a step count of "
                       "979776, past the cap (graphs.STEP_BUDGET = 200000)\n")

    def test_girth_above_vertex_cap_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 1000000, "edges": []}')
        code, out, err = run_cli(["girth", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1


class TestSleeveCommand:
    @staticmethod
    def circulant_file(tmp_path, n):
        # offsets 1, 2, 3 and n/2: 7-regular with girth 3
        graph_file = tmp_path / "g.json"
        edges = {(min(i, (i + d) % n), max(i, (i + d) % n)) for i in range(n) for d in (1, 2, 3, n // 2)}
        graph_file.write_text(json.dumps({"n": n, "edges": sorted(map(list, edges))}))
        return graph_file

    def test_assembly_report(self, tmp_path, capsys):
        graph_file = self.circulant_file(tmp_path, 26)
        code, out, _ = run_cli(
            ["sleeve", "--m", "3", "--c", "7", "--eps", "1/5", "--graph", str(graph_file)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["volume"] == "1092/5"
        assert payload["systole_lower_bound"] == 1
        assert payload["handle_count"] == 66

    def test_girth_violation_rejected(self, tmp_path, capsys):
        graph_file = self.circulant_file(tmp_path, 168)  # inside the l=3 window [168, 216]
        code, _, err = run_cli(
            ["sleeve", "--m", "3", "--c", "7", "--eps", "1/7", "--graph", str(graph_file)],
            capsys,
        )
        assert code == 2
        assert err == "error: girth 3 does not exceed 1/(2 eps) = 7/2; the systole certificate fails\n"

    @pytest.mark.parametrize(
        "eps, window",
        [("1/7", "[168, 216] for degree 7, path scale 3"),
         ("1/10000000", "for degree 7, path scale 5000000, which starts above 2^5000000"),
         ("1/1000000000000", "for degree 7, path scale 500000000000, which starts above 2^500000000000")],
    )
    def test_window_is_checked_before_the_girth(self, eps, window, tmp_path, capsys, monkeypatch):
        def no_girth(graph):
            raise AssertionError("girth searched outside the window")

        monkeypatch.setattr(sleeves, "girth", no_girth)
        graph_file = self.circulant_file(tmp_path, 26)
        start = time.monotonic()
        code, out, err = run_cli(
            ["sleeve", "--m", "3", "--c", "7", "--eps", eps, "--graph", str(graph_file)], capsys
        )
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: vertex count 26 outside the admissible window {window}\n"

    @pytest.mark.parametrize("eps", ["1/3", "1/10000000"])
    def test_empty_graph_is_refused_at_once(self, eps, tmp_path, capsys):
        # 0-regular vacuously: its infinite girth crashed int(), and a tiny
        # eps formed 6**5000000 for the vertex window
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps({"n": 0, "edges": []}))
        start = time.monotonic()
        code, out, err = run_cli(
            ["sleeve", "--m", "3", "--c", "7", "--eps", eps, "--graph", str(graph_file)], capsys
        )
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert "2n >= 4" in err and len(err.splitlines()) == 1


class TestBoundsCommand:
    def test_surface_kappa(self, capsys):
        code, out, _ = run_cli(["bounds", "surface-kappa", "--value", "2"], capsys)
        assert code == 0
        assert json.loads(out) == {"genus": 2, "lower": "8/3", "upper": 24}

    def test_group_count(self, capsys):
        code, out, _ = run_cli(["bounds", "group-count", "--value", "14"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["chain_ok"] is True
        assert payload["exponent"] == "196"

    def test_constants_file(self, tmp_path, capsys):
        const = tmp_path / "constants.json"
        const.write_text('{"m": 2, "cm": 2.0}')
        code, out, _ = run_cli(
            ["bounds", "torsion", "--value", "100", "--constants", str(const)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert str(const) in payload["constants"]

    @pytest.mark.parametrize("key", ["a", "b", "sigma_m", "torus_volume", "junk", "provenance"])
    def test_removed_constants_key_is_refused(self, key, tmp_path, capsys):
        # the text was Python's, BoundConstants.__init__() got an unexpected
        # keyword argument 'junk', and a 'provenance' key was dropped unread
        const = tmp_path / "constants.json"
        const.write_text(json.dumps({"cm": 2.0, key: 1.0}))
        code, out, err = run_cli(
            ["bounds", "torsion", "--value", "100", "--constants", str(const)], capsys
        )
        assert (code, out) == (2, "")
        assert err == (f"error: constants file {const}: unknown key {key!r} "
                       "(it takes m, cm, cm_prime, cm_second, pair_lower and pair_upper)\n")

    @pytest.mark.parametrize("name", ["simvol", "sandwich"])
    @pytest.mark.parametrize("m", ["1000", "2.5", "true"])
    def test_bad_dimension_is_refused(self, name, m, tmp_path, capsys):
        # log(2 + v) ** 1000 overflowed a float; 2.5 and true passed as integers
        const = tmp_path / "constants.json"
        const.write_text(f'{{"m": {m}}}')
        code, out, err = run_cli(
            ["bounds", name, "--value", "10", "--constants", str(const)], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        if m != "1000":
            assert "positive integer" in err

    @pytest.mark.parametrize(
        "name, constants",
        [
            ("torsion", '{"cm": 1e308}'),  # the float result is inf
            ("sandwich", '{"pair_upper": 1e308}'),  # the upper bound is inf
            ("simvol", '{"m": 1000}'),  # the float power raises OverflowError
        ],
    )
    def test_result_past_the_float_range_is_refused(self, name, constants, tmp_path, capsys):
        const = tmp_path / "constants.json"
        const.write_text(constants)
        code, out, err = run_cli(
            ["bounds", name, "--value", "10", "--constants", str(const)], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: {name}: the result is past the float range\n"
        # the same case in a sweep is a row error, and the sweep goes on
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": name, "grid": {"value": [10]}}))
        code, out, err = run_cli(["sweep", "--spec", str(spec), "--constants", str(const)], capsys)
        assert code == 0 and err == "sweep finished with 1 row errors\n"
        assert out.splitlines()[2] == f'10,,"{name}: the result is past the float range"'

    @pytest.mark.parametrize("field", ["cm", "cm_prime", "cm_second", "pair_lower", "pair_upper"])
    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_non_finite_constant_is_refused(self, field, value, tmp_path, capsys):
        const = tmp_path / "constants.json"
        const.write_text(f'{{"{field}": {value}}}')
        code, out, err = run_cli(
            ["bounds", "sandwich", "--value", "10", "--constants", str(const)], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: constants file {const}: constant {field} must be finite\n"

    @pytest.mark.parametrize("value, shown", [('"x"', "'x'"), ("null", "None"), ("[1]", "[1]")])
    def test_constant_that_is_no_number_is_refused(self, value, shown, tmp_path, capsys):
        const = tmp_path / "constants.json"
        const.write_text(f'{{"cm": {value}}}')
        code, out, err = run_cli(["bounds", "height", "--value", "2", "--constants", str(const)], capsys)
        assert (code, out, err) == (2, "", f"error: constants file {const}: constant cm must be a number, "
                                           f"not {shown}\n")

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_boolean_constant_is_refused(self, value, tmp_path, capsys):
        const = tmp_path / "constants.json"
        const.write_text(f'{{"cm": {value}}}')
        code, out, err = run_cli(["bounds", "height", "--value", "5", "--constants", str(const)], capsys)
        assert (code, out, err) == (2, "", f"error: constants file {const}: constant cm must be a number, "
                                           "not a boolean\n")

    @pytest.mark.parametrize("command", [["bounds", "height", "--value", "5"], ["sweep", "--spec", "{spec}"]])
    def test_constant_past_the_float_range_is_refused(self, command, tmp_path, capsys):
        # math.isfinite raised OverflowError, which main caught as bad input
        const, spec = tmp_path / "constants.json", tmp_path / "spec.json"
        const.write_text(json.dumps({"cm": 10 ** 400}))
        spec.write_text(json.dumps({"command": "height", "grid": {"value": [5]}}))
        code, out, err = run_cli([*(arg.format(spec=spec) for arg in command), "--constants", str(const)], capsys)
        assert (code, out, err) == (2, "", f"error: constants file {const}: "
                                           "constant cm is past the float range\n")

    @pytest.mark.parametrize("command", [["bounds", "torsion", "--value", "100"], ["sweep", "--spec", "{spec}"]])
    def test_value_refusal_names_the_constants_file(self, command, tmp_path, capsys):
        # the text was constant cm must be positive, which did not say which file
        const, spec = tmp_path / "constants.json", tmp_path / "spec.json"
        const.write_text('{"cm": -1}')
        spec.write_text(json.dumps({"command": "torsion", "grid": {"value": [100]}}))
        code, out, err = run_cli([*(arg.format(spec=spec) for arg in command), "--constants", str(const)], capsys)
        assert (code, out, err) == (2, "", f"error: constants file {const}: constant cm must be positive\n")

    def test_divisor_that_underflows_is_refused(self, tmp_path, capsys):
        # ln(2) ** 3000 is 0.0 as a float, so k / ln(1 + k) ** m divided by zero
        const = tmp_path / "constants.json"
        const.write_text('{"m": 3000}')
        code, out, err = run_cli(["bounds", "sandwich", "--value", "1", "--constants", str(const)], capsys)
        assert (code, out, err) == (2, "", "error: sandwich: the result is past the float range\n")

    def test_unknown_evaluator(self, capsys):
        code, _, _ = run_cli(["bounds", "no-such-bound", "--value", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["bounds", "surface-kappa", "--value", "2.5"],
            ["bounds", "lens", "--value", "7.5"],
            ["bounds", "torsion", "--value", "nan"],
            ["bounds", "torsion", "--value", "inf"],
            ["bounds", "sweep"],
            ["bounds", "homology", "--value", "1"],
            # argument errors, which argparse reports
            ["bounds", "sweep", "--spec", "f"],
            ["waring", "--k", "x"],
            ["no-such-command"],
        ],
    )
    def test_rejected_input(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", ["14000", "1e9"])
    def test_group_count_large_budget(self, value, capsys):
        code, out, _ = run_cli(["bounds", "group-count", "--value", value], capsys)
        assert code == 0
        assert json.loads(out)["chain_ok"] is True


# one valid value per bounds evaluator; the key set must match the table
BOUND_SAMPLES = {
    "height": 10, "simvol": 5, "torsion": 100, "height-from-torsion": 9, "lens": 7,
    "pi1-3manifold": 100, "kappa-upper": 1, "kappa-alpha": 1, "area-from-kappa": 10,
    "sandwich": 5, "group-count": 14, "surface-kappa": 6, "abelian-kappa": 3,
}


def test_bound_samples_cover_the_table():
    assert set(BOUND_SAMPLES) == {name for name, entry in EVALUATORS.items() if list(entry.keys) == ["value"]}


@pytest.mark.parametrize("name", sorted(BOUND_SAMPLES))
def test_evaluator_table_serves_bounds_and_sweep(name, tmp_path, capsys):
    value = BOUND_SAMPLES[name]
    code, out, _ = run_cli(["bounds", name, "--value", str(value)], capsys)
    assert code == 0
    payload = json.loads(out)

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"command": name, "grid": {"value": [value]}}))
    code, out, _ = run_cli(["sweep", "--spec", str(spec)], capsys)
    assert code == 0
    header, row = csv.reader(out.strip().split("\n")[1:])
    assert header == ["value", "result", "error"]
    _, cell, error = row
    assert error == ""
    row_keys = EVALUATORS[name].row
    if row_keys is None:
        assert cell == repr(payload["value"])
    else:
        shown = json.loads(cell.replace(";", ","))
        assert list(shown) == list(row_keys)
        assert shown == {key: payload[key] for key in row_keys}

    code, out, err = run_cli(["bounds", name], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1


# a valid point of every evaluator, its keys in the declared order
VALID_POINTS = {
    **{name: {"value": value} for name, value in BOUND_SAMPLES.items()},
    "homology": {"name": "torus_7"},
    "check-torsion-bound": {"name": "torus_7"},
    "sleeve-volume": {"m": 3, "c": 7, "eps": "1/8"},
    "multiple-class-bound": {"k": 5, "C": 2.0},
    "waring": {"k": 79, "d": 4},
}
KIND_NAMES = {_caps.finite_number: "a finite number", _caps.whole_number: "a whole number",
              _caps.integer: "an integer", _caps.rational: "a rational number",
              _caps.corpus_name: "a corpus name"}
# JSON values of a type each kind refuses; a number kind refuses these
WRONG_TYPES = {
    "a corpus name": [7, 2.5, True, None, ["torus_7"], {"name": "torus_7"}],
    "a rational number": [True, False, 0.125, None, ["1/8"], {"eps": "1/8"}],
}
INEXACT = "exact: give a rational as a string or an integer"  # what a rational is not, given a boolean or a float
NOT_NUMBERS = ["5", True, False, None, [5], {"value": 5}]


def _sweep(tmp_path, capsys, command, grid):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"command": command, "grid": grid}))
    return run_cli(["sweep", "--spec", str(spec)], capsys)


def test_valid_points_cover_the_table():
    assert {name: list(point) for name, point in VALID_POINTS.items()} == {
        name: list(entry.keys) for name, entry in EVALUATORS.items()
    }


@pytest.mark.parametrize("name", sorted(VALID_POINTS))
def test_grid_keys_must_be_the_declared_ones(name, tmp_path, capsys):
    point = VALID_POINTS[name]
    code, out, err = _sweep(tmp_path, capsys, name, {key: [value] for key, value in point.items()})
    assert (code, err) == (0, "") and len(out.splitlines()) == 3
    # each key missing in turn, or misspelled where it is the only one, and one key too many
    grids = [{key: [value] for key, value in point.items() if key != left} or {left[:-1]: [value]}
             for left, value in point.items()]
    grids.append({**{key: [value] for key, value in point.items()}, "junk": [1, 2]})
    for grid in grids:
        code, out, err = _sweep(tmp_path, capsys, name, grid)
        assert (code, out) == (2, "")
        assert err == (f"error: sweep spec {tmp_path / 'spec.json'} has the grid keys "
                       f"{', '.join(map(repr, sorted(grid)))}, but {name} takes {', '.join(map(repr, point))}\n")


@pytest.mark.parametrize("name", sorted(VALID_POINTS))
def test_wrong_json_type_is_a_row_error_naming_key_and_kind(name, tmp_path, capsys):
    # Python's own TypeError or KeyError text reached these rows
    for key, kind in EVALUATORS[name].keys.items():
        wrong = WRONG_TYPES.get(KIND_NAMES[kind], NOT_NUMBERS)
        grid = {**{k: [v] for k, v in VALID_POINTS[name].items()}, key: wrong}
        code, out, err = _sweep(tmp_path, capsys, name, grid)
        assert (code, err) == (0, f"sweep finished with {len(wrong)} row errors\n")
        rows = list(csv.reader(io.StringIO(out, newline="")))[2:]
        nots = [INEXACT if kind is _caps.rational and type(value) in (bool, float) else KIND_NAMES[kind]
                for value in wrong]
        assert [row[-2:] for row in rows] == [["", f"{key} {value!r} is not {what}"] for value, what in zip(wrong, nots)]


def test_false_theorem_check_in_a_sweep_exits_1_after_every_row(tmp_path, capsys, monkeypatch):
    # both checks are theorems, so a false verdict can only be synthesised
    from systolic._record import asdict
    from systolic.homology import TriangleTorsionReport

    count = bounds.group_count_bound
    monkeypatch.setattr(bounds, "group_count_bound",
                        lambda k: bounds.GroupCountReport(**{**asdict(count(k)), "chain_ok": k != 15}))
    monkeypatch.setattr(homology_mod, "check_s2_torsion_bound", lambda _: TriangleTorsionReport(1, 99, 8.0, False))
    for name, key, values, false_rows in [("group-count", "value", [14, 15, "x", 16], 1),
                                          ("check-torsion-bound", "name", ["nope", "torus_7", "rp2_min"], 2)]:
        code, out, err = _sweep(tmp_path, capsys, name, {key: values})
        assert (code, err) == (1, "sweep finished with 1 row errors\n")
        rows = out.splitlines()[2:]
        assert [row.split(",", 1)[0] for row in rows] == list(map(str, values))
        assert sum('false}"' in row for row in rows) == false_rows


# Each value's text, as given to an option and written into a sweep spec: 2**53 + 1 and
# 10**20 + 1 lose digits as floats, and the last has 4 301 digits.
TABLE_VALUES = [str(2 ** 53 + 1), str(10 ** 20 + 1), "1e3", "2.0", "1_0", "\u0667\u0669", "NaN", "-0", "7" * 4301]
REFUSED = "refused"

# Each numeric option with a sweep key: its argv ({x} the value's text), the command function and
# the sweep builder that receive it, and the sweep's grid ({x} the value's JSON text; a rational's
# text is a JSON string in a sweep, as "1/5" is).
SWEPT_OPTIONS = {
    "waring --k": (["waring", "--k", "{x}", "--d", "4"], "cmd_waring", "_waring_count", "waring",
                   '{{"k": [{x}], "d": [4]}}'),
    "waring --d": (["waring", "--k", "79", "--d", "{x}"], "cmd_waring", "_waring_count", "waring",
                   '{{"k": [79], "d": [{x}]}}'),
    "sleeve --m": (["sleeve", "--m", "{x}", "--c", "7", "--eps", "1/5", "--graph", "g"], "cmd_sleeve",
                   "_sleeve_volume", "sleeve-volume", '{{"m": [{x}], "c": [7], "eps": ["1/5"]}}'),
    "sleeve --c": (["sleeve", "--m", "3", "--c", "{x}", "--eps", "1/5", "--graph", "g"], "cmd_sleeve",
                   "_sleeve_volume", "sleeve-volume", '{{"m": [3], "c": [{x}], "eps": ["1/5"]}}'),
    "sleeve --eps": (["sleeve", "--m", "3", "--c", "7", "--eps", "{x}", "--graph", "g"], "cmd_sleeve",
                     "_sleeve_volume", "sleeve-volume", '{{"m": [3], "c": [7], "eps": ["{x}"]}}'),
}


def _read_option(monkeypatch, capsys, argv, command, keys):
    """The values of ``keys`` that main hands the command ``command``, or REFUSED; a
    refusal is one line that names the option and echoes no long run of digits."""
    seen = {}
    monkeypatch.setattr(cli_mod, command, lambda args: seen.update({key: getattr(args, key) for key in keys}) or 0)
    code, out, err = run_cli(argv, capsys)
    if code == 0:
        return {key: (type(value), value) for key, value in seen.items()}
    flag = next(arg for arg, value in zip(argv, argv[1:]) if value in TABLE_VALUES)
    assert (code, out, seen) == (2, "", {}) and err.count("\n") == 1, err
    assert err.startswith(f"error: {flag} ") and "7" * 100 not in err, err
    return REFUSED


def _sweep_outcome(tmp_path, capsys, command, grid):
    """(exit code, its one row's result cell or REFUSED) of a sweep of ``command`` over ``grid``, a JSON text."""
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"command": "{command}", "grid": {grid}}}')
    code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and "7" * 100 not in err, err
        return code, REFUSED
    (row,) = list(csv.reader(io.StringIO(out, newline="")))[2:]
    return code, REFUSED if row[-1] else row[-2]


@pytest.mark.parametrize("text", TABLE_VALUES, ids=range(len(TABLE_VALUES)))
@pytest.mark.parametrize("option", sorted(SWEPT_OPTIONS))
def test_each_option_reads_its_value_as_its_sweep_key_does(option, text, tmp_path, capsys, monkeypatch):
    # argparse's int() read 1_0 as 10 and the Arabic-Indic digits as 79, which no sweep key takes
    argv, command, build, name, grid = SWEPT_OPTIONS[option]
    keys = list(EVALUATORS[name].keys)
    option_reads = _read_option(monkeypatch, capsys, [arg.format(x=text) for arg in argv], command, keys)
    seen = {}
    monkeypatch.setattr(evaluators_mod, build, lambda *values: seen.update(zip(keys, values)) or 0)
    _, outcome = _sweep_outcome(tmp_path, capsys, name, grid.format(x=text))
    sweep_reads = REFUSED if outcome is REFUSED else {key: (type(value), value) for key, value in seen.items()}
    assert option_reads == sweep_reads


@pytest.mark.parametrize("text", TABLE_VALUES, ids=range(len(TABLE_VALUES)))
@pytest.mark.parametrize("name", sorted(BOUND_SAMPLES))
def test_bounds_value_gives_the_sweep_row(name, text, tmp_path, capsys):
    # --value was a float, so group-count computed for 2**53 at 2**53 + 1, and exited 0
    code, out, err = run_cli(["bounds", name, "--value", text], capsys)
    sweep_code, cell = _sweep_outcome(tmp_path, capsys, name, f'{{"value": [{text}]}}')
    if code == 2:
        assert out == "" and err.count("\n") == 1 and "7" * 100 not in err, err
        assert cell is REFUSED
        return
    assert cell is not REFUSED and sweep_code == code
    payload, row = json.loads(out), EVALUATORS[name].row
    if row is None:
        assert json.loads(cell) == payload["value"]
    else:
        assert json.loads(cell.replace(";", ",")) == {key: payload[key] for key in row}


def test_height_from_torsion_reads_a_whole_number(tmp_path, capsys):
    # it read a finite number, so 2.5 gave 1.668... while 0.5 was refused as no positive integer
    for text in ("2.5", "0.5"):
        assert run_cli(["bounds", "height-from-torsion", "--value", text], capsys) == (
            2, "", f"error: value {text} is not a whole number\n")
    payload = '{\n  "name": "height-from-torsion",\n  "value": 2.0,\n  "constants": "illustrative-defaults"\n}\n'
    for text in ("3", "3.0"):
        assert run_cli(["bounds", "height-from-torsion", "--value", text], capsys) == (0, payload, "")
    code, out, err = _sweep(tmp_path, capsys, "height-from-torsion", {"value": [2.5, 3, 3.0, 9]})
    assert (code, err) == (0, "sweep finished with 1 row errors\n")
    assert out.splitlines()[2:] == ['2.5,,"value 2.5 is not a whole number"', "3,2.0,", "3.0,2.0,", "9,4.0,"]


def test_bounds_value_keeps_every_digit(capsys):
    for name, key in [("group-count", "k_budget"), ("surface-kappa", "genus"), ("abelian-kappa", "rank")]:
        code, out, _ = run_cli(["bounds", name, "--value", "9007199254740993"], capsys)
        assert (code, json.loads(out)[key]) == (0, 9007199254740993)


# Each numeric option with no sweep key: its argv, the command function and the dest it sets, and its kind.
UNSWEPT_OPTIONS = {
    "build-graph --c": (["build-graph", "--c", "{x}", "--girth", "5", "--vertices", "10"], "cmd_build_graph", "c",
                        _caps.integer),
    "build-graph --girth": (["build-graph", "--c", "3", "--girth", "{x}", "--vertices", "10"], "cmd_build_graph",
                            "girth", _caps.integer),
    "build-graph --vertices": (["build-graph", "--c", "3", "--girth", "5", "--vertices", "{x}"],
                               "cmd_build_graph", "vertices", _caps.integer),
    "build-graph --seed": (["build-graph", "--c", "3", "--girth", "5", "--vertices", "10", "--seed", "{x}"],
                           "cmd_build_graph", "seed", _caps.integer),
    "waring --limit": (["waring", "verify", "--limit", "{x}"], "cmd_waring", "limit", _caps.integer),
    "genfun --max-order": (["genfun", "detect", "--file", "f", "--max-order", "{x}"], "cmd_genfun", "max_order",
                           _caps.integer),
    "girth --edge-length": (["girth", "g", "--edge-length", "{x}"], "cmd_girth", "edge_length", _caps.rational),
}


@pytest.mark.parametrize("text", TABLE_VALUES, ids=range(len(TABLE_VALUES)))
@pytest.mark.parametrize("option", sorted(UNSWEPT_OPTIONS))
def test_option_without_a_sweep_key_reads_its_value_by_its_kind(option, text, capsys, monkeypatch):
    argv, command, dest, kind = UNSWEPT_OPTIONS[option]
    try:  # a rational's kind reads the text itself, any other kind the JSON value it spells
        value = kind(text if kind is _caps.rational else json.loads(text), option.split()[1])
        verdict = {dest: (type(value), value)}
    except ValueError:  # a text that is no JSON, or an integer literal past the digit limit
        verdict = REFUSED
    assert _read_option(monkeypatch, capsys, [arg.format(x=text) for arg in argv], command, [dest]) == verdict


def _number_in(place, text, tmp_path, capsys, monkeypatch):
    """(exit code, output, error output) of the CLI given ``text`` in ``place``."""
    petersen = str(Path(cli_mod.__file__).parent / "data" / "petersen.json")
    if place == "--eps":  # the stand-in command prints the value main read
        monkeypatch.setattr(cli_mod, "cmd_sleeve", lambda args: print(args.eps) or 0)
        return run_cli(["sleeve", "--m", "3", "--c", "7", "--eps", text, "--graph", petersen], capsys)
    if place == "--edge-length":
        return run_cli(["girth", petersen, "--edge-length", text], capsys)
    if place == "sweep eps":
        return _sweep(tmp_path, capsys, "sleeve-volume", {"m": [3], "c": [7], "eps": [text]})
    if place == "genfun term":
        path = tmp_path / "terms.json"
        path.write_text(json.dumps({"terms": ["1"] + [text] * 39}))
        return run_cli(["genfun", "detect", "--file", str(path)], capsys)
    return run_cli(["abelianize", f"a ; a^{text}"], capsys)


# Fraction, int() and the regex \d read a digit separator and every script's digits.
@pytest.mark.parametrize("text", ["1_0", "\u0667\u0669", "\u0661_\u0660/\u0663"], ids=range(3))
@pytest.mark.parametrize("place", ["--eps", "--edge-length", "sweep eps", "genfun term", "^ exponent"])
def test_a_number_is_written_in_ascii_digits(place, text, tmp_path, capsys, monkeypatch):
    # an --edge-length of Arabic-Indic digits and a separator printed "10/3", a genfun term "1_0" was 10
    # and an Arabic-Indic exponent gave Z/7, each with exit 0
    code, out, err = _number_in(place, text, tmp_path, capsys, monkeypatch)
    if place == "sweep eps":
        assert (code, err) == (0, "sweep finished with 1 row errors\n")
        assert list(csv.reader(io.StringIO(out)))[2][-2:] == ["", f"eps {text!r} is not a rational number"]
    else:
        assert (code, out) == (2, "") and err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("text, value", [("1/3", "1/3"), ("0.1", "1/10"), ("1e-1", "1/10")])
@pytest.mark.parametrize("place", ["--eps", "--edge-length", "sweep eps", "genfun term"])
def test_an_ascii_rational_reads_as_its_fraction(place, text, value, tmp_path, capsys, monkeypatch):
    outcomes = [_number_in(place, spelling, tmp_path, capsys, monkeypatch) for spelling in (text, value)]
    if place == "sweep eps":  # a row echoes its grid text before its result
        outcomes = [(code, list(csv.reader(io.StringIO(out)))[2][-2:], err) for code, out, err in outcomes]
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0


# A refusal shows a value of more than 100 characters as its first 40 and its length.
LONG_TEXT, LONG_LIST = "1x" * 3000, [7] * 2000  # 6 000 characters each, as text and as JSON


def test_a_long_option_value_is_refused_in_one_short_line(capsys):
    # the whole value was echoed: 6 049 bytes of --edge-length, 16 920 of a 3 000-entry --k
    petersen = str(Path(cli_mod.__file__).parent / "data" / "petersen.json")
    for args in (["girth", petersen, "--edge-length", LONG_TEXT],
                 ["girth", petersen, "--edge-length", "1" * 5995 + "e5000"],
                 ["waring", "--k", json.dumps(LONG_LIST), "--d", "2"]):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "") and err.count("\n") == 1 and len(err) < 200, err[:300]
        assert "... (6000 characters)" in err


@pytest.mark.parametrize("command, grid", [
    ("sleeve-volume", {"m": [3], "c": [7], "eps": [LONG_TEXT]}),
    ("sleeve-volume", {"m": [LONG_LIST], "c": [7], "eps": ["1/10"]}),
    ("multiple-class-bound", {"k": [LONG_TEXT], "C": [1]}),
    ("group-count", {"value": [LONG_LIST]}),
    ("homology", {"name": [LONG_LIST]}),
], ids=["rational", "integer", "finite number", "whole number", "corpus name"])
def test_a_long_grid_value_is_refused_in_one_short_cell(command, grid, tmp_path, capsys):
    # the row held the value twice, once as its grid text and once in the refusal
    code, out, err = _sweep(tmp_path, capsys, command, grid)
    assert (code, err) == (0, "sweep finished with 1 row errors\n")
    refusal = list(csv.reader(io.StringIO(out, newline="")))[2][-1]
    assert len(refusal) < 200 and "\n" not in refusal and "... (6000 characters)" in refusal, refusal[:300]


def test_sleeve_volume_sweep_reads_m_and_c_as_integers(tmp_path, capsys):
    # both were finite numbers, so m 3.5 and c 9.5 gave the inexact volume 6.65
    code, out, err = _sweep(tmp_path, capsys, "sleeve-volume", {"m": [3, 3.5], "c": [9.5, 7], "eps": ["1/10"]})
    assert (code, err) == (0, "sweep finished with 3 row errors\n")
    rows = list(csv.reader(io.StringIO(out, newline="")))[2:]
    # rows run over c, eps and m in turn, and each point reads m before c
    assert [row[-2:] for row in rows] == [["", "c 9.5 is not an integer"], ["", "m 3.5 is not an integer"],
                                          ["21/5", ""], ["", "m 3.5 is not an integer"]]


def test_sleeve_volume_sweep_refuses_a_float_eps(tmp_path, capsys):
    # the float 0.1 was read as its binary value, and its row gave
    # 75660473739824337/18014398509481984 in the same grid cell, 0.1, as the text's 21/5
    code, out, err = _sweep(tmp_path, capsys, "sleeve-volume", {"m": [3], "c": [7], "eps": [0.1, "0.1"]})
    assert (code, err) == (0, "sweep finished with 1 row errors\n")
    rows = list(csv.reader(io.StringIO(out, newline="")))[2:]
    assert [row[1:] for row in rows] == [
        ["0.1", "3", "", "eps 0.1 is not exact: give a rational as a string or an integer"],
        ["0.1", "3", "21/5", ""],
    ]


class TestWaringCommand:
    def test_decomposition(self, capsys):
        code, out, _ = run_cli(["waring", "--k", "79", "--d", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["parts"] == [2, 2, 2, 2] + [1] * 15

    def test_verify_mode(self, capsys):
        code, out, _ = run_cli(["waring", "verify", "--d", "4", "--limit", "100"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_count"] == 19
        assert payload["argmax"] == [79]

    @pytest.mark.parametrize("limit, message", [
        ("0", "error: limit must be a positive integer\n"),
        ("20000000", "error: limit = 20000000, past the cap (waring.CAP = 10000000)\n"),
    ])
    def test_verify_names_the_limit_it_refuses(self, limit, message, capsys):
        assert run_cli(["waring", "verify", "--limit", limit], capsys) == (2, "", message)

    def test_huge_exponent_returns_at_once(self):
        start = time.monotonic()
        done = _run_subprocess(["waring", "--k", "5", "--d", "2000000000"], 0)
        assert time.monotonic() - start < 2.0
        assert done.returncode == 0
        assert json.loads(done.stdout)["parts"] == [1] * 5

    @pytest.mark.parametrize("k, d, cap", [("3695425", "6", "waring.MAX_LIST_STEPS"),
                                          ("1000001", "40", "waring.MAX_PARTS")])
    def test_past_a_cap_is_one_line(self, k, d, cap):
        # both refusals come before the decomposition is walked or written
        done = _run_subprocess(["waring", "--k", k, "--d", d], 0)
        assert (done.returncode, done.stdout) == (2, b"")
        assert len(done.stderr.splitlines()) == 1 and cap in done.stderr.decode()

    def test_sweep_past_the_list_budget_is_one_line(self, tmp_path):
        # d = 6 ... 13 at k = 10^6: each list is inside the cap, all eight are not
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": "waring", "grid": {"k": [10 ** 6], "d": list(range(6, 14))}}))
        done = _run_subprocess(["sweep", "--spec", str(spec)], 0)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.decode() == (
            "error: the d >= 6 count lists of this request (8 of them, up to 1000000) take a step count of "
            "48293008, past the cap (waring.MAX_LIST_STEPS = 45000000)\n"
        )

    def test_sweep_at_the_list_budget(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": "waring", "grid": {"k": [2000, 703], "d": [6, 7, 3]}}))
        steps = waring._list_steps(6, 2000) + waring._list_steps(7, 2000)
        monkeypatch.setattr(waring, "_tables", {})
        monkeypatch.setattr(waring, "MAX_LIST_STEPS", steps)
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[2:] == [
            f"{d},{k},{waring.min_count(k, d)}," for d in (6, 7, 3) for k in (2000, 703)
        ]
        monkeypatch.setattr(waring, "_tables", {})
        monkeypatch.setattr(waring, "MAX_LIST_STEPS", steps - 1)
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: the d >= 6 count lists of this request") and err.count("\n") == 1
        assert waring._tables == {}  # refused before any table is built

    def test_sweep_rows(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": "waring", "grid": {"k": [5, 10.5, True], "d": [2.5, 2000000000]}}))
        code, out, _ = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 0
        rows = {tuple(row.split(",")[:2]): row.split(",", 2)[2]
                for row in out.splitlines()[2:]}
        # k is read first, as min_count takes it
        assert rows == {
            ("2.5", "5"): ',"d 2.5 is not an integer"',
            ("2.5", "10.5"): ',"k 10.5 is not an integer"',
            ("2.5", "true"): ',"k True is not an integer"',
            ("2000000000", "5"): "5,",
            ("2000000000", "10.5"): ',"k 10.5 is not an integer"',
            ("2000000000", "true"): ',"k True is not an integer"',
        }


class TestGenfunCommand:
    def test_detect_from_file(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"terms": ["3/2"] * 40}))
        code, out, _ = run_cli(
            ["genfun", "detect", "--file", str(seq_file), "--max-order", "4"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["order"] == 1

    @pytest.mark.parametrize("term, shown", [("true", "True"), ("false", "False"), ("0.1", "0.1"), ("3.0", "3.0")])
    def test_inexact_term_is_refused(self, term, shown, tmp_path, capsys):
        # a JSON boolean was read as 0 or 1 and a float as its binary value
        seq_file = tmp_path / "seq.json"
        seq_file.write_text('{"terms": ["3/2", 2, ' + term + "]}")
        code, out, err = run_cli(
            ["genfun", "detect", "--file", str(seq_file), "--max-order", "1"], capsys
        )
        assert (code, out) == (2, "")
        assert err == (f"error: sequence file {seq_file}: term {shown} is not exact: "
                       "give a rational as a string or an integer\n")

    @pytest.mark.parametrize("term, shown", [("null", "None"), ('"1/0"', "'1/0'"), ('"abc"', "'abc'"),
                                             ("[1]", "[1]"), ("{}", "{}")])
    def test_unreadable_term_is_refused(self, term, shown, tmp_path, capsys):
        # RationalSequence.from_values names the term, as the CLI did before
        # it built the sequence through it
        seq_file = tmp_path / "seq.json"
        seq_file.write_text('{"terms": ["3/2", 2, ' + term + "]}")
        code, out, err = run_cli(
            ["genfun", "detect", "--file", str(seq_file), "--max-order", "1"], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: sequence file {seq_file}: term {shown} is not a rational number\n"

    def test_integer_terms_are_accepted(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.json"
        seq_file.write_text(json.dumps({"terms": [2, "1/2"] * 20}))
        code, out, _ = run_cli(
            ["genfun", "detect", "--file", str(seq_file), "--max-order", "2"], capsys
        )
        assert code == 0
        assert json.loads(out)["order"] == 2

    def test_coefficient_growth_is_refused_at_the_cap(self, tmp_path, capsys):
        # 1/2, 1/3, ..., 1/p_204: uncapped, the synthesis ran 98 s and its
        # coefficients reached 175 241 bits each
        primes = [p for p in range(2, 1250) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
        seq_file = tmp_path / "primes.json"
        seq_file.write_text(json.dumps({"terms": [f"1/{p}" for p in primes[:204]]}))
        assert seq_file.stat().st_size == 1854
        start = time.monotonic()
        code, out, err = run_cli(
            ["genfun", "detect", "--file", str(seq_file), "--max-order", "100"], capsys
        )
        assert time.monotonic() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "genfun.MAX_COEFFICIENT_BITS" in err

    def test_long_sparse_sequence_is_refused_at_the_step_cap(self, tmp_path, capsys):
        # 0/1 terms with their ones at the powers of two: the coefficients stay
        # small, and uncapped the synthesis ran 9.2 s
        terms = [int(k & (k - 1) == 0) for k in range(1, 16_001)]
        seq_file = tmp_path / "powers.json"
        seq_file.write_text(json.dumps({"terms": terms}, separators=(",", ":")))
        start = time.monotonic()
        code, out, err = run_cli(
            ["genfun", "detect", "--file", str(seq_file), "--max-order", "7998"], capsys
        )
        assert time.monotonic() - start < 5.0
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "genfun.MAX_STEP_WORK" in err


class TestCorpusCommand:
    def test_lists_required_entries(self, capsys):
        code, out, _ = run_cli(["corpus", "--format", "csv"], capsys)
        assert code == 0
        assert "rp2_min" in out
        assert "petersen" in out
        assert len(out.strip().split("\n")) >= 3

    def test_csv_cells_read_back_as_the_entries(self, capsys):
        # one quoting rule: a provenance is quoted only when it holds a comma
        code, out, _ = run_cli(["corpus", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[2:]
        assert rows == [[e.name, e.kind, e.provenance] for e in corpus_list()]
        assert "\npinched_spheres,complex,Two tetrahedron boundaries sharing" in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(["corpus", "--format", "json"], capsys)
        names = {entry["name"] for entry in json.loads(out)}
        assert {"rp2_min", "petersen"} <= names
        assert code == 0

    def test_corpus_list_nonempty(self):
        assert corpus_list()


class TestSweep:
    def test_homology_sweep_rows(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "command": "check-torsion-bound",
            "grid": {"name": ["rp2_min", "sphere_delta3", "torus_7"]},
        }))
        code, out, _ = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 0
        rows = list(csv.reader(line for line in out.strip().split("\n") if not line.startswith("#")))
        assert rows[0] == ["name", "result", "error"]
        assert len(rows) == 4
        assert all('"holds":true' in row[1] for row in rows[1:])

    def test_sleeve_grid(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "command": "sleeve-volume",
            "grid": {"m": [3], "c": [7], "eps": ["1/8", "1/10", "1/12"]},
        }))
        code, out, _ = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 0
        data_rows = [line for line in out.strip().split("\n") if not line.startswith("#")][1:]
        assert [row.split(",")[3] for row in data_rows] == ["21/4", "21/5", "7/2"]

    def test_empty_grid_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": "waring", "grid": {}}))
        code, _, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 2

    def test_unreadable_spec_exit_2(self, capsys):
        code, _, _ = run_cli(["sweep", "--spec", "/nonexistent/spec.json"], capsys)
        assert code == 2

    def test_bounds_sweep_surface(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "command": "surface-kappa",
            "grid": {"value": [1, 2, 6]},
        }))
        code, out, _ = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 0
        rows = list(csv.reader(line for line in out.strip().split("\n") if not line.startswith("#")))[1:]
        assert [row[1] for row in rows] == [
            '{"lower":"4/3";"upper":14}', '{"lower":"8/3";"upper":24}', '{"lower":"8";"upper":44}'
        ]
        # a cell holding quotes is quoted, with each of its quotes doubled
        assert out.splitlines()[2] == '1,"{""lower"":""4/3"";""upper"":14}",'

    @pytest.mark.parametrize(
        "spec_doc",
        [
            {"command": "no-such-command", "grid": {"value": [1, 2]}},
            {"command": "waring", "grid": {"k": "79"}},
            ["waring"],
        ],
    )
    def test_bad_spec_exit_2(self, spec_doc, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_doc))
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("field", ["out", "constants"])
    @pytest.mark.parametrize("value", [5, ["x.csv"], {"path": "x"}, True])
    def test_non_string_path_field_exit_2(self, field, value, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": "height", "grid": {"value": [5]}, field: value}))
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and field in err and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize(
        "command, value", [("surface-kappa", 2.5), ("lens", 7.5), ("torsion", float("nan"))]
    )
    def test_invalid_value_is_row_error(self, command, value, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": command, "grid": {"value": [value, 7]}}))
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 0
        bad, good = out.strip().split("\n")[2:]
        assert bad.split(",")[1] == "" and bad.split(",")[2]
        assert good.split(",")[1] != "" and good.split(",")[2] == ""
        assert "1 row errors" in err

    def test_grid_past_the_cap_is_refused_at_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(bounds, "multiple_class_bound", lambda *point: calls.append(point))
        spec = tmp_path / "spec.json"
        # 3 * 66 667 = MAX_SWEEP_POINTS + 1
        spec.write_text(json.dumps({
            "command": "multiple-class-bound",
            "grid": {"k": [1, 2, 3], "C": list(range(1, 66668))},
        }))
        start = time.perf_counter()
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out, calls) == (2, "", [])
        assert len(err.splitlines()) == 1 and str(evaluators_mod.MAX_SWEEP_POINTS) in err

    def test_grid_at_the_cap_is_accepted(self, tmp_path, capsys, monkeypatch):
        assert evaluators_mod.MAX_SWEEP_POINTS == 200_000
        calls = []
        monkeypatch.setattr(bounds, "multiple_class_bound", lambda *point: calls.append(point) or 1.5)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "command": "multiple-class-bound", "grid": {"k": [1, 2], "C": list(range(100_000))},
        }))
        out_file = tmp_path / "rows.csv"
        code, out, err = run_cli(["sweep", "--spec", str(spec), "--out", str(out_file)], capsys)
        assert (code, out, err) == (0, "", "")
        assert len(calls) == 200_000
        lines = out_file.read_text().splitlines()
        assert len(lines) == 2 + 200_000 and lines[-1] == "99999,2,1.5,"

    def test_constants_and_seed_in_the_comment(self, tmp_path, capsys):
        const = tmp_path / "constants.json"
        const.write_text('{"m": 2}')
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": "height", "grid": {"value": [5]}, "seed": 9}))
        out_file = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            ["sweep", "--spec", str(spec), "--constants", str(const), "--out", str(out_file)], capsys
        )
        assert (code, out) == (0, "")
        comment = out_file.read_text().splitlines()[0]
        assert comment == f"# systolic {__version__} seed=9 command=height constants={const}"

    @pytest.mark.parametrize("seed", ["7\nx,y,z", "7", True, 7.0, None, {"a": 1}, [7]])
    def test_seed_that_is_not_an_integer_is_refused(self, seed, tmp_path, capsys):
        # a text seed was written raw into the comment, and its line break
        # put a data row above the header
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": "height", "grid": {"value": [2, 3]}, "seed": seed}))
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: sweep spec {spec} seed {seed!r} is not an integer\n"

    def test_rows_are_written_as_they_are_made(self, tmp_path, capsys):
        def peak(points):
            spec = tmp_path / "spec.json"
            grid = {"k": list(range(1, 201)), "C": list(range(1, points // 200 + 1))}
            spec.write_text(json.dumps({"command": "multiple-class-bound", "grid": grid}))
            tracemalloc.start()
            code = main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "rows.csv")])
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert code == 0
            assert len((tmp_path / "rows.csv").read_text().splitlines()) == 2 + points
            return peak

        peak(2_000)  # first use: imports and caches
        assert peak(20_000) < 2 * peak(2_000)

    @pytest.mark.parametrize("command, evaluator", [("homology", "homology"),
                                                    ("check-torsion-bound", "check_s2_torsion_bound")])
    def test_each_corpus_name_is_evaluated_once(self, command, evaluator, tmp_path, capsys, monkeypatch):
        calls = []
        evaluate = getattr(homology_mod, evaluator)
        monkeypatch.setattr(homology_mod, evaluator, lambda complex_: calls.append(complex_) or evaluate(complex_))
        names = ["torus_7", "rp2_min", "no_such_complex", 7, ["torus_7"], None] * 50
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": command, "grid": {"name": names}}))
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 0 and err == "sweep finished with 200 row errors\n"
        assert len(calls) == 2  # once for torus_7, once for rp2_min
        rows = out.splitlines()[2:]
        assert rows[6:] == rows[:6] * 49
        # a name that is no corpus name keeps its error at every row
        have = "have ('rp2_min', 'sphere_delta3', 'torus_7', 'moebius_band', 'pinched_spheres')"
        assert rows[2:6] == [
            f'no_such_complex,,"unknown corpus complex \'no_such_complex\'; {have}"',
            '7,,"name 7 is not a corpus name"',
            '[\'torus_7\'],,"name [\'torus_7\'] is not a corpus name"',
            'None,,"name None is not a corpus name"',
        ]

    def test_rows_read_back_as_csv(self, tmp_path, capsys):
        # a grid value, result or error holding a comma, a quote or a line
        # break is quoted with its quotes doubled (RFC 4180), so csv.reader
        # reads each row back with one cell per column and every text exact
        names = ["torus_7", "no_such_complex", 'a "quoted", name', "two\nlines", ["torus_7", "rp2_min"],
                 {"a": 1, "b": 2}, 7]
        sweeps = [  # each grid's keys in sorted order, and the points that give a result
            ("homology", {"name": names}, [(("torus_7",), '{"betti":[1;2;1]}')]),
            ("sleeve-volume", {"c": [7, "7,8"], "eps": [[1, 2], "x,y", 'say "hi"', "1/8"], "m": [3]},
             [((7, "1/8", 3), "21/4")]),
        ]
        spec, constants = tmp_path / "spec.json", bounds.BoundConstants()
        for command, grid, results in sweeps:
            spec.write_text(json.dumps({"command": command, "grid": grid}))
            code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
            points = list(itertools.product(*grid.values()))
            assert code == 0 and err == f"sweep finished with {len(points) - len(results)} row errors\n"
            header, *rows = list(csv.reader(io.StringIO(out, newline="")))[1:]
            assert header == [*grid, "result", "error"]
            assert len(rows) == len(points)
            for point, row in zip(points, rows):
                expected = next(([cell, ""] for shown, cell in results if shown == point), None)
                if expected is None:
                    with pytest.raises(ValueError) as refusal:
                        EVALUATORS[command](dict(zip(grid, point)), constants)
                    expected = ["", str(refusal.value)]
                assert row == [*map(str, point), *expected]
            if command == "homology":
                assert out.splitlines()[2] == 'torus_7,"{""betti"":[1;2;1]}",'

    def test_each_grid_value_is_formatted_once(self, tmp_path, capsys, monkeypatch):
        formatted = []
        cell = evaluators_mod.csv_cell
        monkeypatch.setattr(evaluators_mod, "csv_cell", lambda value: formatted.append(value) or cell(value))
        big = 10 ** 4000
        grid = {"C": list(range(500)), "k": [big, 7, True]}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"command": "multiple-class-bound", "grid": grid}))
        code, out, _ = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 0 and len(out.splitlines()) == 2 + 3 * 500
        # the grid's keys are sorted: C, then k
        assert formatted == [*grid["C"], *grid["k"]]
        assert out.splitlines()[2].startswith(f"0,{big},")

    def test_row_error_does_not_abort(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "command": "check-torsion-bound",
            "grid": {"name": ["rp2_min", "no_such_complex", "torus_7"]},
        }))
        code, out, err = run_cli(["sweep", "--spec", str(spec)], capsys)
        assert code == 0
        rows = [line for line in out.strip().split("\n") if not line.startswith("#")][1:]
        assert len(rows) == 3
        assert "1 row errors" in err


MALFORMED_INPUTS = {
    "homology": [
        '{"facets": [["a", "b", "c"]]}',
        '{"facets": [[0, 1, 2.5]]}',
        '{"facets": [[0, 2, true]]}',
        '{"vertices": "4", "facets": [[0, 1, 2]]}',
        '{"vertices": -5, "facets": [[0, 1, 2]]}',
        "5",
    ],
    "girth": ['{"n": "4", "edges": [[0, 1]]}', '{"n": 4, "edges": [[0, 1.5]]}'],
    "genfun": ['{"terms": ["1", "1/0", "2"]}', '["1", "2"]', '{"terms": "123456789"}'],
}


# the kind of file each command of _command reads, as its refusals name it
FILE_LABELS = {"homology": "complex", "check-torsion-bound": "complex", "girth": "graph", "genfun": "sequence",
               "sweep": "sweep spec", "bounds": "constants"}
# each bad file's bytes, and the rest of its refusal after the file's name
BAD_FILES = {
    "long literal": (b'{"n": ' + b"1" * 5000 + b"}",
                     "has an integer literal with a digit count of 5000, past the cap (_caps.MAX_DIGITS = 4300)"),
    "syntax": (b'{"n": 1\n"edges": []}', "is not valid JSON: Expecting ',' delimiter: line 2 column 1 (char 8)"),
    "bytes": (b"\xff\xfe", "is not UTF-8 text"),
    "nesting": (b"[" * 100_000 + b"]" * 100_000, "is nested too deeply"),
    "array": (b"[1, 2]", "must hold a JSON object"),
}


def _command(kind, path, eps="1/3"):
    if kind == "genfun":
        return ["genfun", "detect", "--file", path, "--max-order", "1"]
    if kind == "sleeve":
        return ["sleeve", "--m", "3", "--c", "7", "--eps", eps, "--graph", path]
    if kind == "bounds":
        return ["bounds", "simvol", "--value", "10", "--constants", path]
    if kind == "sweep":
        return ["sweep", "--spec", path]
    return [kind, path]


# every option and positional of each subcommand; the top-level parser takes none
CLI_SURFACE = {
    "homology": {"--out", "--format", "--corpus", "inputs"},
    "check-torsion-bound": {"--out", "--corpus", "inputs"},
    "abelianize": {"--out", "presentation"},
    "girth": {"--out", "--edge-length", "graph"},
    "build-graph": {"--out", "--c", "--girth", "--vertices", "--seed"},
    "sleeve": {"--out", "--m", "--c", "--eps", "--graph"},
    "bounds": {"--out", "--constants", "--value", "name"},
    "waring": {"--out", "--k", "--d", "--limit", "mode"},
    "genfun": {"--out", "--file", "--max-order", "mode"},
    "corpus": {"--out", "--format"},
    "sweep": {"--out", "--constants", "--spec"},
}


def _settable(parser):
    """The parser's actions other than help, version and the subcommand choice."""
    return [
        action for action in parser._actions
        if not isinstance(action, (argparse._HelpAction, argparse._VersionAction, argparse._SubParsersAction))
    ]


def test_each_option_is_declared_on_the_commands_that_read_it():
    parser = cli_mod.build_parser()
    assert _settable(parser) == []
    assert {s for action in parser._actions for s in action.option_strings} == {"-h", "--help", "--version"}
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {(action.option_strings or [action.dest])[0] for action in _settable(sub)}
        for name, sub in commands.items()
    }
    assert surface == CLI_SURFACE
    assert sum(map(len, surface.values())) == 40


# an argv that each command runs with, its handler stubbed
RUNS = {
    "homology": ["--corpus"],
    "check-torsion-bound": ["--corpus"],
    "abelianize": ["a ; a^2"],
    "girth": ["g.json", "--edge-length", "1/8"],
    "build-graph": ["--c", "3", "--girth", "5", "--vertices", "10"],
    "sleeve": ["--m", "3", "--c", "7", "--eps", "1/5", "--graph", "g.json"],
    "bounds": ["height", "--value", "5"],
    "waring": ["--k", "79", "--d", "4"],
    "genfun": ["detect", "--file", "s.json"],
    "corpus": ["--format", "csv"],
    "sweep": ["--spec", "s.json"],
}


def _built_subparsers(monkeypatch, capsys, argv):
    """The subparsers main builds for ``argv``, and its exit code."""
    built = []
    add_parser = argparse._SubParsersAction.add_parser
    with monkeypatch.context() as patch:
        patch.setattr(argparse._SubParsersAction, "add_parser",
                      lambda action, name, **kwargs: built.append(name) or add_parser(action, name, **kwargs))
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
    capsys.readouterr()
    return built, code


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_command_builds_its_own_subparser_alone(name, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli_mod, "cmd_" + name.replace("-", "_"), lambda args: ran.append(args.command) or 0)
    assert _built_subparsers(monkeypatch, capsys, [name, *RUNS[name]]) == ([name], 0)
    assert ran == [name]


@pytest.mark.parametrize("argv, code", [(["-h"], 0), (["--version"], 0), (["foo"], 2), ([], 2)])
def test_help_version_and_an_unknown_command_build_every_subparser(argv, code, monkeypatch, capsys):
    assert _built_subparsers(monkeypatch, capsys, argv) == (list(cli_mod.COMMANDS), code)


def test_each_command_has_one_handler():
    handlers = {name for name in vars(cli_mod) if name.startswith("cmd_")}
    assert handlers == {"cmd_" + name.replace("-", "_") for name in cli_mod.COMMANDS}
    assert set(RUNS) == set(cli_mod.COMMANDS)


MISPLACED_OPTIONS = [
    (["--out", "{tmp}/F", "corpus"],
     "--out goes after the subcommand name, as in 'systolic corpus --out ...'"),
    (["--seed", "7", "build-graph", "--c", "3", "--girth", "5", "--vertices", "10"],
     "--seed goes after the subcommand name, as in 'systolic build-graph --seed ...'"),
    (["girth", "{petersen}", "--format", "csv"], "unrecognized arguments: --format csv"),
    (["abelianize", "a ; a^2", "--constants", "{tmp}/C"], "unrecognized arguments: --constants"),
    (["sweep", "--spec", "{tmp}/spec.json"], "has unknown key 'out'"),
    (["--out={tmp}/F", "homology", "--corpus"],
     "--out goes after the subcommand name, as in 'systolic homology --out ...'"),
    (["--corpus", "homology"],
     "--corpus goes after the subcommand name, as in 'systolic homology --corpus ...'"),
    (["--bogus", "corpus"], "unrecognized arguments: --bogus"),
    (["--bogus", "--out", "{tmp}/F", "corpus"],
     "--out goes after the subcommand name, as in 'systolic corpus --out ...'"),
    (["waring", "verify", "--limit", "100", "--k", "5", "--d", "4"],
     "--k does not apply to 'waring verify'"),
    (["waring", "--k", "79", "--d", "4", "--limit", "5"], "--limit applies only to 'waring verify'"),
    # a prefix of an option is no spelling of it
    (["waring", "verify", "--lim", "1000"], "unrecognized arguments: --lim 1000"),
    (["waring", "--k", "7", "--d", "2", "--o", "{tmp}/F"], "argument mode: invalid choice: "),
    (["bounds", "height", "--val", "5"], "the following arguments are required: --value"),
    (["--ver"], "the following arguments are required: command"),
    (["--ver", "corpus"], "unrecognized arguments: --ver"),
    # the value of --out is no command: it named 'homology'
    (["--out", "homology", "corpus"],
     "--out goes after the subcommand name, as in 'systolic corpus --out ...'"),
]


@pytest.mark.parametrize(
    "args, message", MISPLACED_OPTIONS, ids=[f"args{i}" for i in range(len(MISPLACED_OPTIONS))]
)
def test_option_on_a_command_that_does_not_read_it_is_refused(args, message, tmp_path, capsys):
    (tmp_path / "spec.json").write_text(
        json.dumps({"command": "height", "grid": {"value": [5]}, "out": str(tmp_path / "F")})
    )
    petersen = Path(cli_mod.__file__).parent / "data" / "petersen.json"
    argv = [arg.format(tmp=tmp_path, petersen=petersen) for arg in args]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert message in err
    assert not (tmp_path / "F").exists()


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([flag])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: systolic" if flag == "--help" else "systolic ")


class TestMalformedInput:
    @pytest.mark.parametrize(
        "kind, text", [(kind, text) for kind, texts in MALFORMED_INPUTS.items() for text in texts]
    )
    def test_exit_2_with_one_line(self, kind, text, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = run_cli(_command(kind, str(path)), capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("kind, text, refusal", [
        ("homology", '{"facets": [[0, 1, "x"]]}', "facet [0, 1, 'x'] is not a list of integer vertex ids"),
        ("homology", '{"facets": [[0, 1, 2]], "vertices": -1}',
         "vertex_count smaller than largest vertex id used"),
        ("girth", '{"n": 4, "edges": [[0, 1.5]]}', "edge [0, 1.5] is not a pair of integers"),
        ("girth", '{"n": 4, "edges": [[0, 1], [1, 0]]}', "duplicate edge (0, 1)"),
        ("genfun", '{"terms": "123456789"}', "'terms' must be a list"),
        ("genfun", '{"terms": [1, 2, "x"]}', "term 'x' is not a rational number"),
    ], ids=["facet", "vertices", "edge", "duplicate edge", "terms", "term"])
    def test_field_refusal_names_the_file(self, kind, text, refusal, tmp_path, capsys):
        # the refusal did not say which file, so with several inputs the bad
        # one could not be told
        good, bad = tmp_path / "good.json", tmp_path / "badf.json"
        good.write_text('{"facets": [[0, 1, 2]]}')
        bad.write_text(text)
        command = _command(kind, str(bad))
        if kind == "homology":
            command[1:] = [str(good), str(bad)]
        label = FILE_LABELS[kind]
        code, out, err = run_cli(command, capsys)
        assert (code, out, err) == (2, "", f"error: {label} file {bad}: {refusal}\n")

    @pytest.mark.parametrize("command", [["corpus", "--out", ""],
                                         ["bounds", "sandwich", "--value", "10", "--constants", ""]],
                             ids=["out", "constants"])
    def test_empty_path_is_refused_as_a_file_that_cannot_be_opened(self, command, capsys):
        # --out "" wrote to stdout and --constants "" used the defaults, exit 0
        code, out, err = run_cli(command, capsys)
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    @pytest.mark.parametrize("kind", ["homology", "check-torsion-bound", "girth", "genfun", "sweep", "bounds"])
    def test_deeply_nested_json(self, kind, tmp_path, capsys):
        # the JSON decoder recursed into a RecursionError, which exited 1
        path = tmp_path / "input.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(_command(kind, str(path)), capsys)
        assert (code, out, err) == (2, "", f"error: {FILE_LABELS[kind]} file {path} is nested too deeply\n")

    @pytest.mark.parametrize("label", sorted(set(FILE_LABELS.values())))
    @pytest.mark.parametrize("content, refusal", BAD_FILES.values(), ids=BAD_FILES)
    def test_bad_file_of_each_kind_is_one_line_naming_it(self, label, content, refusal, tmp_path, capsys):
        # a syntax error and undecodable bytes printed the decoder's text alone, a
        # literal past the digit limit Python's own, and an array the reader's
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        command = FUZZ_FILES[label][1][0]  # the first command that reads a file of this kind
        code, out, err = run_cli([arg.format(file=path) for arg in command], capsys)
        assert (code, out, err) == (2, "", f"error: {label} file {path} {refusal}\n")

    def test_unrepresentable_eps(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps({"n": 26, "edges": [[i, (i + 1) % 26] for i in range(26)]}))
        code, out, err = run_cli(
            ["sleeve", "--m", "3", "--c", "7", "--eps", "1/0", "--graph", str(graph)], capsys
        )
        assert (code, out) == (2, "")
        assert "--eps" in err and len(err.splitlines()) == 1


_small = st.integers(0, 12)
_junk = st.none() | st.booleans() | st.floats() | st.sampled_from(["", "a", "1/0", "3/2", "-7"])
_any_json = st.recursive(
    st.integers(-5, 50) | _junk,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(["facets", "vertices", "n", "edges", "terms", "m", "x"]), inner, max_size=3),
    max_leaves=24,
)
# well-shaped documents, so that random input also reaches the computations
_SHAPED = {
    "homology": st.fixed_dictionaries(
        {"facets": st.lists(st.lists(_small, min_size=1, max_size=4), max_size=5)}, optional={"vertices": _small}
    ),
    "girth": st.fixed_dictionaries(
        {"n": st.integers(13, 20), "edges": st.sets(st.tuples(_small, _small).filter(lambda e: e[0] < e[1]), max_size=10).map(sorted)}
    ),
    "genfun": st.fixed_dictionaries(
        {"terms": st.lists(_small | st.sampled_from(["3/2", "-7", "1/3"]), min_size=6, max_size=12)}
    ),
    # the empty graph is 0-regular and c-regular alike; K_8 is 7-regular
    "sleeve": st.fixed_dictionaries(
        {"n": _small, "edges": st.sets(st.tuples(_small, _small).filter(lambda e: e[0] < e[1]), max_size=30).map(sorted)}
    ) | st.just({"n": 8, "edges": [[u, v] for u in range(8) for v in range(u + 1, 8)]}),
    "bounds": st.fixed_dictionaries(
        {"m": st.integers(-2, 10**4)}, optional={"cm": st.integers(-1, 5) | st.floats(0.1, 1e6)}
    ),
}


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_SHAPED)), data=st.data())
def test_random_json_exits_0_or_2(kind, data, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data.draw(_SHAPED[kind] | _any_json)))
    eps = data.draw(st.sampled_from(["1/3", "1/10"]))
    code, _, err = run_cli(_command(kind, str(path), eps), capsys)
    assert code in (0, 2)
    assert code == 0 or len(err.splitlines()) == 1


# The seeded fuzz: a valid document of each file kind with the commands that
# read it ({file}), and each numeric option with the command around it ({x}).
# Every node of each document is mutated; in a sweep spec of each other
# evaluator, its grid values.
FUZZ_SPECS = {name: {"command": name, "grid": {key: [value] for key, value in point.items()}, "seed": 1}
              for name, point in VALID_POINTS.items()}
FUZZ_FILES = {
    "complex": ({"vertices": 3, "facets": [[0, 1, 2]]},
                [["homology", "{file}"], ["homology", "{file}", "--format", "csv"], ["check-torsion-bound", "{file}"]]),
    "graph": ({"n": 3, "edges": [[0, 1], [1, 2]]},
              [["girth", "{file}", "--edge-length", "1/3"], ["sleeve", "--m", "3", "--c", "2", "--eps", "1/5",
                                                             "--graph", "{file}"]]),
    "sequence": ({"terms": ["1", "2", "3"]}, [["genfun", "detect", "--file", "{file}", "--max-order", "1"]]),
    "constants": ({"m": 2, "cm": 1.5, "pair_upper": 3.0},
                  [["bounds", "sandwich", "--value", "10", "--constants", "{file}"],
                   ["sweep", "--spec", "{spec}", "--constants", "{file}"]]),
    "sweep spec": (FUZZ_SPECS["sleeve-volume"], [["sweep", "--spec", "{file}"]]),
}
FUZZ_OPTIONS = [
    ["build-graph", "--c", "{x}", "--girth", "5", "--vertices", "10"],
    ["build-graph", "--c", "3", "--girth", "{x}", "--vertices", "10"],
    ["build-graph", "--c", "3", "--girth", "5", "--vertices", "{x}"],
    ["build-graph", "--c", "3", "--girth", "5", "--vertices", "10", "--seed", "{x}"],
    ["sleeve", "--m", "{x}", "--c", "7", "--eps", "1/5", "--graph", "{graph}"],
    ["sleeve", "--m", "3", "--c", "{x}", "--eps", "1/5", "--graph", "{graph}"],
    ["sleeve", "--m", "3", "--c", "7", "--eps", "{x}", "--graph", "{graph}"],
    ["girth", "{graph}", "--edge-length", "{x}"],
    ["bounds", "group-count", "--value", "{x}"],
    ["bounds", "torsion", "--value", "{x}"],
    ["waring", "--k", "{x}", "--d", "4"],
    ["waring", "--k", "79", "--d", "{x}"],
    ["waring", "verify", "--limit", "{x}"],
    ["genfun", "detect", "--file", "{sequence}", "--max-order", "{x}"],
]
FUZZ_VALUES = [10 ** 400, -10 ** 400, True, None, "", "1/0", [], [1], {"a": 1}, 0, -1, 3000, 2.5, float("nan")]
FUZZ_TEXTS = ["1" + "0" * 400, "-" + "9" * 400, "0", "-1", "2.5", "nan", "1e400", "", "x", "1/0", " 7 ", "\u0663",
              "1_0", "\u0667\u0669", "2.0", "1e3", "-0", "NaN", "Infinity", '"7"', "9" * 4301]


def _nodes(document, path=()):
    """(path, node) of each node of a JSON document, the document itself first."""
    yield path, document
    items = document.items() if isinstance(document, dict) else enumerate(document) if isinstance(document, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _mutant(document, path, value, new_key=False):
    """``document`` with the node at ``path`` replaced by ``value``, or, with
    ``new_key``, with ``value`` under a new key "junk" of the object there."""
    if not (path or new_key):
        return value
    document = json.loads(json.dumps(document))
    node = document
    for key in path if new_key else path[:-1]:
        node = node[key]
    node["junk" if new_key else path[-1]] = value
    return document


def test_seeded_fuzz_of_every_file_kind_and_numeric_option(tmp_path, capsys):
    # main catches only OSError, ValueError and RecursionError as bad input,
    # so any other exception an input reaches fails here as a traceback
    rng = random.Random(31)
    paths = {"graph": tmp_path / "graph.json", "sequence": tmp_path / "sequence.json", "spec": tmp_path / "spec.json"}
    circulant = {tuple(sorted((i, (i + d) % 26))) for i in range(26) for d in (1, 2, 3, 13)}
    paths["graph"].write_text(json.dumps({"n": 26, "edges": sorted(map(list, circulant))}))
    paths["sequence"].write_text(json.dumps(FUZZ_FILES["sequence"][0]))
    paths["spec"].write_text(json.dumps({"command": "sandwich", "grid": {"value": [1, 10]}}))
    runs = [[arg.format(x=text, **paths) for arg in args] for args in FUZZ_OPTIONS for text in FUZZ_TEXTS]
    documents = [(_mutant(spec, ("grid", key, 0), value), [["sweep", "--spec", "{file}"]])
                 for spec in FUZZ_SPECS.values() for key in spec["grid"] for value in FUZZ_VALUES]
    for document, commands in FUZZ_FILES.values():
        # every node replaced by each value, a new key in each object, and pairs of mutations
        nodes = list(_nodes(document))
        documents += [(_mutant(document, path, value), commands) for path, _ in nodes for value in FUZZ_VALUES]
        documents += [(_mutant(document, path, rng.choice(FUZZ_VALUES), new_key=True), commands)
                      for path, node in nodes if isinstance(node, dict)]
        for _ in range(5):
            once = _mutant(document, rng.choice(nodes)[0], rng.choice(FUZZ_VALUES))
            documents.append((_mutant(once, rng.choice(list(_nodes(once)))[0], rng.choice(FUZZ_VALUES)), commands))
    for number, (document, commands) in enumerate(documents):
        path = tmp_path / f"{number}.json"
        path.write_text(json.dumps(document))
        runs.append([arg.format(file=path, **paths) for arg in rng.choice(commands)])
    assert len(runs) > 900
    for argv in runs:
        code, _, err = run_cli(argv, capsys)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


def _run_subprocess(args, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    return subprocess.run(
        [sys.executable, "-m", "systolic.cli", *args],
        capture_output=True,
        env=env,
        check=False,
    )


class TestInvariantViolationExitCode:
    def test_failed_theorem_check_exits_one(self, capsys, monkeypatch):
        # the bound is a theorem, so a false verdict can only be synthesised
        from systolic.homology import TriangleTorsionReport

        monkeypatch.setattr(
            homology_mod,
            "check_s2_torsion_bound",
            lambda _: TriangleTorsionReport(1, 99, 8.0, False),
        )
        code, out, _ = run_cli(["check-torsion-bound", "--corpus"], capsys)
        assert code == 1
        assert "false" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["corpus", "--format", "csv"],
            ["homology", "--corpus", "--format", "csv"],
            ["check-torsion-bound", "--corpus"],
            ["build-graph", "--c", "3", "--girth", "5", "--vertices", "10", "--seed", "11"],
            ["waring", "--k", "625", "--d", "4"],
            ["abelianize", "a,b,c ; [a,b]c^-7, [a,c], [b,c]"],
        ],
    )
    def test_byte_identical_across_runs_and_hash_seeds(self, args):
        first = _run_subprocess(args, hashseed=0)
        second = _run_subprocess(args, hashseed=0)
        third = _run_subprocess(args, hashseed=42)
        assert first.returncode == second.returncode == third.returncode == 0
        assert first.stdout == second.stdout == third.stdout
        if args[0] == "build-graph":
            oracles.check_regular_girth(graphs.load_graph(first.stdout), 3, 5)


# Runs one command in a fresh interpreter and writes, as the last line of
# stderr, its exit code and the systolic modules it loaded, with dataclasses
# and inspect among them if it loaded those.
_LOADED_MODULES = """
import json, sys
from systolic.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
modules = sorted(name for name in sys.modules
                 if name.split(".")[0] in ("systolic", "dataclasses", "inspect", "fractions"))
sys.stderr.write("\\n" + json.dumps({"code": code, "modules": modules}) + "\\n")
"""


# python -m systolic.cli ARGS: runpy runs cli.py as __main__
_RUN_AS_MAIN = """
import json, runpy, sys
sys.argv = ["systolic", *sys.argv[1:]]
try:
    runpy.run_module("systolic.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
modules = sorted(name.removeprefix("systolic.") for name in sys.modules if name.startswith("systolic."))
sys.stderr.write("\\n" + json.dumps({"code": code, "modules": modules}) + "\\n")
"""

# one run of every command, over the inputs TestImportsPerCommand.write_inputs writes
COMMAND_ARGS = [
    ["homology", "{tmp}/sphere.json"],
    ["check-torsion-bound", "{tmp}/sphere.json"],
    ["abelianize", "a,b,c ; [a,b]c^-5, [a,c], [b,c]"],
    ["girth", "{tmp}/circulant.json", "--edge-length", "1/4"],
    ["build-graph", "--c", "3", "--girth", "5", "--vertices", "10"],
    ["sleeve", "--m", "3", "--c", "7", "--eps", "1/5", "--graph", "{tmp}/circulant.json"],
    ["bounds", "group-count", "--value", "14"],
    ["bounds", "sandwich", "--value", "10", "--constants", "{tmp}/constants.json"],
    ["waring", "--k", "79", "--d", "4"],
    ["waring", "verify", "--limit", "100"],
    ["genfun", "detect", "--file", "{tmp}/recurrent.json", "--max-order", "4"],
    ["corpus", "--format", "json"],
    ["sweep", "--spec", "{tmp}/spec.json"],
]


class TestImportsPerCommand:
    """Each command loads only the systolic modules it runs."""

    @staticmethod
    def write_inputs(tmp_path):
        (tmp_path / "sphere.json").write_text(
            '{"vertices": 4, "facets": [[0,1,2],[0,1,3],[0,2,3],[1,2,3]]}'
        )
        (tmp_path / "seq.json").write_text('{"terms": ["1", "1", "2", "3", "5", "8", "13", "21"]}')
        (tmp_path / "constants.json").write_text('{"m": 2, "pair_upper": 3.0}')
        (tmp_path / "spec.json").write_text(
            '{"command": "check-torsion-bound", "grid": {"name": ["rp2_min", "torus_7"]}}'
        )
        _record_inputs(tmp_path)

    def loaded(self, args, tmp_path):
        self.write_inputs(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_MODULES, *(a.format(tmp=tmp_path) for a in args)],
            capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stderr.splitlines()[-1])
        assert result["code"] == 0, proc.stderr
        return {name.removeprefix("systolic.") for name in result["modules"]}

    def test_version_loads_only_the_package_and_cli(self, tmp_path):
        assert self.loaded(["--version"], tmp_path) == {"systolic", "cli"}

    @pytest.mark.parametrize("source", [["{tmp}/sphere.json"], ["--corpus"]])
    def test_check_torsion_bound_loads_no_bounds(self, source, tmp_path):
        # the check's one 2 log3 t is homology.height_from_torsion
        loaded = self.loaded(["check-torsion-bound", *source], tmp_path)
        assert "homology" in loaded
        assert not loaded & {"bounds", "fractions", "_evaluators"}

    @pytest.mark.parametrize("args", ["--version", *COMMAND_ARGS])
    def test_only_bounds_and_sweep_load_the_evaluator_table(self, args, tmp_path):
        args = [args] if args == "--version" else args
        assert ("_evaluators" in self.loaded(args, tmp_path)) == (args[0] in ("bounds", "sweep"))

    @pytest.mark.parametrize("args", [["bounds", "group-count", "--value", "14"],
                                      ["sweep", "--spec", "{tmp}/spec.json"]])
    def test_run_as_main_the_cli_is_never_imported(self, args, tmp_path):
        # python -m runs cli.py as __main__: an import of systolic.cli would compile it again
        self.write_inputs(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_AS_MAIN, *(a.format(tmp=tmp_path) for a in args)],
            capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stderr.splitlines()[-1])
        assert result["code"] == 0 and proc.stdout, proc.stderr
        assert "_evaluators" in result["modules"] and "cli" not in result["modules"]

    @pytest.mark.parametrize("source", [["{tmp}/sphere.json"], ["--corpus"]])
    def test_homology_loads_no_other_subsystem(self, source, tmp_path):
        loaded = self.loaded(["homology", *source], tmp_path)
        assert "homology" in loaded
        assert not loaded & {"graphs", "sleeves", "waring", "presentations", "genfun", "bounds"}

    @pytest.mark.parametrize(
        "args, runs",
        [
            (["waring", "--k", "79", "--d", "4"], "waring"),
            (["genfun", "detect", "--file", "{tmp}/seq.json", "--max-order", "2"], "genfun"),
            (["abelianize", "a,b ; a^2, [a,b]"], "presentations"),
        ],
    )
    def test_algebra_commands_load_no_complexes_or_graphs(self, args, runs, tmp_path):
        loaded = self.loaded(args, tmp_path)
        assert runs in loaded
        assert not loaded & {"complexes", "graphs"}

    @pytest.mark.parametrize("args", COMMAND_ARGS)
    def test_no_command_loads_dataclasses_or_inspect(self, args, tmp_path):
        # records come from systolic._record, which imports nothing
        loaded = self.loaded(args, tmp_path)
        assert len(loaded) > 2
        assert not loaded & {"dataclasses", "inspect"}
