"""Every request cap refuses in one text shape, from ``_caps.check``,
README's cap table agrees with the code, and only ``_caps`` parses JSON."""
import ast
import contextlib
import importlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from systolic import _caps, _output, cli, complexes, genfun, graphs, presentations, snf, waring

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "systolic"
CAP_NAME = re.compile(r"MAX_[A-Z_]+|CAP|STEP_BUDGET")


def _edges(count):
    """``count`` disjoint edges: their squared degrees sum to 2 * count."""
    return graphs.Graph(2 * count, tuple((2 * i, 2 * i + 1) for i in range(count)))


def _detect(terms):
    return genfun.detect_linear_recurrence(genfun.RationalSequence.from_values(terms), max_order=1)


def _sweep(tmp_path, ks):
    """Run a waring sweep through the CLI; its one-line refusal is raised as a ValueError."""
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"command": "waring", "grid": {{"k": {ks}, "d": [2]}}}}')
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out.csv")])
    if code:
        raise ValueError(err.getvalue().removeprefix("error: ").removesuffix("\n"))


# (constant, the cap the test sets, or None for the real one, a request at the cap,
# the least request past it, and the amount that request names).  A small cap
# stands in where a request at the real one is costly.
CASES = [
    ("graphs.MAX_VERTICES", None, lambda _: graphs.load_graph('{"n": 300000, "edges": []}'),
     lambda _: graphs.load_graph('{"n": 300001, "edges": []}'), 300_001),
    # squared degrees sum to an even number, so the least sum past 24 is 26
    ("graphs.MAX_DEGREE_SQUARES", 24, lambda _: graphs.girth(_edges(12)), lambda _: graphs.girth(_edges(13)), 26),
    ("graphs.STEP_BUDGET", 14, lambda _: graphs.construct_regular_girth(4, 3, 7),
     lambda _: graphs.construct_regular_girth(3, 3, 10), 15),
    ("complexes.MAX_FACE_STEPS", 22, lambda _: complexes.SimplicialComplex([[0, 1, 2, 3], [4, 5, 6]]),
     lambda _: complexes.SimplicialComplex([[0, 1, 2, 3], [4, 5, 6], [7]]), 23),
    ("snf.MAX_RESIDUAL_WORK", 8, lambda _: snf.smith_normal_form([[2, 4], [6, 2]]),
     lambda _: snf.smith_normal_form([[2, 4, 0], [6, 2, 2]]), 12),
    ("presentations.MAX_LETTERS", None, lambda _: presentations.parse_presentation("a ; a^1000000"),
     lambda _: presentations.parse_presentation("a ; a^1000001"), 1_000_001),
    # 'cdcd' splits in 3 + 2 steps, 'cdbb' in 3 + 2 + 1
    ("presentations.MAX_SEGMENT_STEPS", 5, lambda _: presentations.parse_presentation("b, cd ; cdcd"),
     lambda _: presentations.parse_presentation("b, cd ; cdbb"), 6),
    ("waring.CAP", 1000, lambda _: waring.min_count(1000, 2), lambda _: waring.min_count(1001, 2), 1001),
    ("waring.MAX_LIST_STEPS", waring._list_steps(6, 1000), lambda _: waring.min_count(1000, 6),
     lambda _: waring.min_count(1001, 6), waring._list_steps(6, 1001)),
    ("waring.MAX_PARTS", 5, lambda _: waring.min_powers(5, 40), lambda _: waring.min_powers(6, 40), 6),
    # all zeros: each term takes one multiply-add
    ("genfun.MAX_STEP_WORK", 6, lambda _: _detect([0] * 6), lambda _: _detect([0] * 7), 7),
    # the first update is [1, -s_1]: 1 + 4 bits for 8, 1 + 5 for 16
    ("genfun.MAX_COEFFICIENT_BITS", 5, lambda _: _detect([8] + [0] * 5), lambda _: _detect([16] + [0] * 5), 6),
    ("_evaluators.MAX_SWEEP_POINTS", 3, lambda tmp_path: _sweep(tmp_path, [1, 2, 3]),
     lambda tmp_path: _sweep(tmp_path, [1, 2, 3, 4]), 4),
    # the decimal exponent of an option, a grid value or a term; a result's digits;
    # the digits of a rational's text, of a JSON integer literal and of an exponent after '^'
    ("_caps.MAX_DIGITS", None, lambda _: _caps.rational("1e4300", "--eps"),
     lambda _: _caps.rational("1e4301", "--eps"), 4301),
    ("_caps.MAX_DIGITS", None, lambda _: genfun.RationalSequence.from_values(["1E-4300"]),
     lambda _: genfun.RationalSequence.from_values(["1E-4301"]), 4301),
    ("_caps.MAX_DIGITS", None, lambda _: _output.jsonable(10 ** 4300 - 1),
     lambda _: _output.jsonable(Fraction(1, 10 ** 4300)), 4301),
    ("_caps.MAX_DIGITS", None, lambda _: _caps.rational("1/" + "7" * 4300, "--eps"),
     lambda _: _caps.rational("1/" + "7" * 4301, "--eps"), 4301),
    ("_caps.MAX_DIGITS", None, lambda _: graphs.load_graph('{"n": 0, "edges": [], "x": -' + "9" * 4300 + "}"),
     lambda _: graphs.load_graph('{"n": 0, "edges": [], "x": -' + "9" * 4301 + "}"), 4301),
    ("_caps.MAX_DIGITS", None, lambda _: presentations.parse_presentation("a ; a^-" + "0" * 4300),
     lambda _: presentations.parse_presentation("a ; a^-" + "0" * 4301), 4301),
]


@pytest.mark.parametrize("name, cap, at_cap, past_cap, used", CASES, ids=[case[0] for case in CASES])
def test_each_cap_at_its_value_and_past_it(name, cap, at_cap, past_cap, used, monkeypatch, tmp_path):
    module_name, constant = name.split(".")
    module = importlib.import_module(f"systolic.{module_name}")
    if cap is None:
        cap = getattr(module, constant)
    monkeypatch.setattr(module, constant, cap)
    monkeypatch.setattr(waring, "_tables", {})
    at_cap(tmp_path)
    with pytest.raises(ValueError) as refused:
        past_cap(tmp_path)
    assert str(refused.value).endswith(f" {used}, past the cap ({name} = {cap})")


def _sources():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_no_cap_text_is_built_outside_the_helper():
    phrases = ("past the cap", "exceeds the cap", "desk-scale cap")
    found = {
        (stem, phrase)
        for stem, tree in _sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for phrase in phrases
        if phrase in node.value.lower()
    }
    assert found == {("_caps", "past the cap")}


def test_only_caps_parses_json():
    # every JSON input is parsed by one call in _caps.read_json; rationals are read by _caps.rational
    parses, names = [], set()
    for stem, tree in _sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in ("load", "loads"):
                if isinstance(node.func.value, ast.Name) and node.func.value.id == "json":
                    parses.append(stem)
            identifier = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if identifier == "decimal_exponent":
                names.add(stem)
    assert (parses, names) == (["_caps"], set())


def test_a_value_past_100_characters_is_shown_by_its_start_and_length():
    # a refusal echoes a value of 100 characters or fewer exactly as its repr
    for value in ("x", "x" * 100, "\n" * 100, [7] * 33, 10 ** 99, None):  # [7] * 33 shows 99 characters
        assert _caps.shown(value) == repr(value)
    assert _caps.shown("x" * 101) == "'" + "x" * 39 + "... (101 characters)"
    assert _caps.shown([7] * 34) == repr([7] * 34)[:40] + "... (102 characters)"


def test_build_parser_passes_no_type():
    # argparse only splits words: main reads each numeric option's text by the kind it declares
    arguments = [argument for name in cli.COMMANDS for argument in cli._arguments(name)]
    assert len(arguments) == 40
    assert [spelling for spelling, keywords in arguments if "type" in keywords] == []


def test_each_check_names_the_constant_it_compares_with():
    # check("module.NAME", used, NAME, what), with NAME a constant of that module
    calls = 0
    for stem, tree in _sources().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "check":
                module_name, constant = node.args[0].value.split(".")
                assert node.args[2].id == constant and module_name in (stem, "_caps"), ast.unparse(node)
                assert hasattr(importlib.import_module(f"systolic.{module_name}"), constant)
                calls += 1
    assert calls >= 15


def _cap_constants():
    """module.NAME -> value of every module-level MAX_*, CAP and STEP_BUDGET."""
    constants = {}
    for stem, tree in _sources().items():
        module = importlib.import_module(f"systolic.{stem}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and CAP_NAME.fullmatch(target.id):
                        constants[f"{stem}.{target.id}"] = getattr(module, target.id)
    return constants


def _readme_caps():
    """module.NAME -> value of each row of README's cap table."""
    section = (ROOT / "README.md").read_text().split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]  # an escaped \| is no border
        if line.startswith("| `"):
            rows[cells[0].strip("`")] = int(re.sub(r"[\s_]", "", cells[2]))
    return rows


def test_readme_cap_table_matches_the_code():
    constants = _cap_constants()
    assert len(constants) >= 15
    assert _readme_caps() == constants
