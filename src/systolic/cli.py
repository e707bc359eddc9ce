"""Unified command line front end.

Subcommands: homology, check-torsion-bound, abelianize, girth, build-graph,
sleeve, bounds, waring, genfun, corpus, sweep.  Output is deterministic:
identical invocations produce byte-identical artifacts.  Exit codes:
0 success (a sweep's rows may hold errors), 1 invariant violation (a
theorem-level check, in any sweep row too, came back false: a bug), 2 bad input.

Each command imports the modules it runs when it runs, so start-up
(``--version`` and the parser) loads only this module, argparse and the
package's ``__init__``.  ``bounds`` and ``sweep`` share one dispatch path:
each request builds the evaluator table (``_evaluators``) once, over the
``bounds`` module it loads for its constants, and a sweep looks up its
entry and loads its constants before the first row.
"""
from __future__ import annotations

import argparse
import math
import sys

from . import __version__

USAGE_ERROR = 2
INVARIANT_VIOLATION = 1
# The most grid points one sweep evaluates: about 2 s through the CLI for the
# costliest evaluators, `sandwich` and `group-count` (2 vCPUs, Python 3.11).
MAX_SWEEP_POINTS = 200_000


def _jsonable(value):
    """``value`` as JSON can write it; an integer past ``_caps.MAX_DIGITS``
    digits, alone or in a Fraction, is refused."""
    if type(value) is int:
        if value.bit_length() > 14_000:  # 2**14_000 < 10**4_215: a smaller one is inside the cap
            from ._caps import written

            written(value)
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    # A Fraction or a record exists only once its module is loaded, so
    # neither module is imported to recognise one.
    fractions = sys.modules.get("fractions")
    if fractions and isinstance(value, fractions.Fraction):
        _jsonable(value.numerator), _jsonable(value.denominator)
        return str(value)
    if hasattr(type(value), "__record_fields__"):
        from ._record import asdict

        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(chunks, out_path: str | None) -> None:
    """Write the strings ``chunks`` to ``out_path``, or to stdout, as they come."""
    if out_path is not None:
        with open(out_path, "w") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _dump_json(payload, out_path: str | None) -> None:
    import json

    _emit((json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n",), out_path)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(_jsonable(value))


def _csv_field(text: str) -> str:
    """``text`` as one RFC 4180 field: in quotes, each quote doubled, when it
    holds a comma, a quote or a line break; as it is otherwise."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_header(columns, provenance: str = "") -> str:
    return f"# systolic {__version__}{provenance}\n{','.join(columns)}\n"


def _dump_csv(columns, rows, out_path: str | None) -> None:
    """Write the comment line, the header and each row as the iterable yields
    it, each cell an RFC 4180 field."""
    import itertools

    lines = (",".join(_csv_field(_csv_cell(value)) for value in row) + "\n" for row in rows)
    _emit(itertools.chain((_csv_header(columns),), lines), out_path)


def _load_constants(bounds, path):
    return bounds.BoundConstants() if path is None else bounds.load_constants(path)


def _named_complexes(args):
    """(name, complex) pairs from file paths, named by their stems, which
    must differ, or the whole built-in corpus."""
    if args.corpus:
        if args.inputs:
            raise ValueError(f"--corpus takes no files, but was given {', '.join(map(repr, args.inputs))}")
        from .corpus import corpus_complexes

        return list(corpus_complexes().items())
    if not args.inputs:
        raise ValueError("no input complexes given (pass files or --corpus)")
    from pathlib import Path

    from .complexes import load_complex

    named = {}
    for path in args.inputs:
        named.setdefault(Path(path).stem, []).append(path)
    for stem, paths in named.items():
        if len(paths) > 1:
            raise ValueError(f"input files {', '.join(map(repr, paths))} share the name {stem!r}")
    out = []
    for stem, (path,) in named.items():
        with open(path, "rb") as handle:
            out.append((stem, load_complex(handle)))
    return out


def cmd_homology(args) -> int:
    from .homology import homology

    summaries = [(name, homology(complex_)) for name, complex_ in _named_complexes(args)]
    if args.format == "csv":
        rows = [
            (
                name,
                " ".join(map(str, summary.betti)),
                " ".join("/".join(map(_csv_cell, chain)) or "-" for chain in summary.torsion),
            )
            for name, summary in summaries
        ]
        _dump_csv(("name", "betti", "torsion"), rows, args.out)
        return 0
    payload = dict(summaries)
    if len(payload) == 1:
        payload = next(iter(payload.values()))
    _dump_json(payload, args.out)
    return 0


def cmd_check_torsion_bound(args) -> int:
    from .homology import check_s2_torsion_bound

    pairs = _named_complexes(args)
    rows = []
    violated = False
    for name, complex_ in pairs:
        report = check_s2_torsion_bound(complex_)
        violated |= not report.holds
        rows.append((name, report.s2, report.lower_bound, report.holds))
    _dump_csv(("name", "s2", "bound", "holds"), rows, args.out)
    return INVARIANT_VIOLATION if violated else 0


def cmd_abelianize(args) -> int:
    from .presentations import abelianization, parse_presentation

    presentation = parse_presentation(args.presentation)
    _dump_json(abelianization(presentation), args.out)
    return 0


def cmd_girth(args) -> int:
    from .graphs import MetricGraph, girth, load_graph, metric_systole

    with open(args.graph, "rb") as handle:
        graph = load_graph(handle)
    shortest = girth(graph)
    payload: dict = {"girth": shortest}
    if args.edge_length is not None:
        payload["edge_length"] = args.edge_length
        payload["metric_systole"] = metric_systole(MetricGraph(graph, args.edge_length), shortest)
    _dump_json(payload, args.out)
    return 0


def cmd_build_graph(args) -> int:
    from .graphs import construct_regular_girth, dump_graph

    graph = construct_regular_girth(args.c, args.girth, args.vertices, seed=args.seed)
    _emit((dump_graph(graph) + "\n",), args.out)
    return 0


def cmd_sleeve(args) -> int:
    from .graphs import load_graph
    from .sleeves import CubicalModel, assemble

    with open(args.graph, "rb") as handle:
        graph = load_graph(handle)
    model = CubicalModel(args.m, args.c)
    report = assemble(model, args.eps, graph)
    payload = _jsonable(report)
    # exact fields stay exact; transcendental formula values print to 6 digits
    payload["sublinear_upper_bound"] = float(f"{report.sublinear_upper_bound:.6g}")
    _dump_json(payload, args.out)
    return 0


# The kinds of grid value an evaluator or option declares: each reads a key's value or
# refuses it, naming the key and the kind.  A boolean is no number; an int of any size is finite.
def _refusal(key: str, value, what: str) -> ValueError:
    from ._caps import shown  # loaded only to refuse

    return ValueError(f"{key} {shown(value)} is not {what}")


def _finite_number(value, key: str):
    if type(value) is int or type(value) is float and math.isfinite(value):
        return value
    raise _refusal(key, value, "a finite number")


def _whole_number(value, key: str) -> int:  # read as the int it equals
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise _refusal(key, value, "a whole number")


def _integer(value, key: str) -> int:  # a JSON integer: 7.0 is not one
    if type(value) is int:
        return value
    raise _refusal(key, value, "an integer")


def _rational(value, key: str):  # _caps.rational, loaded when a value is read, not at start-up
    from ._caps import rational

    return rational(value, key)


def _corpus_name(value, key: str) -> str:  # corpus_complex refuses one that names none
    if type(value) is str:
        return value
    raise _refusal(key, value, "a corpus name")


def _per_corpus_name(evaluate):
    """A build of a corpus name that evaluates each corpus complex once per
    table; a string that names none is never kept, so ``corpus_complex``
    refuses it at every row."""
    done = {}

    def build(name, _constants):
        if name not in done:
            from . import homology
            from .corpus import corpus_complex

            done[name] = evaluate(homology, corpus_complex(name))
        return done[name]

    return build


def _torsion_check(homology, complex_):
    report = homology.check_s2_torsion_bound(complex_)
    return {"s2": report.s2, "torsion": report.torsion_order, "holds": report.holds}


def _sleeve_volume(m, c, eps, _constants):
    from .sleeves import CubicalModel, sleeve_volume_single

    return sleeve_volume_single(CubicalModel(m, c), eps)


def _waring_count(k, d, _constants):
    from .waring import min_count

    return min_count(k, d)


class _Evaluator:
    """One evaluator of sweep grid points; ``bounds NAME --value v`` calls it as
    {"value": v} when "value" is its one key.  ``keys`` maps each key it reads
    to its kind, in the order of ``build(*values, constants)``, which returns
    the ``bounds`` payload; ``row`` names the payload keys a sweep row shows
    (None: the payload is a bare number), and ``theorem`` the one holding a
    theorem-level check.  A plain class: building a record slows start-up."""

    def __init__(self, name: str, build, keys, row=None, theorem=None):
        self.name, self.build, self.keys, self.row, self.theorem = name, build, keys, row, theorem

    def __call__(self, point, constants):
        """The result at the grid point, refused unless each value a row shows is finite:
        an overflow, to inf or by raising, or a divisor that underflowed to 0 is no bound."""
        try:
            result = self.build(*[kind(point[key], key) for key, kind in self.keys.items()], constants)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"{self.name}: the result is past the float range") from exc
        shown = (result,) if self.row is None else [result[key] for key in self.row]
        if any(isinstance(value, float) and not math.isfinite(value) for value in shown):
            raise ValueError(f"{self.name}: the result is past the float range")
        return result


def _evaluators(bounds) -> dict[str, _Evaluator]:
    """The evaluator table of one request, over the loaded ``bounds`` module."""
    from ._record import asdict

    def sandwich(k, constants):
        report = bounds.sandwich(k, constants)
        return dict(asdict(report), consistent=report.consistent, constants=constants.provenance)

    finite, whole, name = {"value": _finite_number}, {"value": _whole_number}, {"name": _corpus_name}
    entries = (
        _Evaluator("height", bounds.height_lb, finite),
        _Evaluator("simvol", bounds.simvol_lb, finite),
        _Evaluator("torsion", bounds.torsion_lb, finite),
        _Evaluator("height-from-torsion", lambda t1, _: bounds.height_from_torsion(t1), finite),
        _Evaluator("lens", bounds.lens_lb, whole),
        _Evaluator("pi1-3manifold", bounds.finite_pi1_3manifold_lb, whole),
        _Evaluator("kappa-upper", lambda s, _: bounds.kappa_upper_from_systole(s), finite),
        _Evaluator("kappa-alpha", lambda s, _: bounds.kappa_alpha_scale(s), finite),
        _Evaluator("area-from-kappa", lambda kappa, _: bounds.systolic_area_upper_from_kappa(kappa), finite),
        _Evaluator("sandwich", sandwich, finite, ("lower", "upper", "consistent")),
        _Evaluator("group-count", lambda n, _: asdict(bounds.group_count_bound(n)), whole,
                   ("exponent", "chain_ok"), "chain_ok"),
        _Evaluator("surface-kappa", lambda n, _: dict(zip(("genus", "lower", "upper"),
                                                          (n, *bounds.surface_kappa_bounds(n)))),
                   whole, ("lower", "upper")),
        _Evaluator("abelian-kappa", lambda n, _: dict(zip(("rank", "lower", "upper"),
                                                          (n, *bounds.abelian_kappa_bounds(n)))),
                   whole, ("lower", "upper")),
        _Evaluator("homology", _per_corpus_name(lambda homology, x: {"betti": list(homology.homology(x).betti)}),
                   name, ("betti",)),
        _Evaluator("check-torsion-bound", _per_corpus_name(_torsion_check), name,
                   ("s2", "torsion", "holds"), "holds"),
        _Evaluator("sleeve-volume", _sleeve_volume, {"m": _integer, "c": _integer, "eps": _rational}),
        _Evaluator("multiple-class-bound", lambda k, c, _: bounds.multiple_class_bound(k, c),
                   {"k": _finite_number, "C": _finite_number}),
        _Evaluator("waring", _waring_count, {"k": _integer, "d": _integer}),
    )
    return {entry.name: entry for entry in entries}


def cmd_bounds(args) -> int:
    from . import bounds

    entry = _evaluators(bounds).get(args.name)
    if entry is None or list(entry.keys) != ["value"]:
        raise ValueError(f"unknown bounds evaluator {args.name!r}")
    constants = _load_constants(bounds, args.constants)
    payload = entry({"value": args.value}, constants)
    if entry.row is None:
        payload = {"name": entry.name, "value": payload, "constants": constants.provenance}
    _dump_json(payload, args.out)
    return INVARIANT_VIOLATION if entry.theorem and not payload[entry.theorem] else 0


def cmd_sweep(args) -> int:
    """One output row per grid point; a refused point never aborts the run,
    and a false theorem-level check in any row exits 1 after the last."""
    import itertools
    import json

    from . import bounds
    from ._caps import check, read_json

    with open(args.spec, "rb") as handle:
        spec = read_json(handle, "sweep spec")
    grid = spec.get("grid")
    if not isinstance(grid, dict) or not grid or not all(
        isinstance(values, list) and values for values in grid.values()
    ):
        raise ValueError(f"sweep spec {args.spec} needs a non-empty 'grid' of value lists")
    points = math.prod(len(values) for values in grid.values())
    check("cli.MAX_SWEEP_POINTS", points, MAX_SWEEP_POINTS, f"sweep spec {args.spec} has a grid point count of")
    unknown = sorted(set(spec) - {"command", "grid", "seed"})
    if unknown:
        raise ValueError(f"sweep spec {args.spec} has unknown key {unknown[0]!r} (it takes command, grid and seed)")
    seed = _integer(spec.get("seed", 0), f"sweep spec {args.spec} seed")
    command = spec.get("command")
    entries = _evaluators(bounds)
    if not isinstance(command, str) or command not in entries:
        raise ValueError(f"sweep does not support command {command!r}")
    entry = entries[command]
    keys = sorted(grid)
    if keys != sorted(entry.keys):
        raise ValueError(
            f"sweep spec {args.spec} has the grid keys {', '.join(map(repr, keys))}, "
            f"but {command} takes {', '.join(map(repr, entry.keys))}"
        )
    if command == "waring":  # its count lists share one budget, checked before any row
        from .waring import list_budget

        list_budget(grid["k"], grid["d"])
    constants = _load_constants(bounds, args.constants)
    values = [grid[key] for key in keys]
    # each grid value is written as text once, before the first row
    texts = [[_csv_field(_csv_cell(value)) for value in column] for column in values]
    encode = json.JSONEncoder(separators=(";", ":"), allow_nan=False).encode
    errors, violated = 0, False

    def lines():
        nonlocal errors, violated
        for combo, cells in zip(itertools.product(*values), itertools.product(*texts)):
            try:
                result = entry(dict(zip(keys, combo)), constants)
                if entry.row is None:
                    cell = str(_jsonable(result))
                else:
                    cell = encode(_jsonable({key: result[key] for key in entry.row}))
                    violated |= entry.theorem is not None and not result[entry.theorem]
                outcome = _csv_field(cell) + ","
            except ValueError as exc:  # a refused grid point becomes the row's error field
                errors += 1
                outcome = ',"' + str(exc).replace('"', '""') + '"'
            yield ",".join(cells) + "," + outcome + "\n"

    constants_source = args.constants or "defaults(illustrative)"
    provenance = f" seed={seed} command={command} constants={constants_source}"
    header = _csv_header([*map(_csv_field, keys), "result", "error"], provenance)
    _emit(itertools.chain((header,), lines()), args.out)
    if errors:
        sys.stderr.write(f"sweep finished with {errors} row errors\n")
    return INVARIANT_VIOLATION if violated else 0


def cmd_waring(args) -> int:
    from .waring import min_powers, verify_g4

    if args.mode == "verify":
        if args.d not in (None, 4):
            raise ValueError("the uniform-cap verification is specific to d = 4")
        if args.k is not None:
            raise ValueError("--k does not apply to 'waring verify', which checks every k up to --limit")
        report = verify_g4(100_000 if args.limit is None else args.limit)
        _dump_json(report, args.out)
        return 0 if report.within_19 else INVARIANT_VIOLATION
    if args.limit is not None:
        raise ValueError("--limit applies only to 'waring verify'")
    if args.k is None or args.d is None:
        raise ValueError("waring requires --k and --d (or the 'verify' mode)")
    decomposition = min_powers(args.k, args.d)
    _dump_json(decomposition, args.out)
    return 0


def cmd_genfun(args) -> int:
    from ._caps import read_json
    from .genfun import RationalSequence, detect_linear_recurrence

    def terms(data):
        if type(data.get("terms")) is not list:
            raise ValueError("'terms' must be a list")
        return RationalSequence.from_values(data["terms"])

    with open(args.file, "rb") as handle:
        sequence = read_json(handle, "sequence", terms)
    verdict = detect_linear_recurrence(sequence, max_order=args.max_order)
    _dump_json(verdict, args.out)
    return 0


def cmd_corpus(args) -> int:
    from .corpus import corpus_list

    entries = corpus_list()
    if args.format == "json":
        _dump_json(entries, args.out)
    else:
        _dump_csv(("name", "kind", "provenance"), [(e.name, e.kind, e.provenance) for e in entries], args.out)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so that main prints it as one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="systolic", allow_abbrev=False,
        description="exact homology, girth graphs, and systolic bound evaluators",
    )
    parser.add_argument("--version", action="version", version=f"systolic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    parser.readers = {}  # option string -> the subcommands that declare it

    def command(name, func, help):
        """Add subcommand ``name``; return the function that declares its arguments."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func, kinds={})  # the dest of each numeric option -> its flag and kind

        def add(*flags, kind=False, **kwargs):  # main reads a numeric option by its kind; None: as JSON
            for flag in flags:
                if flag.startswith("-"):
                    parser.readers.setdefault(flag, []).append(name)
            action = p.add_argument(*flags, **kwargs)
            if kind is not False:
                p.get_default("kinds")[action.dest] = flags[0], kind

        add("--out", default=None, help="output file (default stdout)")
        return add

    add = command("homology", cmd_homology, "Betti numbers and torsion")
    add("inputs", nargs="*", help="complex JSON files")
    add("--corpus", action="store_true", help="run on the built-in corpus")
    add("--format", choices=("csv", "json"), default="json")

    add = command("check-torsion-bound", cmd_check_torsion_bound, "s2 vs 2 log3 |Tors H1|")
    add("inputs", nargs="*")
    add("--corpus", action="store_true")

    add = command("abelianize", cmd_abelianize, "abelian invariants of a presentation")
    add("presentation", help="e.g. 'a,b,c ; [a,b]c^-5, [a,c], [b,c]'")

    add = command("girth", cmd_girth, "girth and optional metric systole")
    add("graph", help="graph JSON file")
    add("--edge-length", default=None, kind=_rational, help="uniform rational edge length, e.g. 1/8")

    add = command("build-graph", cmd_build_graph, "regular graph of prescribed girth")
    add("--c", required=True, kind=_integer, help="degree")
    add("--girth", required=True, kind=_integer)
    add("--vertices", required=True, kind=_integer)
    add("--seed", default="0", kind=_integer)

    add = command("sleeve", cmd_sleeve, "assemble sleeves over a graph")
    add("--m", required=True, kind=_integer)
    add("--c", required=True, kind=_integer)
    add("--eps", required=True, kind=_rational, help="rational sleeve thickness, e.g. 1/10")
    add("--graph", required=True)

    add = command("bounds", cmd_bounds, "closed-form bound evaluators")
    add("name", help="evaluator name")
    add("--value", required=True, kind=None)
    add("--constants", default=None, help="JSON file of bound constants")

    add = command("waring", cmd_waring, "minimal sums of d-th powers")
    add("mode", nargs="?", choices=("verify",), default=None)
    add("--k", default=None, kind=_integer)
    add("--d", default=None, kind=_integer)
    add("--limit", default=None, kind=_integer, help="verify mode: largest k checked (default 100000)")

    add = command("genfun", cmd_genfun, "recurrence detection")
    add("mode", choices=("detect",))
    add("--file", required=True, help='sequence JSON: {"terms": ["3/2", ...]}')
    add("--max-order", default="16", kind=_integer)

    add = command("corpus", cmd_corpus, "list built-in complexes and graphs")
    add("--format", choices=("csv", "json"), default="json")

    add = command("sweep", cmd_sweep, "grid sweep from a spec file")
    add("--spec", required=True)
    add("--constants", default=None, help="JSON file of bound constants")

    return parser


def _refuse_option_before_command(readers, argv) -> None:
    """Name a subcommand's option given before the subcommand.

    argparse would take the option's value for the subcommand name, or call
    the option unrecognized.  Only the options before the first word that is
    not one are looked at; ``readers`` maps each option of a subcommand to the
    subcommands that declare it.
    """
    for word in argv:
        if not word.startswith("-"):
            return
        option = word.split("=", 1)[0]
        if option in readers:
            command = next((w for w in argv if w in readers[option]), readers[option][0])
            raise ValueError(f"{option} goes after the subcommand name, as in 'systolic {command} {option} ...'")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        _refuse_option_before_command(parser.readers, argv)
        args = parser.parse_args(argv)
        from ._caps import json_value

        for dest, (flag, kind) in args.kinds.items():  # argparse converts no text: each kind reads it here
            text = getattr(args, dest)
            if text is not None:
                value = text if kind is _rational else json_value(text, flag)
                setattr(args, dest, value if kind is None else kind(value, flag))
        return args.func(args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except RecursionError:  # a presentation nested past the stack
        sys.stderr.write("error: the input is nested too deeply\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
