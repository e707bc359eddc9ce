"""Unified command line front end.

Subcommands: homology, check-torsion-bound, abelianize, girth, build-graph,
sleeve, bounds, waring, genfun, corpus, sweep.  Output is deterministic:
identical invocations produce byte-identical artifacts.  Exit codes:
0 success (a sweep's rows may hold errors), 1 invariant violation (a
theorem-level check, in any sweep row too, came back false: a bug), 2 bad input.

One table, ``COMMANDS``, declares each command's help line and arguments;
``main`` reads a command's numeric options through ``_caps``, by the kind
each declares, and runs its handler ``cmd_<name>``.  When the first word
names a command, the process builds only that command's subparser; help,
``--version`` and an unknown command build all 11.  Each command imports
the modules it runs when it runs, so start-up loads only this module,
argparse and the package's ``__init__``.  A command writes through
``_output``.  ``bounds`` and ``sweep`` share one dispatch path, the
evaluator table of ``_evaluators``, which no other command loads.
"""
from __future__ import annotations

import argparse
import sys

from . import __version__

USAGE_ERROR = 2
INVARIANT_VIOLATION = 1


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
    from ._output import csv_cell, dump_csv, dump_json
    from .homology import homology

    summaries = [(name, homology(complex_)) for name, complex_ in _named_complexes(args)]
    if args.format == "csv":
        rows = [
            (
                name,
                " ".join(map(str, summary.betti)),
                " ".join("/".join(map(csv_cell, chain)) or "-" for chain in summary.torsion),
            )
            for name, summary in summaries
        ]
        dump_csv(("name", "betti", "torsion"), rows, args.out)
        return 0
    payload = dict(summaries)
    if len(payload) == 1:
        payload = next(iter(payload.values()))
    dump_json(payload, args.out)
    return 0


def cmd_check_torsion_bound(args) -> int:
    from ._output import dump_csv
    from .homology import check_s2_torsion_bound

    pairs = _named_complexes(args)
    rows = []
    violated = False
    for name, complex_ in pairs:
        report = check_s2_torsion_bound(complex_)
        violated |= not report.holds
        rows.append((name, report.s2, report.lower_bound, report.holds))
    dump_csv(("name", "s2", "bound", "holds"), rows, args.out)
    return INVARIANT_VIOLATION if violated else 0


def cmd_abelianize(args) -> int:
    from ._output import dump_json
    from .presentations import abelianization, parse_presentation

    presentation = parse_presentation(args.presentation)
    dump_json(abelianization(presentation), args.out)
    return 0


def cmd_girth(args) -> int:
    from ._output import dump_json
    from .graphs import MetricGraph, girth, load_graph, metric_systole

    with open(args.graph, "rb") as handle:
        graph = load_graph(handle)
    shortest = girth(graph)
    payload: dict = {"girth": shortest}
    if args.edge_length is not None:
        payload["edge_length"] = args.edge_length
        payload["metric_systole"] = metric_systole(MetricGraph(graph, args.edge_length), shortest)
    dump_json(payload, args.out)
    return 0


def cmd_build_graph(args) -> int:
    from ._output import emit
    from .graphs import construct_regular_girth, dump_graph

    graph = construct_regular_girth(args.c, args.girth, args.vertices, seed=args.seed)
    emit((dump_graph(graph) + "\n",), args.out)
    return 0


def cmd_sleeve(args) -> int:
    from ._output import dump_json, jsonable
    from .graphs import load_graph
    from .sleeves import CubicalModel, assemble

    with open(args.graph, "rb") as handle:
        graph = load_graph(handle)
    model = CubicalModel(args.m, args.c)
    report = assemble(model, args.eps, graph)
    payload = jsonable(report)
    # exact fields stay exact; transcendental formula values print to 6 digits
    payload["sublinear_upper_bound"] = float(f"{report.sublinear_upper_bound:.6g}")
    dump_json(payload, args.out)
    return 0


def cmd_bounds(args) -> int:
    from ._evaluators import _bounds

    return INVARIANT_VIOLATION if _bounds(args) else 0


def cmd_sweep(args) -> int:
    """One output row per grid point; a refused point never aborts the run,
    and a false theorem-level check in any row exits 1 after the last."""
    from ._evaluators import _sweep

    return INVARIANT_VIOLATION if _sweep(args) else 0


def cmd_waring(args) -> int:
    from ._output import dump_json
    from .waring import min_powers, verify_g4

    if args.mode == "verify":
        if args.d not in (None, 4):
            raise ValueError("the uniform-cap verification is specific to d = 4")
        if args.k is not None:
            raise ValueError("--k does not apply to 'waring verify', which checks every k up to --limit")
        report = verify_g4(100_000 if args.limit is None else args.limit)
        dump_json(report, args.out)
        return 0 if report.within_19 else INVARIANT_VIOLATION
    if args.limit is not None:
        raise ValueError("--limit applies only to 'waring verify'")
    if args.k is None or args.d is None:
        raise ValueError("waring requires --k and --d (or the 'verify' mode)")
    decomposition = min_powers(args.k, args.d)
    dump_json(decomposition, args.out)
    return 0


def cmd_genfun(args) -> int:
    from ._caps import read_json
    from ._output import dump_json
    from .genfun import RationalSequence, detect_linear_recurrence

    def terms(data):
        if type(data.get("terms")) is not list:
            raise ValueError("'terms' must be a list")
        return RationalSequence.from_values(data["terms"])

    with open(args.file, "rb") as handle:
        sequence = read_json(handle, "sequence", terms)
    verdict = detect_linear_recurrence(sequence, max_order=args.max_order)
    dump_json(verdict, args.out)
    return 0


def cmd_corpus(args) -> int:
    from ._output import dump_csv, dump_json
    from .corpus import corpus_list

    entries = corpus_list()
    if args.format == "json":
        dump_json(entries, args.out)
    else:
        dump_csv(("name", "kind", "provenance"), [(e.name, e.kind, e.provenance) for e in entries], args.out)
    return 0


# ---------------------------------------------------------------------------

# An argument is its one spelling and argparse's keywords, with no "type": argparse only splits
# words.  A "kind" names the _caps reader main applies to the option's text; None keeps its JSON
# value for the evaluator.  Every command takes OUT first.
OUT = ("--out", dict(default=None, help="output file (default stdout)"))
COMMANDS = {
    "homology": ("Betti numbers and torsion", [
        ("inputs", dict(nargs="*", help="complex JSON files")),
        ("--corpus", dict(action="store_true", help="run on the built-in corpus")),
        ("--format", dict(choices=("csv", "json"), default="json"))]),
    "check-torsion-bound": ("s2 vs 2 log3 |Tors H1|", [
        ("inputs", dict(nargs="*")),
        ("--corpus", dict(action="store_true"))]),
    "abelianize": ("abelian invariants of a presentation", [
        ("presentation", dict(help="e.g. 'a,b,c ; [a,b]c^-5, [a,c], [b,c]'"))]),
    "girth": ("girth and optional metric systole", [
        ("graph", dict(help="graph JSON file")),
        ("--edge-length", dict(default=None, kind="rational", help="uniform rational edge length, e.g. 1/8"))]),
    "build-graph": ("regular graph of prescribed girth", [
        ("--c", dict(required=True, kind="integer", help="degree")),
        ("--girth", dict(required=True, kind="integer")),
        ("--vertices", dict(required=True, kind="integer")),
        ("--seed", dict(default="0", kind="integer"))]),
    "sleeve": ("assemble sleeves over a graph", [
        ("--m", dict(required=True, kind="integer")),
        ("--c", dict(required=True, kind="integer")),
        ("--eps", dict(required=True, kind="rational", help="rational sleeve thickness, e.g. 1/10")),
        ("--graph", dict(required=True))]),
    "bounds": ("closed-form bound evaluators", [
        ("name", dict(help="evaluator name")),
        ("--value", dict(required=True, kind=None)),
        ("--constants", dict(default=None, help="JSON file of bound constants"))]),
    "waring": ("minimal sums of d-th powers", [
        ("mode", dict(nargs="?", choices=("verify",), default=None)),
        ("--k", dict(default=None, kind="integer")),
        ("--d", dict(default=None, kind="integer")),
        ("--limit", dict(default=None, kind="integer", help="verify mode: largest k checked (default 100000)"))]),
    "genfun": ("recurrence detection", [
        ("mode", dict(choices=("detect",))),
        ("--file", dict(required=True, help='sequence JSON: {"terms": ["3/2", ...]}')),
        ("--max-order", dict(default="16", kind="integer"))]),
    "corpus": ("list built-in complexes and graphs", [("--format", dict(choices=("csv", "json"), default="json"))]),
    "sweep": ("grid sweep from a spec file", [
        ("--spec", dict(required=True)),
        ("--constants", dict(default=None, help="JSON file of bound constants"))]),
}


def _arguments(name):
    return (OUT, *COMMANDS[name][1])


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ValueError, so that main prints it as one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser, with a subparser for each of ``names`` alone."""
    parser = _Parser(prog="systolic", allow_abbrev=False,
                     description="exact homology, girth graphs, and systolic bound evaluators")
    parser.add_argument("--version", action="version", version=f"systolic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        p = sub.add_parser(name, help=COMMANDS[name][0], allow_abbrev=False)
        for spelling, keywords in _arguments(name):
            p.add_argument(spelling, **{key: value for key, value in keywords.items() if key != "kind"})
    return parser


def _refuse_option_before_command(argv) -> None:
    """Name a subcommand's option given before the subcommand, which argparse would take for the
    subcommand name or call unrecognized.  The first word that is neither an option nor an option's
    value names the command if it declares the option; else the first command that does."""
    options = {spelling: keywords for name in COMMANDS for spelling, keywords in _arguments(name)}
    misplaced, words = None, iter(argv)
    for word in words:
        if not word.startswith("-"):
            break
        option, inline, _ = word.partition("=")
        if option in options:
            misplaced = misplaced or option
            if not inline and options[option].get("action") != "store_true":
                next(words, None)  # the option's value
    else:
        word = None
    if misplaced:
        names = [name for name in COMMANDS if misplaced in dict(_arguments(name))]
        command = word if word in names else names[0]
        raise ValueError(f"{misplaced} goes after the subcommand name, as in 'systolic {command} {misplaced} ...'")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _refuse_option_before_command(argv)
        # a command builds its own subparser; help, --version and an unknown command build them all
        args = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS).parse_args(argv)
        from . import _caps

        for spelling, keywords in _arguments(args.command):  # argparse converts no text: each kind reads it here
            dest = spelling.lstrip("-").replace("-", "_")
            if "kind" in keywords and getattr(args, dest) is not None:
                kind, text = keywords["kind"], getattr(args, dest)
                value = text if kind == "rational" else _caps.json_value(text, spelling)
                setattr(args, dest, value if kind is None else getattr(_caps, kind)(value, spelling))
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except RecursionError:  # a presentation nested past the stack
        sys.stderr.write("error: the input is nested too deeply\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
