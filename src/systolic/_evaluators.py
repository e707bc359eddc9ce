"""The evaluator table, and the two commands that read it: ``bounds`` and ``sweep``.

Only those two commands load this module.  They share one dispatch path:
each request builds the table (``_table``) once, and a sweep looks up its
entry and loads its constants before the first row.  Each entry declares the
grid keys it reads and the kind of each (``_caps`` reads them), runs its
formula and makes one float-range check.  Only ``cli`` reads this module,
so its names are private.
"""
import itertools
import json
import math
import sys

from . import bounds
from ._caps import check, corpus_name, finite_number, integer, rational, read_json, whole_number
from ._output import csv_cell, csv_field, csv_header, dump_json, emit, jsonable

# The most grid points one sweep evaluates: about 2 s through the CLI for the
# costliest evaluators, `sandwich` and `group-count` (2 vCPUs, Python 3.11).
MAX_SWEEP_POINTS = 200_000


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


def _height_from_torsion(t1, _constants):
    from .homology import height_from_torsion  # loaded by this evaluator alone

    return height_from_torsion(t1)


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


def _table() -> dict[str, _Evaluator]:
    """The evaluator table of one request."""
    from ._record import asdict

    def sandwich(k, constants):
        report = bounds.sandwich(k, constants)
        return dict(asdict(report), consistent=report.consistent, constants=constants.provenance)

    finite, whole, name = {"value": finite_number}, {"value": whole_number}, {"name": corpus_name}
    entries = (
        _Evaluator("height", bounds.height_lb, finite),
        _Evaluator("simvol", bounds.simvol_lb, finite),
        _Evaluator("torsion", bounds.torsion_lb, finite),
        _Evaluator("height-from-torsion", _height_from_torsion, whole),
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
        _Evaluator("sleeve-volume", _sleeve_volume, {"m": integer, "c": integer, "eps": rational}),
        _Evaluator("multiple-class-bound", lambda k, c, _: bounds.multiple_class_bound(k, c),
                   {"k": finite_number, "C": finite_number}),
        _Evaluator("waring", _waring_count, {"k": integer, "d": integer}),
    )
    return {entry.name: entry for entry in entries}


def _load_constants(path):
    return bounds.BoundConstants() if path is None else bounds.load_constants(path)


def _bounds(args) -> bool:
    """Write the payload of ``bounds NAME --value v``; return whether its theorem-level check came back false."""
    entry = _table().get(args.name)
    if entry is None or list(entry.keys) != ["value"]:
        raise ValueError(f"unknown bounds evaluator {args.name!r}")
    constants = _load_constants(args.constants)
    payload = entry({"value": args.value}, constants)
    if entry.row is None:
        payload = {"name": entry.name, "value": payload, "constants": constants.provenance}
    dump_json(payload, args.out)
    return bool(entry.theorem) and not payload[entry.theorem]


def _sweep(args) -> bool:
    """Write one output row per grid point; a refused point never aborts the run.
    Return whether a theorem-level check came back false in any row."""
    with open(args.spec, "rb") as handle:
        spec = read_json(handle, "sweep spec")
    grid = spec.get("grid")
    if not isinstance(grid, dict) or not grid or not all(
        isinstance(values, list) and values for values in grid.values()
    ):
        raise ValueError(f"sweep spec {args.spec} needs a non-empty 'grid' of value lists")
    points = math.prod(len(values) for values in grid.values())
    check("_evaluators.MAX_SWEEP_POINTS", points, MAX_SWEEP_POINTS,
          f"sweep spec {args.spec} has a grid point count of")
    unknown = sorted(set(spec) - {"command", "grid", "seed"})
    if unknown:
        raise ValueError(f"sweep spec {args.spec} has unknown key {unknown[0]!r} (it takes command, grid and seed)")
    seed = integer(spec.get("seed", 0), f"sweep spec {args.spec} seed")
    command = spec.get("command")
    entries = _table()
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
    constants = _load_constants(args.constants)
    values = [grid[key] for key in keys]
    # each grid value is written as text once, before the first row
    texts = [[csv_field(csv_cell(value)) for value in column] for column in values]
    encode = json.JSONEncoder(separators=(";", ":"), allow_nan=False).encode
    errors, violated = 0, False

    def lines():
        nonlocal errors, violated
        for combo, cells in zip(itertools.product(*values), itertools.product(*texts)):
            try:
                result = entry(dict(zip(keys, combo)), constants)
                if entry.row is None:
                    cell = str(jsonable(result))
                else:
                    cell = encode(jsonable({key: result[key] for key in entry.row}))
                    violated |= entry.theorem is not None and not result[entry.theorem]
                outcome = csv_field(cell) + ","
            except ValueError as exc:  # a refused grid point becomes the row's error field
                errors += 1
                outcome = ',"' + str(exc).replace('"', '""') + '"'
            yield ",".join(cells) + "," + outcome + "\n"

    constants_source = args.constants or "defaults(illustrative)"
    provenance = f" seed={seed} command={command} constants={constants_source}"
    header = csv_header([*map(csv_field, keys), "result", "error"], provenance)
    emit(itertools.chain((header,), lines()), args.out)
    if errors:
        sys.stderr.write(f"sweep finished with {errors} row errors\n")
    return violated
