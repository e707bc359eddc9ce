"""Traced run: per-layer times and counts for one pass of a workload.

Each job runs twice, each time in a fresh interpreter started as

    python3 bench/tracing.py cli|layers SPEC SPANS

``cli`` times ``import systolic.cli`` and then runs ``cli.main(argv)``;
``layers`` replays the library calls the job needs, straight into the
modules.  Separate interpreters keep one from warming the Waring tables for
the other.  In both, every public function of every module (and every
cached property of its classes) is wrapped so that a call records a span:
name, start, end, parent span and job id.  Spans stay in memory and are
written to SPANS when the interpreter ends; the parent gathers them into
``spans.json`` and derives the metrics of ``LAYER_METRICS``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

# metric -> span names whose outermost inclusive times are summed over the jobs
LAYER_TIMES = {
    "complexes.load_s": ["complexes.load_complex"],
    "complexes.faces_s": ["complexes.SimplicialComplex.faces_by_dim"],
    "complexes.boundary_s": ["complexes.boundary_matrix"],
    "snf.boundary_s": ["snf.smith_normal_form[boundary]"],
    "snf.dense_s": ["snf.smith_normal_form[dense]"],
    "homology.homology_s": ["homology.homology"],
    "homology.torsion_check_s": ["homology.check_s2_torsion_bound"],
    "presentations.parse_s": ["presentations.parse_presentation"],
    "presentations.abelianize_s": ["presentations.abelianization"],
    "graphs.construct_s": ["graphs.construct_regular_girth"],
    "graphs.girth_s": ["graphs.girth"],
    "graphs.load_s": ["graphs.load_graph"],
    "sleeves.assemble_s": ["sleeves.assemble"],
    "waring.verify_s": ["waring.verify_g4"],
    "waring.cold_s": ["waring.min_count[cold]", "waring.min_powers[cold]"],
    "waring.warm_s": ["waring.min_count[warm]"],
    "bounds.group_count_s": ["bounds.group_count_bound"],
    "genfun.detect_s": ["genfun.detect_linear_recurrence"],
}
LAYER_COUNTS = ("complexes.facets", "complexes.faces", "complexes.boundary_nnz", "snf.rank",
                "snf.max_factor_bits", "graphs.vertices", "graphs.edges", "waring.extent")
LAYER_METRICS = ["cli.import_s", "cli.self_s", *LAYER_TIMES, *LAYER_COUNTS]


def _count(counts: dict, name: str, result) -> None:
    """Work counts read off a layer call's result."""
    if name == "complexes.load_complex":
        counts["complexes.facets"] += len(result.facets)
    elif name == "complexes.SimplicialComplex.faces_by_dim":
        counts["complexes.faces"] += sum(len(group) for group in result)
    elif name == "complexes.boundary_matrix":
        counts["complexes.boundary_nnz"] += len(result.entries)
    elif name == "snf.smith_normal_form":
        counts["snf.rank"] += result.rank
        bits = max((d.bit_length() for d in result.invariant_factors), default=0)
        counts["snf.max_factor_bits"] = max(counts["snf.max_factor_bits"], bits)
    elif name == "graphs.construct_regular_girth":
        counts["graphs.vertices"] += result.vertex_count
        counts["graphs.edges"] += len(result.edges)


class Tracer:
    """Spans [name, start, end, parent] of one interpreter, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tag: str | None = None
        self.counts = dict.fromkeys(LAYER_COUNTS, 0)

    def label(self, name: str, args) -> str:
        if name == "snf.smith_normal_form" and args:
            return f"{name}[{'boundary' if hasattr(args[0], 'sparse') else 'dense'}]"
        if name in ("waring.min_count", "waring.min_powers") and self.tag:
            return f"{name}[{self.tag}]"
        return name

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([self.label(name, args), 0.0, 0.0, self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[index][1:3] = [start, end]
            _count(self.counts, name, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every systolic module except cli."""
    import systolic

    modules = [importlib.import_module(f"systolic.{info.name}")
               for info in pkgutil.iter_modules(systolic.__path__)]
    wrapped = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        if layer == "cli":
            continue
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, functools.cached_property):
                        member.func = tracer.wrap(f"{layer}.{name}.{attr}", member.func)
    for module in [systolic, *modules]:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def replay(tracer: Tracer, job: dict) -> None:
    """The library calls that the job's command needs, made directly."""
    (bounds, complexes, genfun, graphs, homology, presentations, sleeves, waring) = (
        importlib.import_module(f"systolic.{name}") for name in
        ("bounds", "complexes", "genfun", "graphs", "homology", "presentations", "sleeves", "waring"))
    argv, kind = job["argv"], job["check"]
    if kind in ("homology", "torsion_bound"):
        with open(argv[1]) as handle:
            complex_ = complexes.load_complex(handle)
        if kind == "homology":
            homology.homology(complex_)
        else:
            homology.check_s2_torsion_bound(complex_)
    elif kind == "graph":
        graph = graphs.construct_regular_girth(
            int(_option(argv, "--c")), int(_option(argv, "--girth")),
            int(_option(argv, "--vertices")), seed=int(_option(argv, "--seed")))
        graphs.dump_graph(graph)
    elif kind in ("sleeve", "girth"):
        path = _option(argv, "--graph") if kind == "sleeve" else argv[1]
        with open(path) as handle:
            graph = graphs.load_graph(handle)
        if kind == "sleeve":
            model = sleeves.CubicalModel(int(_option(argv, "--m")), int(_option(argv, "--c")))
            sleeves.assemble(model, Fraction(_option(argv, "--eps")), graph)
        else:
            graphs.girth(graph)
            graphs.metric_systole(graphs.MetricGraph(graph, Fraction(_option(argv, "--edge-length"))))
    elif kind == "waring_verify":
        waring.verify_g4(int(_option(argv, "--limit")))
    elif kind == "waring":
        tracer.tag = "cold"
        waring.min_powers(int(_option(argv, "--k")), int(_option(argv, "--d")))
    elif kind == "sweep_waring":
        with open(_option(argv, "--spec")) as handle:
            grid = json.load(handle)["grid"]
        tracer.tag = "cold"
        for d in grid["d"]:
            waring.min_count(max(grid["k"]), d)
        tracer.tag = "warm"
        for d in grid["d"]:
            for k in grid["k"]:
                waring.min_count(k, d)
    elif kind == "group_count":
        bounds.group_count_bound(int(float(_option(argv, "--value"))))
    elif kind == "abelianize":
        presentations.abelianization(presentations.parse_presentation(argv[1]))
    elif kind == "genfun":
        with open(_option(argv, "--file")) as handle:
            terms = json.load(handle)["terms"]
        sequence = genfun.RationalSequence.from_values(terms)
        genfun.detect_linear_recurrence(sequence, max_order=int(_option(argv, "--max-order")))
    else:
        raise ValueError(f"no replay for job kind {kind!r}")
    tables = getattr(waring, "_tables", {})
    tracer.counts["waring.extent"] = {str(d): len(t) - 1 for d, t in tables.items()}


def job_main(mode: str, spec_path: str, spans_path: str) -> int:
    """Entry point of one traced interpreter."""
    job = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, job["src"])
    start = time.perf_counter()
    import systolic.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    instrument(tracer)
    code = 0
    if mode == "cli":
        code = tracer.wrap("cli.main", systolic.cli.main)(job["argv"])
    else:
        replay(tracer, job)
    Path(spans_path).write_text(json.dumps({
        "job": job["id"], "mode": mode, "import_s": import_s, "spans": tracer.spans,
        "counts": tracer.counts}))
    return code


# ---------------------------------------------------------------------------
# parent side


def inclusive(spans: list[list]) -> dict[str, float]:
    """Inclusive time per span name, counting only outermost spans of a name."""
    totals: dict[str, float] = {}
    for name, start, end, parent in spans:
        ancestor = parent
        while ancestor != -1 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor == -1:
            totals[name] = totals.get(name, 0.0) + end - start
    return totals


def _base(name: str) -> str:
    return name.split("[", 1)[0]


def cli_self(cli_trace: dict, layer_trace: dict) -> float:
    """cli.main's self time plus the library calls it makes beyond the replay's.

    A call is extra when the command makes more top-level calls of a
    function than the direct replay needs; each extra call is charged at
    the mean duration of that function's calls under cli.main.
    """
    spans = cli_trace["spans"]
    root = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    children = [s for s in spans if s[3] == root]
    self_time = spans[root][2] - spans[root][1] - sum(s[2] - s[1] for s in children)
    needed: dict[str, int] = {}
    for s in layer_trace["spans"]:
        if s[3] == -1:
            needed[_base(s[0])] = needed.get(_base(s[0]), 0) + 1
    by_name: dict[str, list[float]] = {}
    for s in children:
        by_name.setdefault(_base(s[0]), []).append(s[2] - s[1])
    for name, durations in by_name.items():
        extra = len(durations) - needed.get(name, 0)
        if extra > 0:
            self_time += extra * statistics.fmean(durations)
    return self_time


def traced_run(jobs: list[dict], workdir: Path, env: dict, deadline: float) -> dict:
    from harness import JobTimeout, Outputs, spawn

    outputs = Outputs()
    traces = []
    tool = str(Path(__file__).resolve())
    for job in jobs:
        spec = workdir / f"{job['id']}.trace-spec.json"
        spec.write_text(json.dumps(dict(job, src=env["PYTHONPATH"])))
        pair = {}
        for mode in ("cli", "layers"):
            spans = workdir / f"{job['id']}.{mode}.spans.json"
            out = workdir / (f"{job['id']}.out" if mode == "cli" else f"{job['id']}.layers.out")
            wall, _, code = spawn([tool, mode, str(spec), str(spans)], out, env, deadline)
            if code == -1:
                raise JobTimeout(job["id"])
            if mode == "cli":
                outputs.record(job, out, code)
            pair[mode] = json.loads(spans.read_text()) if spans.exists() else None
            pair[mode + "_wall"] = wall
        traces.append(pair)
    (workdir / "spans.json").write_text(json.dumps(traces))
    failed = outputs.verdicts({job["id"]: job for job in jobs}).count(False)
    complete = [t for t in traces if t["cli"] and t["layers"]]
    if not complete:
        raise RuntimeError("no job left a complete trace; see the .err files in " + str(workdir))
    failed += len(traces) - len(complete)
    totals = dict.fromkeys(LAYER_TIMES, 0.0)
    counts = dict.fromkeys(LAYER_COUNTS, 0)
    extent: dict[str, int] = {}
    for t in complete:
        times = inclusive(t["layers"]["spans"])
        for metric, names in LAYER_TIMES.items():
            totals[metric] += sum(times.get(name, 0.0) for name in names)
        for name, value in t["layers"]["counts"].items():
            if name == "waring.extent":
                for d, k in value.items():
                    extent[d] = max(extent.get(d, 0), k)
            elif name == "snf.max_factor_bits":
                counts[name] = max(counts[name], value)
            else:
                counts[name] += value
    counts["waring.extent"] = sum(extent.values())
    metrics = {
        "cli.import_s": (statistics.median([t["cli"]["import_s"] for t in complete]), "s"),
        "cli.self_s": (sum(cli_self(t["cli"], t["layers"]) for t in complete), "s"),
    }
    metrics.update({name: (value, "s") for name, value in totals.items()})
    metrics.update({name: (value, "count") for name, value in counts.items()})
    traced = sum(t["cli_wall"] for t in traces)
    print(f"traced pass: {traced:.2f} s of cli processes, "
          f"{sum(t['layers_wall'] for t in traces):.2f} s of replays", file=sys.stderr)
    return {"attempted": len(traces), "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(job_main(*sys.argv[1:4]))
