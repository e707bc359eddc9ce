"""Exact computational backend for systolic-volume bounds.

Integer simplicial homology with torsion, Smith normal forms, group
abelianizations, regular graphs of prescribed girth, sleeve assemblies,
Waring decompositions, recurrence detection, and evaluators for the
closed-form inequalities tying these quantities together.

Importing the package loads none of its modules: each name below is
imported from its module on first use (PEP 562), so a CLI command pays
only for the modules it runs.  ``systolic.homology`` is the module; the
function is ``systolic.homology.homology``.
"""

__version__ = "0.1.0"

# module -> the names it exports through the package
_EXPORTS_BY_MODULE = {
    "bounds": (
        "BoundConstants",
        "BoundReport",
        "GroupCountReport",
        "UpperBoundIngredients",
        "abelian_kappa_bounds",
        "best_upper_bound",
        "best_upper_table",
        "finite_pi1_3manifold_lb",
        "group_count_bound",
        "height_from_torsion",
        "height_lb",
        "kappa_alpha_scale",
        "kappa_upper_from_systole",
        "lens_lb",
        "load_constants",
        "multiple_class_bound",
        "sandwich",
        "simvol_lb",
        "surface_kappa_bounds",
        "systolic_area_upper_from_kappa",
        "torsion_lb",
    ),
    "complexes": (
        "BoundaryMatrix",
        "MalformedSimplexError",
        "NonOrientableError",
        "NotPseudomanifoldError",
        "OrientationResult",
        "PseudomanifoldReport",
        "SimplicialComplex",
        "boundary_matrix",
        "connected_sum",
        "face_counts",
        "from_facets",
        "is_admissible_dim2",
        "is_pseudomanifold",
        "load_complex",
        "orient",
    ),
    "corpus": ("corpus_complex", "corpus_complexes", "corpus_list"),
    "genfun": ("RationalSequence", "RecurrenceVerdict", "detect_linear_recurrence"),
    "graphs": (
        "GirthSearchError",
        "Graph",
        "InfeasibleGraphError",
        "MetricGraph",
        "construct_regular_girth",
        "dump_graph",
        "girth",
        "load_graph",
        "metric_systole",
        "moore_bound",
        "vertex_window",
    ),
    # not the function homology: systolic.homology is always this submodule
    "homology": (
        "HomologySummary",
        "TriangleTorsionReport",
        "check_s2_torsion_bound",
        "torsion_order_h1",
    ),
    "presentations": (
        "AbelianizedGroup",
        "Presentation",
        "abelianization",
        "commutator",
        "free_reduce",
        "heisenberg_presentation",
        "inverse_word",
        "parse_presentation",
    ),
    "sleeves": (
        "AssemblyReport",
        "CubicalModel",
        "assemble",
        "sleeve_volume_single",
        "upper_bound_even",
    ),
    "snf": ("SmithForm", "smith_normal_form"),
    "waring": (
        "FourthPowerReport",
        "WaringCapError",
        "WaringDecomposition",
        "min_count",
        "min_powers",
        "verify_g4",
    ),
}
# export name -> its module
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
