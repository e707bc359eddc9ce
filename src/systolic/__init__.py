"""Exact computational backend for systolic-volume bounds.

Integer simplicial homology with torsion, Smith normal forms, group
abelianizations, regular graphs of prescribed girth, sleeve assemblies,
Waring decompositions, recurrence detection, and evaluators for the
closed-form inequalities tying these quantities together.
"""

from .bounds import (
    BoundConstants,
    BoundReport,
    GroupCountReport,
    UpperBoundIngredients,
    abelian_kappa_bounds,
    best_upper_bound,
    best_upper_table,
    finite_pi1_3manifold_lb,
    group_count_bound,
    height_from_torsion,
    height_lb,
    kappa_alpha_scale,
    kappa_upper_from_systole,
    lens_lb,
    load_constants,
    multiple_class_bound,
    sandwich,
    simvol_lb,
    surface_kappa_bounds,
    systolic_area_upper_from_kappa,
    torsion_lb,
)
from .complexes import (
    BoundaryMatrix,
    MalformedSimplexError,
    NonOrientableError,
    NotPseudomanifoldError,
    OrientationResult,
    PseudomanifoldReport,
    SimplicialComplex,
    boundary_matrix,
    connected_sum,
    face_counts,
    from_facets,
    is_admissible_dim2,
    is_pseudomanifold,
    load_complex,
    orient,
)
from .corpus import corpus_complex, corpus_complexes, corpus_list
from .genfun import RationalSequence, RecurrenceVerdict, detect_linear_recurrence
from .graphs import (
    GirthSearchError,
    Graph,
    InfeasibleGraphError,
    MetricGraph,
    construct_regular_girth,
    dump_graph,
    girth,
    load_graph,
    metric_systole,
    moore_bound,
    vertex_window,
)
from .homology import (
    HomologySummary,
    TriangleTorsionReport,
    check_s2_torsion_bound,
    homology,
    torsion_order_h1,
)
from .presentations import (
    AbelianizedGroup,
    Presentation,
    abelianization,
    commutator,
    free_reduce,
    heisenberg_presentation,
    inverse_word,
    parse_presentation,
)
from .sleeves import (
    AssemblyReport,
    CubicalModel,
    assemble,
    sleeve_volume_single,
    upper_bound_even,
)
from .snf import SmithForm, smith_normal_form
from .waring import (
    FourthPowerReport,
    WaringCapError,
    WaringDecomposition,
    min_count,
    min_powers,
    verify_g4,
)

__version__ = "0.1.0"
