"""layerlens: crossing structure, extremal density, and pathwidth tools
for 2-layer drawings of bipartite graphs."""

from .core import (
    Brick,
    BrickDecomposition,
    CrossingProfile,
    Drawing,
    Edge,
    brick_decomposition,
    crossing_profile,
    drawing_from_json,
    drawing_to_json,
    edges_cross,
    induced_subdrawing,
    is_h_quasiplanar,
    is_k_planar,
    load_drawing,
    mutually_crossing_number,
    save_drawing,
)
from .families import (
    FAMILY_NAMES,
    FamilySpec,
    advertised_k,
    band_offset,
    general_k_family,
    generate,
    opt2planar,
    planar3_family,
    planar4_family,
    planar5_family,
    planar6_family,
    special_s,
)
from .search import (
    Constraint,
    KPlanar,
    Quasiplanar,
    SearchResult,
    SearchStats,
    SplitStats,
    complete_bipartite,
    max_density,
    minimax_k,
    random_drawing,
)
from .decomposition import (
    DecompositionReport,
    PathDecomposition,
    build_path_decomposition,
    decomposition_to_json,
    edge_order,
    path_width,
    related_vertices,
    validate_decomposition,
)
from .bounds import (
    CoefficientTable,
    DensityBound,
    GeneralLowerBound,
    auxiliary_lower_bound,
    crossing_lemma_coefficient,
    crossing_lower_bound,
    default_table,
    density_lower_bound_general,
    density_threshold,
    density_upper_bound,
    quasiplanar_threshold,
    small_k_density_bound,
)

__version__ = "0.1.0"
