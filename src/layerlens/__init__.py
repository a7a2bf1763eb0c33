"""layerlens: crossing structure, extremal density, and pathwidth tools
for 2-layer drawings of bipartite graphs.

Each name below is imported from its home module on first access
(PEP 562) and then kept in this namespace, as an eager import would keep
it: ``import layerlens`` loads no submodule, and ``from layerlens import
max_density`` loads ``core`` and ``search`` alone.
"""

from importlib import import_module as _import_module

_CORE = (
    "Brick",
    "BrickDecomposition",
    "CrossingProfile",
    "Drawing",
    "Edge",
    "brick_decomposition",
    "crossing_profile",
    "drawing_from_json",
    "drawing_to_json",
    "edges_cross",
    "induced_subdrawing",
    "is_h_quasiplanar",
    "is_k_planar",
    "load_drawing",
    "mutually_crossing_number",
    "save_drawing",
)
_FAMILIES = (
    "FAMILY_NAMES",
    "FamilySpec",
    "advertised_k",
    "band_offset",
    "general_k_family",
    "generate",
    "opt2planar",
    "planar3_family",
    "planar4_family",
    "planar5_family",
    "planar6_family",
    "special_s",
)
_SEARCH = (
    "Constraint",
    "KPlanar",
    "Quasiplanar",
    "SearchResult",
    "SearchStats",
    "SplitStats",
    "complete_bipartite",
    "max_density",
    "minimax_k",
    "random_drawing",
)
_DECOMPOSITION = (
    "DecompositionReport",
    "PathDecomposition",
    "build_path_decomposition",
    "decomposition_to_json",
    "edge_order",
    "path_width",
    "related_vertices",
    "validate_decomposition",
)
_BOUNDS = (
    "CoefficientTable",
    "DensityBound",
    "GeneralLowerBound",
    "auxiliary_lower_bound",
    "crossing_lemma_coefficient",
    "crossing_lower_bound",
    "default_table",
    "density_lower_bound_general",
    "density_threshold",
    "density_upper_bound",
    "quasiplanar_threshold",
    "small_k_density_bound",
)
# the submodules an eager import of the names above would bind
_SUBMODULES = ("core", "families", "search", "decomposition", "bounds")

__all__ = [*_CORE, *_FAMILIES, *_SEARCH, *_DECOMPOSITION, *_BOUNDS, *_SUBMODULES]
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        # not ``from . import <name>``: that looks the name up on this
        # package first, which would call this function again, without end
        return _import_module(f".{name}", __name__)
    if name in _CORE:
        from . import core as home
    elif name in _FAMILIES:
        from . import families as home
    elif name in _SEARCH:
        from . import search as home
    elif name in _DECOMPOSITION:
        from . import decomposition as home
    elif name in _BOUNDS:
        from . import bounds as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value


def __dir__() -> list[str]:
    """The names an eager import would bind: the exports, the five
    submodules, any other submodule loaded since, and the module's own
    dunders; not the lazy machinery."""
    shown = {key for key in globals() if not key.startswith("_") or key.startswith("__")}
    return sorted((shown | set(__all__)) - {"__all__", "__dir__", "__getattr__"})
