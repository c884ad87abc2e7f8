"""cubartin: cocompact cubulation of 2-dimensional Artin groups.

Decides the cubulation classification from a labeled defining graph, builds
and verifies the nonpositively curved cube complexes of the constructive
route, and ships the supporting cubical-geometry and Garside word-algebra
engines.
"""

from .defining_graph import (
    COCOMPACTLY_CUBULATED,
    NOT_COCOMPACTLY_CUBULATED,
    OUTSIDE_CLASSIFICATION,
    DefiningGraph,
    GraphParseError,
    classify_edges,
    graph_text,
    is_two_dimensional,
    parse_graph,
    satisfies_condition_iii,
    verdict,
)
from .cube_model import (
    CubeComplex,
    ComplexParseError,
    Edge,
    check_npc,
    complex_text,
    euler_characteristic,
    parse_complex,
    vertex_link,
)
from .presentations import Presentation, extract_presentation
from .constructions import (
    build_K_even,
    build_K_odd,
    build_for_graph,
    build_from_plan,
    build_product_with_circle,
    build_salvetti,
)
from .toolkit import (
    CubicalStructure,
    NotCat0Error,
    Wallspace,
    is_median,
    parse_wallspace,
    sageev_dual,
)
from .artin_algebra import (
    ArtinContext,
    DihedralContext,
    SphericalContext,
    build_phi,
    commutator_membership,
    even_rewrite,
)
from .snf import smith_normal_form

__version__ = "0.1.0"
