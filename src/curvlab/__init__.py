"""curvlab: numerical checks of curvature identities on immersed submanifolds.

The pipeline: expressions define an immersion, jets differentiate it
exactly to fourth order, geometry turns the jets into frames, second
fundamental form data and derived scalar fields, and checks turn the
structural identities and inequalities into residuals with verdicts.
Jets are the only source of derivatives: the grid checks and the growth
and probe quadrature both read them.
"""

from .checks import (
    CheckResult,
    GrowthTable,
    ProbeParams,
    ProbeRecord,
    estimate_probe,
    growth_table,
)
from .expressions import (
    ExprNode,
    ParseError,
    evaluate_expression,
    format_expression,
    parse_expression,
)
from .geometry import (
    AlignmentPack,
    CanonicalFrame,
    ComplexPack,
    CurvaturePack,
    ImmersionRankError,
    PointGeometry,
    alignment_pack_at,
    canonical_frame_at,
    complex_pack_at,
    curvature_pack_at,
    gauss_rank_at,
    gauss_svd,
    point_geometry_at,
    scalar_field_jet,
)
from .immersions import (
    GridSpec,
    Immersion,
    build_graph_immersion,
    catalogue_lookup,
    evaluate_immersion,
)
from .jets import (
    Jet,
    JetDomainError,
    jet_constant,
    jet_elementary,
    jet_extract,
    jet_product,
    jet_variable,
)
from .scenario import (
    CheckSpec,
    Report,
    ScenarioConfig,
    emit_report,
    load_config,
    run_checks,
    run_scenario,
    sweep,
)

__version__ = "0.1.0"
