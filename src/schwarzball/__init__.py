"""Several-variable Schwarzian derivatives on the unit ball.

Exact jet arithmetic, Schwarzian tensors and their composition rule, the
Bergman-invariant Schwarzian norm, Koebe transforms and order functionals of
normalized maps, variational extremality diagnostics, closed-form order
bounds, and a verification CLI.
"""

__version__ = "0.1.0"

from .errors import (
    BasePointMismatchError,
    CompositionCenterError,
    DimensionError,
    InfeasibleSearchError,
    MapSpecError,
    NormalizationError,
    OutsideDomainError,
    SchwarzballError,
    SingularDifferentialError,
    VanishingDenominatorError,
)
from .jets import (
    Jet,
    JetVector,
    jet_compose,
    jet_det,
    jet_jacobian,
    jet_partial,
    jet_reciprocal,
    multi_indices,
)
from .maps import (
    CompositionMap,
    MapSpec,
    MoebiusMap,
    PolyMap,
    affine_map,
    automorphism_from_center,
    automorphism_validate,
    identity_map,
    map_eval,
    map_jet_at,
    moebius_pole,
    moebius_pole_at_e1,
)
from .schwarzian import (
    SchwarzianTensor,
    canonical_residual,
    chain_rule_transform,
    pde_residual,
    schwarzian_at,
    schwarzian_of,
    schwarzian_ofs,
)
from .bergman import (
    MetricTensor,
    NormEstimate,
    metric_at,
    schwarzian_norm_at,
    schwarzian_norm_sup,
    schwarzian_norm_sups,
    schwarzian_norms_at,
)
from .family import (
    MembershipResult,
    grad_jacobian,
    koebe_map,
    membership_check,
    norm_order_functional,
    normalize_map,
    trace_order_functional,
)
from .variational import (
    BoundReport,
    DecoupledReport,
    ExpansionReport,
    SearchResult,
    SubfamilyConfig,
    VariationReport,
    bounds_report,
    cubic_subfamily,
    decoupled_residuals,
    extremal_search,
    lemma31_check,
    matrix_A,
    moebius_subfamily,
    variation_expansion_check,
)
