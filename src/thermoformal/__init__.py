"""Thermodynamic-formalism numerics for non-uniformly expanding circle maps.

Pipeline: certify the contraction condition, discretize the weighted
transfer operator, extract the spectral triple and equilibrium state, and
derive pressure, correlation decay, CLT variance, free-energy curves,
large-deviations rate functions, and parameter-response diagnostics.
"""

from .certify import (
    ConditionCReport,
    CoveringBudget,
    IterateData,
    PotentialAdmissibility,
    UniformExpansion,
    check_condition_C,
    check_condition_Cprime,
    covering_budget,
    pointwise_to_uniform,
    potential_admissible,
)
from .curves import (
    FreeEnergyCurve,
    RateFunction,
    ResponseScan,
    derivative_checks,
    free_energy_curve,
    free_energy_mc,
    ldp_empirical,
    rate_function,
    response_scan,
)
from .maps import (
    MapSpec,
    builtin_maps,
    derived_expanding_map,
    doubling_map,
    iterate_map,
    map_eval,
    map_from_json,
    map_to_json,
    mp_like_map,
    rotation_map,
)
from .observables import (
    PotentialSpec,
    coboundary,
    combine,
    constant,
    fourier_cos,
    fourier_sin,
    neg_log_deriv,
    observable_from_json,
    observable_library,
)
from .operator import (
    SpectralTriple,
    TransferMatrix,
    build_matrix,
    dominant_class,
    from_dense,
    gap_ratio,
    invariance_defect,
    leading_triple,
)
from .statistics import (
    CorrelationSeries,
    VarianceReport,
    clt_empirical,
    clt_variance,
    correlations,
)

__version__ = "0.1.0"
