"""Exact discrepancy analysis of symmetrized Hammersley-type point sets.

Constructs base-2 Hammersley-type point sets and their symmetrizations with
exact dyadic coordinates, computes Haar coefficients of their local
discrepancy in closed form, assembles sequence-space and classical
discrepancy norms, and runs cubature-error experiments. Everything that can
be exact is exact; floats appear only in final norm aggregation.
"""

from .besov import (
    Admissibility,
    BesovParams,
    NormBreakdown,
    besov_norm_exact,
    besov_norm_truncated,
    level_term,
    scaling_ratio,
    validate,
)
from .classical import (
    l2_warnock,
    local_discrepancy,
    lp_estimate,
    lp_exact_even,
    star_discrepancy,
)
from .haar import (
    CoefficientPrediction,
    HaarIndex,
    LevelSummary,
    axis_factor,
    counting_sums,
    grid_indices,
    haar_eval,
    level_counting_sums,
    level_value_counts,
    low_level_sign,
    mu_all_at_level,
    mu_discrepancy,
    mu_grid,
    mu_point,
    mu_volume,
    oracle_mu,
    oracle_mu_grid,
    predict_davenport,
    predict_symmetrized,
)
from .pointsets import (
    FAMILIES,
    SIGMA_PRESETS,
    Point,
    PointMultiset,
    SignPattern,
    build_family,
    family_reflections,
    hammersley_moments,
    hammersley_type,
    is_net,
    is_transpose_invariant,
    reflect,
    symmetrize_davenport,
    symmetrize_full,
)
from .qmc import (
    ErrorRow,
    Integrand,
    RateFit,
    corner_product,
    error_table,
    family_integral,
    fit_rate,
    monomial,
    qmc_integrate,
)

__version__ = "0.1.0"
