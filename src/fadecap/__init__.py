"""fadecap: constrained capacity, MMSE and error-rate analysis of
multi-antenna fading channels driven by finite constellations."""

__version__ = "0.1.0"

from .asymptotics import (
    BoundPair,
    DistanceDistribution,
    ExpansionBounds,
    analytic_spreads,
    distance_dist,
    distance_dist_correlated,
    distance_dist_rayleigh,
    distance_dist_ricean,
    distance_dist_spacetime,
    diversity_order,
    epsilon_bounds,
    evaluate_expansion,
    expansion_constant,
    pdf_zero_derivative_weighted,
    snr_offsets,
)
from .bounds import (
    AveragedBoundPair,
    avg_bounds,
    mi_bounds_fixed_h,
    mmse_bounds_fixed_h,
    pe_bounds_fixed_h,
)
from .mc import (
    Estimate,
    McConfig,
    avg_all,
    avg_all_spacetime,
    avg_quantity,
    empirical_epsilon,
    fixed_h_all,
    mi_fixed_h,
    mmse_fixed_h,
    pe_ml_fixed_h,
)
from .model import (
    CanonicalRayleigh,
    Constellation,
    CorrelatedRayleigh,
    Ricean,
    SnrGrid,
    SpaceTimeCode,
    make_constellation,
    pairwise_sq_distances,
    received_sq_distance,
    sample_channels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
