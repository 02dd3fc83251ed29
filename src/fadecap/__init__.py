"""fadecap: constrained capacity, MMSE and error-rate analysis of
multi-antenna fading channels driven by finite constellations."""

__version__ = "0.1.0"

from .asymptotics import (
    BoundPair,
    DistanceDistribution,
    ExpansionBounds,
    analytic_spreads,
    distance_dist,
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
    fixed_h_bounds,
)
from .mc import (
    Estimate,
    McConfig,
    avg_all,
    empirical_epsilon,
    fixed_h_all,
)
from .model import (
    CanonicalRayleigh,
    Constellation,
    CorrelatedRayleigh,
    Ricean,
    SnrGrid,
    SpaceTimeCode,
    make_constellation,
    sample_channels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
