"""Geometric statistics on stratified CAT(0) model spaces.

Concrete tangent-cone geometry for four model spaces, exact tangent
moments for finitely supported measures, closed-form Fréchet means with
first-order certificates, covering/regularity statistics on direction
nets, and a seeded Monte Carlo harness that verifies the convergence of
scaled empirical tangent fields to their Gaussian limit.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainError,
    NumericalConsistencyError,
    SpaceMismatchError,
    StratcltError,
)
from .geometry import (
    Direction,
    DirectionNet,
    Point,
    SpaceSpec,
    TangentVector,
    angular_distance,
    angular_pairing,
    apex,
    conical_distance,
    distance,
    exp_map,
    geodesic_point,
    log_map,
    net_from_directions,
    scale,
    stratum_of,
    zero_vector,
)
from .measures import (
    DiscreteMeasure,
    MeanDiagnostics,
    TangentMeasure,
    ValidationConfig,
    directional_derivative,
    escape_cone_contains,
    frechet_function,
    frechet_mean,
    pushforward,
    sample,
    tangent_mean,
    validate_localized,
)
from .fields import (
    CovMatrix,
    FieldOnNet,
    GaussianFieldSampler,
    centered_pairing,
    cov_matrix,
    empirical_field,
    l2_norm_expectation,
    tangent_cov,
)
from .regularity import (
    CoveringProfile,
    ModulusTable,
    build_net,
    covering_number,
    covering_number_bounds,
    dimension_constant,
    holder_estimate,
    modulus,
)
from .harness import (
    CLTReport,
    ExperimentConfig,
    compare_covariance,
    config_from_json,
    ks_distance,
    run_clt_experiment,
)
from .rng import substream
