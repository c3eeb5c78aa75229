"""Geometric statistics on stratified CAT(0) model spaces.

Concrete tangent-cone geometry for four model spaces, exact tangent
moments for finitely supported measures, closed-form Fréchet means with
first-order certificates, covering/regularity statistics on direction
nets, and a seeded Monte Carlo harness that verifies the convergence of
scaled empirical tangent fields to their Gaussian limit.

Each public name below is imported from its module on first access, so
importing the package loads none of the modules.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "ConfigError DomainError NumericalConsistencyError SpaceMismatchError "
              "StratcltError",
    "geometry": "Direction Point SpaceSpec TangentVector apex distance exp_map geodesic_point "
                "log_map stratum_of zero_vector",
    "directions": "DirectionNet net_from_directions",
    "measures": "DiscreteMeasure MeanDiagnostics TangentMeasure ValidationConfig "
                "frechet_function frechet_mean pushforward validate_localized",
    "fields": "CovMatrix GaussianFieldSampler cov_matrix",
    "covering": "CoveringProfile dimension_constant",
    "regularity": "build_net",
    "harness": "CLTReport ExperimentConfig compare_covariance config_from_json "
               "ks_distance run_clt_experiment",
    "rng": "substream",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted([*globals(), *_EXPORTS, *_MODULE_OF])
