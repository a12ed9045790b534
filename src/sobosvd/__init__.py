"""Quadrature-weighted SVD and Tucker truncation of sampled functions,
with exact Sobolev-norm error identities, two-sided bounds and
rate-fit diagnostics.

Submodules load lazily so that the command line can pin BLAS thread
counts before anything imports numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "AxisMismatchError",
        "ConfigError",
        "DegenerateDataError",
        "InvalidAxisError",
        "ModeError",
        "SampleFileError",
        "SamplingError",
        "SobosvdError",
        "UnknownCaseError",
    ),
    "discretization": (
        "Axis",
        "GridFunction",
        "UNIFORM_TRAPEZOID_FD2",
        "inner_l2",
        "make_axis",
        "partial_derivative",
        "sample",
    ),
    "tensor_core": ("combined_weights", "matricize", "mode_product"),
    "svd_engine": (
        "DEFAULT_RANK_TOL",
        "RETAIN_REL",
        "SingularSystem",
        "mode_svd",
        "mode_svds",
        "numerical_rank",
        "retained_count",
    ),
    "sobolev": (
        "DerivativeData",
        "derivative_data",
        "norm_ek",
        "norm_h1",
        "norm_l2",
        "sobolev_sq",
    ),
    "truncation": (
        "SeriesSplit",
        "TuckerApprox",
        "h1_sandwich",
        "hooi",
        "hosvd_project",
        "series_split",
    ),
    "diagnostics": (
        "CONVERGED",
        "DIVERGING",
        "UNDECIDED",
        "RateFit",
        "h1_convergence_flag",
        "rate_fit",
    ),
    "cases": (
        "AnalyticCase",
        "CaseOracle",
        "get_case",
        "list_cases",
        "sample_case",
    ),
    "experiment": (
        "ExperimentConfig",
        "ExperimentResult",
        "load_samples",
        "run_experiment",
        "save_samples",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
