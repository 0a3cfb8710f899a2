"""Kron reduction of noisy swing dynamics with correlated effective noise.

Pipeline: parse a grid (JSON or MATPOWER text), solve the synchronized
fixed point, linearize into slow/fast blocks, Kron-reduce to the slow
buses with the correlated-noise correction, evaluate the closed-form
COI frequency variance, and validate by stochastic simulation of the
full two-timescale system.

The names below load their module on first use (PEP 562), so importing
the package loads no numpy: `kronred.cli` can pin the BLAS threads first.
"""

import importlib

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("HomogeneityError", "InputError", "KronredError", "NumericsError"),
                    "errors"),
    **dict.fromkeys(("Bus", "ClassDefaults", "Grid", "Line", "LinearizedSystem",
                     "OperatingPoint", "assemble_linearized", "build_jacobian", "linearize",
                     "parse_grid_json", "parse_matpower_case", "serialize_grid_json",
                     "solve_fixed_point", "with_sigma"), "grid"),
    **dict.fromkeys(("ReducedSystem", "eigendecompose_reduced", "make_star_grid", "reduce_grid",
                     "reduced_system_to_dict", "xi_covariance"), "reduction"),
    **dict.fromkeys(("EnsembleStats", "OUSpec", "SimConfig", "Trajectory", "default_burn_in",
                     "default_dt_max", "integrate", "linearize_and_reduce", "make_time_grid",
                     "ou_sample_path", "run_model_ensemble"), "simulate"),
    **dict.fromkeys(("VarianceReport", "coi_variance", "frequency_variance_kernel",
                     "gamma_matrix", "h_kernel", "lyapunov_oracle_variance", "modal_trajectory"),
                    "variance"),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
