"""Kron reduction of noisy swing dynamics with correlated effective noise.

Pipeline: parse a grid (JSON or MATPOWER text), solve the synchronized
fixed point, linearize into slow/fast blocks, Kron-reduce to the slow
buses with the correlated-noise correction, evaluate the closed-form
COI frequency variance, and validate by stochastic simulation of the
full two-timescale system.
"""

from .errors import HomogeneityError, InputError, KronredError, NumericsError
from .grid import (Bus, ClassDefaults, Grid, Line, LinearizedSystem, OperatingPoint,
                   assemble_linearized, build_jacobian, parse_grid_json,
                   parse_matpower_case, serialize_grid_json, solve_fixed_point,
                   with_sigma)
from .reduction import (ReducedSystem, make_star_grid, reduce_grid,
                        reduced_system_from_dict, reduced_system_to_dict)
from .simulate import (EnsembleStats, OUSpec, SimConfig, Trajectory,
                       coi_frequency_variance_estimate, default_burn_in,
                       default_dt_max, integrate_full_linear, integrate_full_nonlinear,
                       integrate_reduced, linearize_and_reduce, make_time_grid,
                       ou_sample_path, run_ensemble, run_model_ensemble)
from .variance import (ModalBasis, VarianceReport, coi_variance,
                       eigendecompose_reduced, frequency_variance_kernel,
                       gamma_matrix, h_kernel, lyapunov_oracle_variance,
                       modal_trajectory)

__version__ = "0.1.0"
