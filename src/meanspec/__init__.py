"""Numerics for mean values of completely multiplicative functions.

The package solves the delay integral equation u*sigma(u) = (sigma*chi)(u)
for step kernels chi that equal 1 on [0, 1], certifies the solutions with
alternating-series envelopes, reproduces the explicit constants of the
theory (the minimum mean delta_1, the residue-density floor delta_0, the
power-residue density bounds, the containment constants), samples the
geometric regions traced by Euler products and logarithmic means in the
unit disc, and cross-checks everything against exact sieve computations
over the integers.
"""

from .dde_solver import SigmaSolution, perturbation_gap, solve_sigma
from .errors import BudgetError, ContractError, GridError, ValidationError
from .kernels import (GridFunction, StepFunction, dickman_rho, dickman_rho_grid,
                      rho_minus, rho_minus_correction, rho_minus_grid)
from .series_bounds import (BoundsReport, complex_bounds, iterated_integral,
                            sandwich, sigma_partial, tail_envelope)
from .spectrum_region import (RegionCloud, SetSpec, ang, containment_report,
                              euler_spiral_cloud, log_spectrum_region,
                              sector_set_contour, special_radii)
from .extremal_search import (ExtremalResult, delta_constants,
                              minus_kernel_sign_changes,
                              power_residue_log_density_bound,
                              projection_auxiliary_minimum,
                              truncated_kernel_min_mean)
from .arithmetic_oracle import (MultiplicativeSpec, SieveResult, kronecker,
                                log_mean_vs_integral, mean_vs_sigma,
                                mth_root_log_density, sieve_sums,
                                subset_sum_counts)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "BudgetError", "ContractError", "ExtremalResult",
    "GridError", "GridFunction", "MultiplicativeSpec", "RegionCloud",
    "SetSpec", "SieveResult", "SigmaSolution", "StepFunction",
    "ValidationError", "ang", "complex_bounds", "containment_report",
    "delta_constants", "dickman_rho", "dickman_rho_grid",
    "euler_spiral_cloud", "iterated_integral", "kronecker",
    "log_mean_vs_integral", "log_spectrum_region", "mean_vs_sigma",
    "minus_kernel_sign_changes", "mth_root_log_density",
    "perturbation_gap", "power_residue_log_density_bound",
    "projection_auxiliary_minimum", "rho_minus", "rho_minus_correction",
    "rho_minus_grid", "sandwich", "sector_set_contour", "sieve_sums",
    "sigma_partial", "solve_sigma", "special_radii", "subset_sum_counts",
    "tail_envelope", "truncated_kernel_min_mean",
]
