"""Nonparametric spectral estimation of Levy increment densities.

Estimate the density of X_{i dt} - X_{(i-1) dt} for a Levy process from n
sampled increments: empirical characteristic function, spectral cutoff and
thresholded estimators, Euler-characteristic calibration of the threshold,
and a Monte-Carlo harness benchmarking relative L2 risks against exact
stable reference laws.
"""

__version__ = "0.1.0"

from .calibration import (FALLBACK_KAPPA, KappaGrid, calibrate, chi_profile,
                          euler_characteristic, select_kappa, stabilization_index,
                          write_chi_csv)
from .errors import (LevySpecError, NoStabilizationError, QuadratureError,
                     UnsupportedModelError)
from .estimator import (ECFGrid, SpectralEstimate, UGrid, adaptive_estimate,
                        default_u_grid, default_u_max, default_u_step, default_x_grid,
                        ecf, plancherel_l2, spectral_estimate, threshold_cf,
                        threshold_level, trapezoid_weights, unthresholded_mask,
                        write_ecf_csv, write_estimate_csv)
from .models import (CustomJumpDensity, LevyTriplet, ModelClass, StableJumpDensity,
                     StableLaw, cauchy_triplet, check_small_jump_bound,
                     gamma_process_density, increment_stable_law,
                     levy_khintchine_cf, mixed_cutoff, optimal_cutoff,
                     oscillating_density, partition_density, picard_cf_bound,
                     picard_derivative_bound, spectral_bias_bound, stable_cf,
                     stable_density_l2_norm, truncated_moment_ratio,
                     truncated_second_moment)
from .risk import (BoundCheckReport, ExperimentConfig, RiskReport,
                   adaptive_risk_bound_check, cutoff_risk_bound_check,
                   reference_cf, reference_l2_norm, reference_tail_integral,
                   relative_l2_risk, relative_risk_of_cf, risk_table,
                   risk_table_csv)
from .sampling import (IncrementSample, SeedSpec, derive_seed, sample_increments,
                       stable_sample, write_increments_csv)
