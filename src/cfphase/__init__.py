"""cfphase: a 1D laboratory for a phase-transition model driven by
configurational forces.

The package couples a quasi-static linear elasticity solve (closed form on
the interval) to an explicit conservative finite-difference integration of a
degenerate parabolic order-parameter equation, monitors the discrete
analogues of the model's a priori bounds at runtime, and provides
regularization-width sweeps, weak-form residual diagnostics, and
manufactured-solution order verification.
"""

from .config import ConfigError, RunConfig, parse_config
from .convergence import (ManufacturedSolution, MmsReport, SweepReport,
                          TestFunction, compactness_distance, kappa_sweep,
                          manufactured_run, signed_flux_transform,
                          test_function_family, trajectory_l2_distance,
                          weak_residual, weak_residual_family)
from .elasticity import (CorrectionPair, ElasticityOperator, acoustic_matrix,
                         assemble_displacement, assemble_stress,
                         compute_ustar, equilibrium_residual,
                         solve_correction, zero_body_force)
from .estimates import (MonitorAccumulator, MonitorSeries, grad_l2_sq,
                        holder_product_bound, lyapunov,
                        reciprocal_dissipation_increment,
                        weighted_dissipation_increment, weighted_sxx_l2)
from .model import (DoubleWell, Grid, ModelParams, ScalarField, Trajectory,
                    driving_force, flux_primitive, free_energy, smoothed_abs,
                    sqrt_flux_primitive, sqrt_gradient_transform)
from .mollifier import (BUMP_MASS, MollifierError, MollifierKernel,
                        bump_profile, build_mollified_table, mollify_time,
                        picard_sweep)
from .quadrature import QuadratureError, adaptive_simpson
from .solver import (SolverAbort, SolverConfig, StepReport, cfl_dt,
                     discrete_rhs, make_initial_profile, run,
                     run_with_coupling_table, step)
from .tensors import ElasticTensor, SymMatrix3

__version__ = "0.1.0"
