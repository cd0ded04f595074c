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
                          manufactured_run, test_function_family,
                          trajectory_l2_distance, weak_residual_family)
from .elasticity import (CorrectionPair, ElasticityOperator, acoustic_matrix,
                         assemble_displacement, solve_correction,
                         zero_body_force)
from .estimates import MonitorAccumulator, MonitorSeries
from .model import (DoubleWell, Grid, ModelParams, ScalarField, Trajectory,
                    flux_primitive, make_initial_profile, smoothed_abs,
                    sqrt_gradient_transform)
from .mollifier import (BUMP_MASS, MollifierError, MollifierKernel,
                        build_mollified_table)
from .solver import (SolverAbort, SolverConfig, StepReport, discrete_rhs,
                     run, run_with_coupling_table, step)
from .tensors import ElasticTensor, SymMatrix3

__version__ = "0.1.0"
