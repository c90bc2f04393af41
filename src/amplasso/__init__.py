"""AMP-based LASSO solver with exact high-dimensional risk prediction.

The package has three layers: discrete priors with closed-form
Gaussian-channel expectations (``priors``, ``scalar_risk``), the solvers
(``amp`` for the memory-corrected iteration, ``message_passing`` for the
per-edge oracle), and the asymptotic theory (``state_evolution``:
calibration, risk, phase transition).  ``instances`` builds reproducible
problem realizations and ``harness`` drives the benchmark protocols.
"""

from .amp import (AmpState, NumericalBlowupError, SolverResult,
                  ThresholdPolicy, amp_run, amp_step, effective_lambda,
                  estimate_tau, initial_state, ist_run, ist_solve_lasso,
                  iterate, lasso_kkt_gap, lasso_objective, operator_norm)
from .gaussians import Phi, phi
from .harness import ExperimentResult, ExperimentSpec, run_experiment
from .instances import (Instance, ModelParams, gen_gaussian_instance,
                        gen_instance, gen_planted_instance, measurement_count)
from .message_passing import reduced_mp_estimate, reduced_mp_step
from .priors import (DiscretePrior, sample_with_rng, st_keep_prob, st_mse,
                     three_point)
from .scalar_risk import (MinimaxResult, minimax_soft_threshold, risk_M,
                          soft_threshold)
from .state_evolution import (LassoRiskPrediction, SETrajectory, TheoryError,
                              alpha_min, alpha_of_lambda, boundary_alpha,
                              calibrate_lambda, lasso_risk, minimax_risk_star,
                              parametric_boundary, rho_c, se_fixed_point,
                              se_map, se_run)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
