"""Input rules at the public scalar entry points: NaN and +-inf get a named error."""

import numpy as np
import pytest

from amplasso import (ModelParams, ThresholdPolicy, TheoryError, alpha_min, alpha_of_lambda,
                      boundary_alpha, calibrate_lambda, effective_lambda, gen_instance,
                      ist_solve_lasso, lasso_kkt_gap, lasso_risk, measurement_count,
                      minimax_risk_star, minimax_soft_threshold, parametric_boundary,
                      reduced_mp_estimate, reduced_mp_step, rho_c, risk_M, se_fixed_point,
                      se_map, se_run, soft_threshold, st_keep_prob, st_mse, three_point)

PARAMS = ModelParams(delta=0.64, sigma2=0.2, prior=three_point(0.128))
PRIOR = PARAMS.prior
INSTANCE = gen_instance(30, PARAMS, 0)
X = np.zeros(INSTANCE.n)
MESSAGES = np.zeros((INSTANCE.m, INSTANCE.n))

# (label, the call with the argument v, the argument's name in the message).
# Each of the first twelve returned NaN for a NaN argument, lasso_kkt_gap
# returned 0.0, and alpha_of_lambda and lasso_risk failed inside brentq on
# a NaN function value without naming lam.
ENTRIES = [
    ("soft_threshold", lambda v: soft_threshold(1.0, v), "theta"),
    ("st_mse.tau", lambda v: st_mse(PRIOR, v, 1.0), "tau"),
    ("st_mse.theta", lambda v: st_mse(PRIOR, 1.0, v), "theta"),
    ("st_keep_prob.tau", lambda v: st_keep_prob(PRIOR, v, 1.0), "tau"),
    ("st_keep_prob.theta", lambda v: st_keep_prob(PRIOR, 1.0, v), "theta"),
    ("se_map.tau2", lambda v: se_map(v, 1.0, PARAMS), "tau2"),
    ("se_map.theta", lambda v: se_map(1.0, v, PARAMS), "theta"),
    ("risk_M", lambda v: risk_M(0.1, v), "alpha"),
    ("parametric_boundary", parametric_boundary, "alpha"),
    ("effective_lambda", lambda v: effective_lambda(X, v, INSTANCE.m), "theta_star"),
    ("reduced_mp_step", lambda v: reduced_mp_step(MESSAGES, INSTANCE, v), "theta"),
    ("reduced_mp_estimate", lambda v: reduced_mp_estimate(MESSAGES, INSTANCE, v), "theta"),
    ("measurement_count", lambda v: measurement_count(v, 100), "delta"),
    ("lasso_kkt_gap", lambda v: lasso_kkt_gap(INSTANCE, X, v), "lam"),
    ("alpha_of_lambda", lambda v: alpha_of_lambda(v, PARAMS), "lam"),
    ("lasso_risk", lambda v: lasso_risk(v, PARAMS), "lam"),
    # entries that already named their argument
    ("risk_M.eps", lambda v: risk_M(v, 1.0), "eps"),
    ("three_point", three_point, "eps"),
    ("minimax_soft_threshold", minimax_soft_threshold, "eps"),
    ("alpha_min", alpha_min, "delta"),
    ("rho_c", rho_c, "delta"),
    ("boundary_alpha", boundary_alpha, "delta"),
    ("minimax_risk_star.delta", lambda v: minimax_risk_star(v, 0.1), "delta"),
    ("minimax_risk_star.rho", lambda v: minimax_risk_star(0.5, v), "rho"),
    ("se_run", lambda v: se_run(PARAMS, v), "alpha"),
    ("se_fixed_point", lambda v: se_fixed_point(PARAMS, v), "alpha"),
    ("calibrate_lambda", lambda v: calibrate_lambda(v, PARAMS), "alpha"),
    ("ThresholdPolicy.rms", ThresholdPolicy.rms, "alpha"),
    ("ThresholdPolicy.fixed", ThresholdPolicy.fixed, "theta"),
    ("ist_solve_lasso", lambda v: ist_solve_lasso(INSTANCE, v), "lam"),
    ("ModelParams.delta", lambda v: ModelParams(v, 0.2, PRIOR), "delta"),
    ("ModelParams.sigma2", lambda v: ModelParams(0.64, v, PRIOR), "sigma2"),
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call, name", [entry[1:] for entry in ENTRIES],
                         ids=[entry[0] for entry in ENTRIES])
def test_nonfinite_argument_is_a_named_value_error(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must "):
        call(value)


def test_lasso_risk_whose_mse_overflows_is_a_theory_error():
    # it returned mse=-inf: tau_*^2 rounds below sigma^2 and delta * (tau_*^2 -
    # sigma^2) overflows, and the identity check's tolerance was infinite too
    with pytest.raises(TheoryError, match="predicted MSE -inf < 0"):
        lasso_risk(1e150, ModelParams(1e300, 1e300, three_point(0.064)))
