"""End-to-end acceptance suite.

Each test enforces one numbered exit criterion at its stated tolerance and
prints a single PASS/FAIL line.  The protocols run at full stated sizes;
the whole module takes a few minutes.

Note on criterion 9: its printed protocol places 800 nonzeros against
m = 1600 measurements at delta = 0.2, i.e. sparsity-per-measurement
rho = 0.5, which is twice the l1 recovery boundary rho_c(0.2) ~ 0.2436.
The scalar recursion then has a strictly positive fixed point (MSE floor
~ 0.09), so no thresholding solver can reach MSE <= 1e-4 and the
criterion cannot pass as stated.  It is asserted faithfully anyway; the
companion test directly below demonstrates the >= 10x speedup at a
recoverable sparsity (160 nonzeros, rho = 0.1).
"""

import time

import numpy as np
import pytest

from amplasso import (ExperimentSpec, ModelParams, ThresholdPolicy, amp_run,
                      boundary_alpha, effective_lambda, gen_gaussian_instance,
                      gen_instance, gen_planted_instance, initial_state,
                      amp_step, ist_run, ist_solve_lasso,
                      lasso_kkt_gap, lasso_objective, alpha_of_lambda,
                      minimax_soft_threshold, parametric_boundary, rho_c,
                      st_keep_prob, st_mse, three_point)
from amplasso.harness import (run_convergence, run_mse_vs_lambda, run_noise_histogram,
                              run_resampled_oracle, run_se_tracking)
from amplasso.instances import RADEMACHER
from amplasso.message_passing import reduced_mp_estimate, reduced_mp_step
from amplasso.priors import DiscretePrior, sample_with_rng

JOBS = 2

BENCH = ModelParams(delta=0.64, sigma2=0.2, prior=three_point(0.128))


def report(cid: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{cid}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{cid}: {detail}"
    assert elapsed < budget, f"{cid}: runtime {elapsed:.1f}s over budget {budget}s"


def test_c1_minimax_constant():
    t0 = time.time()
    res = minimax_soft_threshold(0.1)
    ok = abs(res.alpha_sharp - 1.1402) <= 1e-3
    report("C1", ok, f"alpha_sharp(0.1) = {res.alpha_sharp:.6f} (target 1.1402 +- 1e-3)",
           time.time() - t0, 1.0)


def test_c2_phase_boundary_constant_and_consistency():
    t0 = time.time()
    rc = rho_c(0.2)
    ok_value = abs(rc - 0.2436) <= 5e-4
    worst = 0.0
    for alpha in np.linspace(0.1, 6.0, 50):
        delta, rho = parametric_boundary(float(alpha))
        worst = max(worst, abs(rho - rho_c(delta)))
    ok_sweep = worst <= 1e-6
    report("C2", ok_value and ok_sweep,
           f"rho_c(0.2) = {rc:.6f}; max sweep deviation = {worst:.2e}",
           time.time() - t0, 5.0)


def test_c3_threshold_prescription_constant():
    t0 = time.time()
    alpha = boundary_alpha(0.2)
    delta, rho = parametric_boundary(alpha)
    ok = abs(alpha - 1.408) <= 2e-3 and abs(delta - 0.2) < 1e-9 \
        and abs(rho - rho_c(0.2)) < 1e-6
    report("C3", ok, f"alpha(delta=0.2) = {alpha:.6f} (target 1.408 +- 0.002)",
           time.time() - t0, 1.0)


def test_c4_fixed_point_is_lasso_optimum():
    t0 = time.time()
    alpha = alpha_of_lambda(1.0, BENCH)
    worst_gap_ratio = 0.0
    worst_obj_ratio = 0.0
    for seed in range(10):
        inst = gen_gaussian_instance(500, BENCH, seed=seed)
        res = amp_run(inst, ThresholdPolicy.rms(alpha), max_iter=20000, tol=1e-10)
        assert res.converged
        lam_eff = effective_lambda(res.x_hat, res.theta, inst.m)
        gap = lasso_kkt_gap(inst, res.x_hat, lam_eff)
        worst_gap_ratio = max(worst_gap_ratio, gap / lam_eff)
        ref = ist_solve_lasso(inst, lam_eff, rescale_opnorm=0.95, max_iter=10000)
        c_amp = lasso_objective(inst, res.x_hat, lam_eff)
        c_ist = lasso_objective(inst, ref.x_hat, lam_eff)
        worst_obj_ratio = max(worst_obj_ratio, abs(c_amp - c_ist) / c_ist)
    ok = worst_gap_ratio <= 1e-4 and worst_obj_ratio <= 1e-6
    report("C4", ok,
           f"max kkt_gap/lambda = {worst_gap_ratio:.2e} (<=1e-4); "
           f"max objective rel diff vs IST reference = {worst_obj_ratio:.2e} (<=1e-6)",
           time.time() - t0, 120.0)


def test_c5_state_evolution_tracking():
    t0 = time.time()
    spec = ExperimentSpec(kind="SE_TRACKING", n=4000, params=BENCH, alpha=2.0,
                          seeds=tuple(range(20)), t_target=20, jobs=JOBS)
    rows = run_se_tracking(spec).rows
    worst = max(abs(r["empirical_mean"] - r["tau2_prediction"])
                / max(r["empirical_se"], 1e-300) for r in rows)
    ok = worst <= 4.0
    report("C5", ok, f"max |empirical - tau_t^2| = {worst:.2f} SE (<= 4 SE), t <= 20",
           time.time() - t0, 600.0)


@pytest.fixture(scope="module")
def risk_sweep_gaussian():
    spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=1000, params=BENCH,
                          ensemble="gaussian", seeds=tuple(range(20)),
                          lambdas=(0.25, 0.5, 1.0, 1.5, 2.0),
                          max_iter=3000, tol=1e-8, jobs=JOBS)
    t0 = time.time()
    rows = run_mse_vs_lambda(spec).rows
    return rows, time.time() - t0


def test_c6_lasso_risk_prediction(risk_sweep_gaussian):
    rows, elapsed = risk_sweep_gaussian
    worst = max(abs(r["empirical_mse_mean"] - r["predicted_mse"])
                / r["predicted_mse"] for r in rows)
    ok = worst <= 0.05
    report("C6", ok, f"max relative deviation from predicted MSE = {worst:.3%} (<= 5%)",
           elapsed, 900.0)


def test_c7_universality_rademacher(risk_sweep_gaussian):
    rows_g, elapsed_g = risk_sweep_gaussian
    t0 = time.time()
    spec = ExperimentSpec(kind="MSE_VS_LAMBDA", n=1000, params=BENCH,
                          ensemble="rademacher", seeds=tuple(range(20)),
                          lambdas=(0.25, 0.5, 1.0, 1.5, 2.0),
                          max_iter=3000, tol=1e-8, jobs=JOBS)
    rows_r = run_mse_vs_lambda(spec).rows
    worst_pred = max(abs(r["empirical_mse_mean"] - r["predicted_mse"])
                     / r["predicted_mse"] for r in rows_r)
    worst_z = 0.0
    for rg, rr in zip(rows_g, rows_r):
        assert rg["lambda"] == rr["lambda"]
        pooled = np.hypot(rg["empirical_mse_se"], rr["empirical_mse_se"])
        worst_z = max(worst_z, abs(rg["empirical_mse_mean"]
                                   - rr["empirical_mse_mean"]) / pooled)
    ok = worst_z < 2.0 and worst_pred <= 0.05
    report("C7", ok,
           f"max |gaussian - rademacher| = {worst_z:.2f} pooled SE (< 2); "
           f"rademacher max deviation from prediction = {worst_pred:.3%}",
           elapsed_g + (time.time() - t0), 900.0)


def test_c8_effective_noise_gaussianity():
    t0 = time.time()
    params = ModelParams(delta=0.5, sigma2=0.0, prior=three_point(0.125))
    spec = ExperimentSpec(kind="NOISE_HISTOGRAM", n=4000, params=params,
                          ensemble="rademacher", seeds=tuple(range(40)),
                          t_target=10, nnz_levels=(500,), jobs=JOBS)
    summaries = run_noise_histogram(spec).extra["summaries"]
    amp, ist = summaries["amp"], summaries["ist"]
    ok_mean = abs(amp["mean"] - 1.0) <= 0.02
    ok_ks = amp["ks_p"] >= 0.01
    ist_displacement = abs(ist["mean"] - 1.0) / ist["se_mean"]
    ok_ist = ist_displacement > 5.0
    report("C8", ok_mean and ok_ks and ok_ist,
           f"amp mean = {amp['mean']:.4f} (1.00 +- 0.02), KS p = {amp['ks_p']:.3f} "
           f"(>= 0.01); ist displaced {ist_displacement:.0f} SE (> 5)",
           time.time() - t0, 600.0)


def _first_hit(rows: list[dict], engine: str, nnz: int, target: float) -> int | None:
    """First t at which a CONVERGENCE lane's recorded MSE drops to ``target``."""
    hits = [r["t"] for r in rows
            if r["engine"] == engine and r["nnz"] == nnz and r["mse"] <= target]
    return min(hits) if hits else None


def _convergence_race(nnz: int, max_iter: int):
    params = ModelParams(delta=0.2, sigma2=0.0, prior=three_point(nnz / 8000))
    spec = ExperimentSpec(kind="CONVERGENCE", n=8000, params=params, alpha=1.41,
                          ensemble="rademacher", seeds=(0,), nnz_levels=(nnz,),
                          alpha_ist=1.8, ist_rescale=0.95, max_iter=max_iter)
    rows = run_convergence(spec).rows
    t_amp = _first_hit(rows, "amp", nnz, 1e-4)
    t_ist = _first_hit(rows, "ist", nnz, 1e-4)
    return rows, t_amp, t_ist


def test_c9_convergence_speedup_as_stated():
    # rho = 800/1600 = 0.5 > rho_c(0.2): both engines stall at the positive
    # MSE floor of the scalar recursion, so the target is unreachable; see
    # the module docstring.  Asserted faithfully; expected to fail.
    t0 = time.time()
    rows, t_amp, t_ist = _convergence_race(800, 300)
    floor_amp = min(r["mse"] for r in rows if r["engine"] == "amp")
    detail = (f"nnz=800: iterations to MSE<=1e-4: amp={t_amp} ist={t_ist} "
              f"(amp MSE floor ~ {floor_amp:.3f})")
    ok = (t_amp is not None and t_ist is not None and t_ist >= 10 * t_amp)
    report("C9", ok, detail, time.time() - t0, 600.0)


def test_c9_companion_speedup_below_boundary():
    # same race at rho = 160/1600 = 0.1 < rho_c(0.2): recovery happens and
    # the memory-corrected engine is >= 10x faster to MSE <= 1e-4
    t0 = time.time()
    rows, t_amp, t_ist = _convergence_race(160, 300)
    ok = t_amp is not None and (t_ist is None or t_ist >= 10 * t_amp)
    shown = t_ist if t_ist is not None else ">300"
    report("C9b", ok, f"nnz=160: amp reached at t={t_amp}, ist at t={shown} "
           f"(ratio >= 10 required)", time.time() - t0, 600.0)


def test_c10a_closed_forms_vs_monte_carlo():
    t0 = time.time()
    priors = (three_point(0.05), three_point(0.128),
              DiscretePrior((0.0, 3.0), (0.9, 0.1)))
    taus = (0.3, 0.7, 1.3)
    thetas = (0.2, 0.8, 1.6)
    n = 10**6
    rng = np.random.default_rng(2024)
    worst_mse = worst_keep = 0.0
    for prior in priors:
        for tau in taus:
            x = sample_with_rng(prior, n, rng)
            z = rng.standard_normal(n)
            u = x + tau * z
            for theta in thetas:
                err = (np.sign(u) * np.maximum(np.abs(u) - theta, 0.0) - x) ** 2
                se = err.std(ddof=1) / np.sqrt(n)
                dev = abs(err.mean() - st_mse(prior, tau, theta)) / se
                worst_mse = max(worst_mse, dev)
                kept = (np.abs(u) >= theta).astype(float)
                se_k = max(kept.std(ddof=1) / np.sqrt(n), 1e-12)
                dev_k = abs(kept.mean() - st_keep_prob(prior, tau, theta)) / se_k
                worst_keep = max(worst_keep, dev_k)
    ok = worst_mse <= 4.0 and worst_keep <= 4.0
    report("C10a", ok,
           f"closed forms vs 1e6-sample Monte Carlo on 3x3x3 grid: "
           f"max dev = {worst_mse:.2f} SE (mse), {worst_keep:.2f} SE (keep prob)",
           time.time() - t0, 300.0)


def test_c10b_reduced_messages_track_solver():
    t0 = time.time()
    inst = gen_instance(200, BENCH, 3, RADEMACHER)
    policy = ThresholdPolicy.rms(2.0)
    state = initial_state(inst, policy)
    thetas = [state.theta]
    for _ in range(10):
        state = amp_step(state, inst, policy)
        thetas.append(state.theta)
    x_msgs = np.zeros((inst.m, inst.n))
    for t in range(10):
        r_msgs, x_msgs = reduced_mp_step(x_msgs, inst, thetas[t])
    est = reduced_mp_estimate(r_msgs, inst, thetas[9])
    gap = float(np.max(np.abs(est - state.x)))
    ok = gap <= 0.05
    report("C10b", ok, f"per-edge vs first-order estimates at n=200, t=10: "
           f"max-norm = {gap:.4f} (<= 0.05)", time.time() - t0, 60.0)


def test_c10c_resampled_matrix_oracle():
    t0 = time.time()
    spec = ExperimentSpec(kind="RESAMPLED_ORACLE", n=4000, params=BENCH,
                          alpha=2.0, seeds=tuple(range(20)), t_target=10,
                          jobs=JOBS)
    rows = run_resampled_oracle(spec).rows
    devs = {"resampled": [], "fixed_ist": []}
    for row in rows:
        dev = abs(row["tau2_empirical"] - row["tau2_se_prediction"]) \
            / max(row["tau2_empirical_se"], 1e-300)
        devs[row["lane"]].append(dev)
    ok_resampled = max(devs["resampled"]) <= 4.0
    ok_fixed = max(devs["fixed_ist"]) > 4.0
    ok = ok_resampled and ok_fixed
    report("C10c", ok,
           f"fresh-matrix recursion max dev = {max(devs['resampled']):.2f} SE "
           f"(<= 4); fixed-matrix plain iteration max dev = "
           f"{max(devs['fixed_ist']):.2f} SE (> 4)", time.time() - t0, 600.0)
