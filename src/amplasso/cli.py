"""Command-line interface.

Subcommands: ``solve`` (one instance end to end), ``se`` (scalar recursion
and fixed point), ``calibrate`` (threshold <-> regularization mapping),
``phase`` (boundary and level curves), and ``experiment`` (a full protocol
from flags or a JSON spec).  Each subcommand takes only the flags it
reads, so a flag with no effect is a usage error.  Exit codes: 0 success,
2 malformed request (an unread flag, or a calibration the model cannot
reach, :class:`~amplasso.state_evolution.TheoryError`), 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import state_evolution as se
from .amp import (NumericalBlowupError, ThresholdPolicy, amp_run,
                  effective_lambda, ist_run, ist_solve_lasso, lasso_kkt_gap)
from .harness import PHASE_CURVE, ExperimentSpec, _from_json, run_experiment, write_csv
from .instances import ENSEMBLES, GAUSSIAN, ModelParams, gen_instance, measurement_count
from .message_passing import reduced_mp_estimate, reduced_mp_step
from .priors import DiscretePrior

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_NUMERICAL = 3

DEFAULT_PRIOR = '{"atoms": [-1, 0, 1], "weights": [0.064, 0.872, 0.064]}'


def parse_prior(text: str) -> DiscretePrior:
    """Parse the prior literal: a JSON object with atoms and weights arrays."""
    return _from_json(json.loads(text), "DiscretePrior", "prior")


# Every flag a subcommand may take; each subcommand adds only those it reads.
_FLAGS = {
    "n": ("--n", dict(type=int, default=1000, help="signal dimension")),
    "delta": ("--delta", dict(type=float, default=0.64, help="undersampling m/n")),
    "sigma2": ("--sigma2", dict(type=float, default=0.2, help="noise variance")),
    "prior": ("--prior", dict(type=str, default=DEFAULT_PRIOR,
                              help="JSON object with atoms and weights arrays")),
    "ensemble": ("--ensemble", dict(choices=ENSEMBLES, default=GAUSSIAN)),
    "seed": ("--seeds", dict(dest="seed", type=int, default=0, help="instance seed")),
    "seeds": ("--seeds", dict(type=int, nargs="+", default=[0])),
    "alpha": ("--alpha", dict(type=float, default=None, help="threshold multiplier")),
    "lambda": ("--lambda", dict(dest="lam", type=float, default=None,
                                help="target regularization level (--alpha wins)")),
    "max_iter": ("--max-iter", dict(type=int, default=2000)),
    "tol": ("--tol", dict(type=float, default=1e-8)),
    "engine": ("--engine", dict(choices=("amp", "ist", "mp"), default="amp",
                                help="solver engine; mp replays the per-edge cross-check")),
    "out": ("--out", dict(type=str, default=None, help="output path stem")),
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        flag, kwargs = _FLAGS[name]
        p.add_argument(flag, **kwargs)


def _params(args) -> ModelParams:
    return ModelParams(delta=args.delta, sigma2=args.sigma2,
                       prior=parse_prior(args.prior))


def _resolve_alpha(args, params: ModelParams) -> float:
    if args.alpha is not None:
        return args.alpha
    if args.lam is not None:
        return se.alpha_of_lambda(args.lam, params)
    return 2.0


def cmd_solve(args) -> int:
    params = _params(args)
    # --lambda alone asks IST for the LASSO at that level: AMP's alpha
    # calibration says nothing about IST, whose threshold lambda * c^2 is fixed.
    fixed_level = args.engine == "ist" and args.alpha is None and args.lam is not None
    alpha = None if fixed_level else _resolve_alpha(args, params)
    if args.engine == "mp" and args.n * measurement_count(params.delta, args.n) > 4_000_000:
        raise ValueError("mp cross-check is desk-scale only (m*n too large)")
    instance = gen_instance(args.n, params, args.seed, args.ensemble)
    rows: list[dict] = []

    def record(state):  # one --out row per state; mp replays the thetas
        rows.append({"t": state.t, "tau_hat": state.tau_hat, "theta": state.theta,
                     "b": state.b, "mse": float(np.mean((state.x - instance.x0) ** 2))})

    observe = record if args.out or args.engine == "mp" else None
    if fixed_level:
        result = ist_solve_lasso(instance, args.lam, rescale_opnorm=0.95,
                                 max_iter=args.max_iter, tol=args.tol, observe=observe)
        lam_eff = args.lam
    elif args.engine == "ist":
        result = ist_run(instance, ThresholdPolicy.rms(alpha), rescale_opnorm=0.95,
                         max_iter=args.max_iter, tol=args.tol, observe=observe)
        # IST's fixed point on (c A, c y) at threshold theta is the LASSO
        # optimum of the original data at lambda = theta / c^2.
        lam_eff = result.theta / result.scale**2
    else:
        result = amp_run(instance, ThresholdPolicy.rms(alpha), max_iter=args.max_iter,
                         tol=args.tol, observe=observe)
        # undefined at ||x||_0 >= m: printed as nan, with a nan kkt_gap
        lam_eff = (effective_lambda(result.x_hat, result.theta, instance.m)
                   if np.count_nonzero(result.x_hat) < instance.m else float("nan"))
    mse = float(np.mean((result.x_hat - instance.x0) ** 2))
    gap = lasso_kkt_gap(instance, result.x_hat, lam_eff) if lam_eff > 0 else float("nan")
    print(f"n={args.n} m={instance.m} ensemble={args.ensemble} seed={args.seed} "
          f"engine={args.engine}")
    print(f"alpha={'none' if alpha is None else f'{alpha:.6g}'} "
          f"iterations={result.iterations} "
          f"converged={result.converged} stop={result.stop}")
    print(f"nnz={int(np.count_nonzero(result.x_hat))} mse={mse:.6g} "
          f"tau_hat={result.tau_hat:.6g} theta={result.theta:.6g}")
    print(f"effective_lambda={lam_eff:.6g} kkt_gap={gap:.3e}")
    if args.engine == "mp":
        # cross-check lane: replay the solver's threshold sequence through
        # the per-edge messages and report the estimate agreement
        steps = result.iterations
        x_msgs = np.zeros((instance.m, instance.n))
        for row in rows[:steps]:
            r_msgs, x_msgs = reduced_mp_step(x_msgs, instance, row["theta"])
        est = reduced_mp_estimate(r_msgs, instance, rows[steps - 1]["theta"])
        agreement = float(np.max(np.abs(est - result.x_hat)))
        mp_mse = float(np.mean((est - instance.x0) ** 2))
        print(f"mp_estimate: steps={steps} mse={mp_mse:.6g} "
              f"max_norm_vs_amp={agreement:.6g}")
    if args.out:
        path = write_csv(rows, args.out + ".csv")
        print(f"trajectory -> {path}")
    return EXIT_OK


def cmd_se(args) -> int:
    params = _params(args)
    alpha = _resolve_alpha(args, params)
    floor = se._alpha_floor(params.delta)
    if not alpha > floor:  # the recursion would grow until tau^2 overflows (or NaN)
        raise ValueError(f"alpha must exceed alpha_min = {floor:.6f}")
    traj = se.se_run(params, alpha)
    # every value before any output, so an error leaves stdout empty
    mse = None if traj.tau_star is None else params.delta * (traj.tau_star**2 - params.sigma2)
    if mse is not None and mse < 0:
        raise se.TheoryError(f"predicted MSE {mse:g} < 0: tau_star^2 = {traj.tau_star**2!r} "
                             f"rounded below sigma2 = {params.sigma2!r}")
    print(f"alpha={alpha:.6g} tau0^2={traj.tau2_sequence[0]:.9g} "
          f"steps={len(traj.tau2_sequence) - 1} converged={traj.converged}")
    if mse is not None:
        print(f"tau_star={traj.tau_star:.12g} predicted_mse={mse:.9g}")
    if args.out:
        rows = [{"t": t, "tau2": v, "theta": th}
                for t, (v, th) in enumerate(zip(traj.tau2_sequence,
                                                traj.theta_sequence))]
        path = write_csv(rows, args.out + ".csv")
        print(f"trajectory -> {path}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    params = _params(args)
    if args.alpha is not None:
        lam = se.calibrate_lambda(args.alpha, params)
        tau_star = se.se_fixed_point(params, args.alpha)
        print(f"alpha={args.alpha:.6g} lambda={lam:.9g} tau_star={tau_star:.9g}")
    elif args.lam is not None:
        alpha = se.alpha_of_lambda(args.lam, params)
        tau_star = se.se_fixed_point(params, alpha)
        print(f"lambda={args.lam:.6g} alpha={alpha:.9g} tau_star={tau_star:.9g}")
    else:
        raise ValueError("calibrate needs --alpha or --lambda")
    return EXIT_OK


def cmd_phase(args) -> int:
    # --sweep reads only --out; the point query reads --delta and --rho
    if args.sweep is not None:
        given = [f"--{k}" for k in ("delta", "rho") if getattr(args, k) is not None]
        if given:
            raise ValueError(f"phase --sweep takes no {', '.join(given)}")
        spec = ExperimentSpec(kind=PHASE_CURVE, grid_points=args.sweep,
                              out=args.out)
        result = run_experiment(spec)
        print(f"boundary points: {len(result.rows)}; "
              f"level grid points: {len(result.extra['mstar_rows'])}")
        if not args.out:
            for row in result.rows:
                print(f"alpha={row['alpha']:.4f} delta={row['delta']:.6f} "
                      f"rho={row['rho']:.6f}")
    else:
        if args.out is not None:
            raise ValueError("phase --out needs --sweep")
        delta = 0.2 if args.delta is None else args.delta
        rc = se.rho_c(delta)
        alpha = se.boundary_alpha(delta)
        # every value before any output, so an error leaves stdout empty
        m_star = None if args.rho is None else se.minimax_risk_star(delta, args.rho)
        print(f"delta={delta:.6g} rho_c={rc:.9g} boundary_alpha={alpha:.9g}")
        if m_star is not None:
            print(f"m_star={m_star:.9g}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.spec:
        defaults = vars(build_parser().parse_args(["experiment"]))
        given = [k for k, v in vars(args).items() if k not in ("spec", "out") and v != defaults[k]]
        if given:
            raise ValueError("experiment --spec takes no flag but --out; got --"
                             + ", --".join(k.replace("_", "-") for k in given))
        with open(args.spec) as handle:
            spec = ExperimentSpec.from_dict(json.load(handle))
        if args.out:
            spec = ExperimentSpec.from_dict({**spec.to_dict(), "out": args.out})
    else:
        if args.kind is None:
            raise ValueError("experiment needs --spec FILE or --kind")
        if args.kind == PHASE_CURVE:
            raise ValueError(f"{PHASE_CURVE} runs from `phase --sweep`")
        spec = ExperimentSpec(
            kind=args.kind, n=args.n, params=_params(args),
            ensemble=args.ensemble, seeds=tuple(args.seeds), alpha=args.alpha,
            lambdas=tuple(args.lambdas or ()), max_iter=args.max_iter,
            tol=args.tol, t_target=args.t_target,
            nnz_levels=tuple(args.nnz_levels or ()), out=args.out,
        )
    result = run_experiment(spec)
    print(f"kind={spec.kind} rows={len(result.rows)} "
          f"spec_sha256={result.manifest['spec_sha256'][:12]}")
    if spec.out:
        print(f"output stem: {spec.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amplasso",
        description="AMP-based LASSO solver and risk-prediction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one generated instance")
    _add_flags(p_solve, "n", "delta", "sigma2", "prior", "ensemble", "seed", "alpha",
               "lambda", "max_iter", "tol", "engine", "out")
    p_solve.set_defaults(func=cmd_solve)

    p_se = sub.add_parser("se", help="run the scalar recursion to its fixed point")
    _add_flags(p_se, "delta", "sigma2", "prior", "alpha", "lambda", "out")
    p_se.set_defaults(func=cmd_se)

    p_cal = sub.add_parser("calibrate", help="map alpha <-> lambda")
    _add_flags(p_cal, "delta", "sigma2", "prior", "alpha", "lambda")
    p_cal.set_defaults(func=cmd_calibrate)

    p_phase = sub.add_parser("phase", help="phase boundary and risk levels")
    p_phase.add_argument("--delta", type=float, default=None,
                         help="undersampling m/n of the point query (default 0.2)")
    p_phase.add_argument("--rho", type=float, default=None)
    p_phase.add_argument("--sweep", type=int, default=None,
                         help="emit a boundary sweep with this many points")
    p_phase.add_argument("--out", type=str, default=None)
    p_phase.set_defaults(func=cmd_phase)

    p_exp = sub.add_parser("experiment", help="run a protocol from flags or JSON")
    _add_flags(p_exp, "n", "delta", "sigma2", "prior", "ensemble", "seeds", "alpha",
               "max_iter", "tol", "out")
    p_exp.add_argument("--spec", type=str, default=None, help="JSON spec file")
    p_exp.add_argument("--kind", type=str, default=None)
    p_exp.add_argument("--lambdas", type=float, nargs="+", default=None)
    p_exp.add_argument("--nnz-levels", type=int, nargs="+", default=None)
    p_exp.add_argument("--t-target", type=int, default=10)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalBlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
