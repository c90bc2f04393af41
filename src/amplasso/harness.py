"""Experiment driver: Monte Carlo protocols, diagnostics, and CSV emission.

Each ``run_*`` function realizes one benchmark protocol (risk-vs-lambda
sweeps, convergence races, effective-noise histograms, the resampled-matrix
recursion, phase curves), returns plain row dictionaries plus a manifest,
and optionally writes CSV/JSON.  Per-cell seeds are derived by hashing the
cell key, which holds the value of a seed from ``spec.seeds`` (not its
position), so enlarging a grid never perturbs existing cells.  Cells run one
after another on the calling thread, and the BLAS library's threads are the
only parallelism: a cell is either memory-bound BLAS, which those threads
already spread over the cores, or many small numpy calls that hold the GIL,
so threads per cell would only oversubscribe the cores.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import state_evolution as se
from .amp import (NumericalBlowupError, ThresholdPolicy, amp_run, effective_lambda,
                  ist_run, iterate)
from .instances import (GAUSSIAN, ConditionedGaussian, ModelParams, draw_matrix,
                        gen_instance, gen_lazy_instance, gen_planted_instance,
                        measurement_count)
from .priors import DiscretePrior, sample_with_rng
from .scalar_risk import soft_threshold

MSE_VS_LAMBDA = "MSE_VS_LAMBDA"
CONVERGENCE = "CONVERGENCE"
NOISE_HISTOGRAM = "NOISE_HISTOGRAM"
SE_TRACKING = "SE_TRACKING"
RESAMPLED_ORACLE = "RESAMPLED_ORACLE"
PHASE_CURVE = "PHASE_CURVE"
KINDS = (MSE_VS_LAMBDA, CONVERGENCE, NOISE_HISTOGRAM, SE_TRACKING,
         RESAMPLED_ORACLE, PHASE_CURVE)

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment; everything needed to replay it.

    A kind reads the fields ``_READS`` lists for it; any other field set
    to a value other than its default is a :class:`ValueError` naming the
    kind and the field.  ``out`` and ``jobs`` are exempt, and left out of
    ``spec_sha256``: ``out`` says where results go, not what they are, and
    ``jobs`` starts no threads (cells run on the calling thread) but still
    loads from older specs.  Each value in ``seeds`` keys its own cells,
    so ``seeds=(5, 6, 7)`` draws other instances than ``seeds=(0, 1, 2)``.
    """

    kind: str
    n: int = 1000
    params: ModelParams | None = None
    ensemble: str = GAUSSIAN
    seeds: tuple[int, ...] = tuple(range(20))
    alpha: float | None = None
    lambdas: tuple[float, ...] = ()
    max_iter: int = 2000
    tol: float = 1e-8
    t_target: int = 10
    nnz_levels: tuple[int, ...] = ()
    alpha_ist: float = 1.8
    ist_rescale: float = 0.95
    grid_points: int = 50
    base_seed: int = 0
    jobs: int = 1
    out: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        unread = [f.name for f in fields(self)
                  if f.name not in ("kind",) + _READS[self.kind] + _UNHASHED
                  and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"{self.kind} does not read {', '.join(unread)}")
        if self.params is None and self.kind != PHASE_CURVE:
            raise ValueError(f"{self.kind} needs params (delta, sigma2, prior)")
        if len(self.seeds) == 0:
            raise ValueError("seeds must be nonempty")
        if any(lam <= 0 for lam in self.lambdas):
            raise ValueError("lambda grid values must be > 0")
        if self.t_target < 0:
            raise ValueError("t_target must be >= 0")
        if self.kind == NOISE_HISTOGRAM and len(self.nnz_levels) > 1:
            raise ValueError(f"{NOISE_HISTOGRAM} takes one nnz level, "
                             f"got {len(self.nnz_levels)}")

    def to_dict(self) -> dict:
        """The spec in JSON types (tuples become lists); ``params`` only when set."""
        d = asdict(self)
        if self.params is None:
            del d["params"]
        return json.loads(json.dumps(d))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; keys that name no field are ignored."""
        kwargs = {f.name: tuple(d[f.name]) if f.type.startswith("tuple") else d[f.name]
                  for f in fields(cls) if f.name in d}
        p = kwargs.get("params")
        if p is not None:
            kwargs["params"] = ModelParams(
                delta=float(p["delta"]), sigma2=float(p["sigma2"]),
                prior=DiscretePrior(tuple(p["prior"]["atoms"]),
                                    tuple(p["prior"]["weights"])),
            )
        return cls(**kwargs)


@dataclass
class ExperimentResult:
    rows: list[dict]
    manifest: dict
    extra: dict = field(default_factory=dict)


def cell_seed(base: int, *parts) -> int:
    """Stable per-cell seed from the cell key; independent of grid layout."""
    key = "|".join(repr(p) for p in parts).encode()
    word = int.from_bytes(hashlib.sha256(key).digest()[:8], "little")
    return (int(base) << 64) + word


def _environment() -> dict:
    """What the bits of a result depend on besides the spec.

    The BLAS thread count can change the last bits of ``A @ x``, so a
    manifest replays a run exactly only under the same BLAS threading.
    With no thread variable set, OpenBLAS runs one thread per available
    core, hence ``nproc``.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ[k] for k in _THREAD_VARS if k in os.environ},
    }


def _manifest(spec: ExperimentSpec, outcomes: list[dict]) -> dict:
    """Spec, outcomes and environment; ``spec_sha256`` hashes every spec field
    but ``out`` and ``jobs``, which change no result (see :class:`ExperimentSpec`)."""
    spec_dict = spec.to_dict()
    hashed = {k: v for k, v in spec_dict.items() if k not in _UNHASHED}
    blob = json.dumps(hashed, sort_keys=True).encode()
    return {
        "spec": spec_dict,
        "spec_sha256": hashlib.sha256(blob).hexdigest(),
        "outcomes": outcomes,
        "environment": _environment(),
    }


def write_csv(rows: list[dict], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return path
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_manifest(manifest: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _emit(spec: ExperimentSpec, result: ExperimentResult) -> ExperimentResult:
    if spec.out is not None:
        stem = Path(spec.out)
        write_csv(result.rows, stem.with_name(stem.name + ".csv"))
        write_manifest(result.manifest, stem.with_name(stem.name + ".manifest.json"))
    return result


def _default_alpha(spec: ExperimentSpec) -> float:
    if spec.alpha is not None:
        return spec.alpha
    return se.boundary_alpha(spec.params.delta)


def _sampler(spec: ExperimentSpec) -> str:
    """How a cell's matrix products are made: recorded in the manifest outcomes."""
    return "gaussian_conditioning" if spec.ensemble == GAUSSIAN else "matrix_draw"


def _gen_cell_instance(spec: ExperimentSpec, seed: int):
    """The cell's system: a Gaussian one draws only the products its run makes."""
    if spec.ensemble == GAUSSIAN:
        return gen_lazy_instance(spec.n, spec.params, seed)
    return gen_instance(spec.n, spec.params, seed, spec.ensemble)


def run_mse_vs_lambda(spec: ExperimentSpec) -> ExperimentResult:
    """Empirical reconstruction MSE across a lambda grid vs the prediction.

    Each lambda is mapped to its threshold multiplier once; the solver then
    runs adaptively and the realized effective lambda is recorded for
    audit.  Per-seed failures are recorded without aborting the sweep.
    Gaussian cells run on a lazy instance
    (:func:`~amplasso.instances.gen_lazy_instance`); each outcome names its
    ``sampler``.
    """
    params = spec.params
    signal_mass = params.prior.has_signal_mass
    sampler = _sampler(spec)
    rows: list[dict] = []
    outcomes: list[dict] = []

    def solve_cell(lam, alpha, seed_index):
        seed = cell_seed(spec.base_seed, "mse_vs_lambda", float(lam),
                         spec.seeds[seed_index], spec.ensemble)
        instance = _gen_cell_instance(spec, seed)
        try:
            res = amp_run(instance, ThresholdPolicy.rms(alpha),
                          max_iter=spec.max_iter, tol=spec.tol)
            mse = float(np.mean((res.x_hat - instance.x0) ** 2))
            lam_eff = effective_lambda(res.x_hat, res.theta, instance.m)
            return {"lambda": lam, "seed_index": seed_index, "mse": mse,
                    "effective_lambda": lam_eff, "converged": res.converged,
                    "iterations": res.iterations, "stop": res.stop, "error": None,
                    "sampler": sampler}
        except NumericalBlowupError as exc:
            return {"lambda": lam, "seed_index": seed_index, "mse": None,
                    "effective_lambda": None, "converged": False,
                    "iterations": None, "stop": None, "error": str(exc),
                    "sampler": sampler}

    for lam in spec.lambdas:
        if signal_mass:
            prediction = se.lasso_risk(lam, params)
            alpha = prediction.alpha
            predicted_mse = prediction.mse
        else:
            # Zero-signal lane: calibration is degenerate, use the fixed
            # alpha and predict straight from the fixed point.
            alpha = _default_alpha(spec)
            tau_star = se.se_fixed_point(params, alpha)
            predicted_mse = params.delta * (tau_star**2 - params.sigma2)

        cells = [solve_cell(lam, alpha, idx) for idx in range(len(spec.seeds))]
        outcomes.extend(cells)
        mses = np.array([c["mse"] for c in cells if c["mse"] is not None])
        rows.append({
            "lambda": lam, "n": spec.n, "ensemble": spec.ensemble,
            "empirical_mse_mean": float(mses.mean()) if mses.size else None,
            "empirical_mse_se": (float(mses.std(ddof=1) / np.sqrt(mses.size))
                                 if mses.size > 1 else None),
            "predicted_mse": predicted_mse,
        })

    rows.sort(key=lambda r: r["lambda"])
    return _emit(spec, ExperimentResult(rows=rows, manifest=_manifest(spec, outcomes)))


def run_convergence(spec: ExperimentSpec) -> ExperimentResult:
    """Per-iteration MSE races between the corrected and plain iterations.

    Noiseless planted signals at the requested nonzero counts; both engines
    see identical instances.  A diverging plain run is recorded, not fatal.
    """
    params = spec.params
    if params.sigma2 != 0:
        raise ValueError("convergence protocol is noiseless (sigma2 must be 0)")
    if not spec.nnz_levels:
        raise ValueError("convergence protocol needs at least one nnz level")
    delta = params.delta
    alpha_amp = _default_alpha(spec)
    rows: list[dict] = []
    outcomes: list[dict] = []
    for nnz in spec.nnz_levels:
        for seed_index, value in enumerate(spec.seeds):
            seed = cell_seed(spec.base_seed, "convergence", nnz, value, spec.ensemble)
            instance = gen_planted_instance(spec.n, delta, nnz, seed,
                                            ensemble=spec.ensemble)
            amp_res = amp_run(instance, ThresholdPolicy.rms(alpha_amp),
                              max_iter=spec.max_iter, tol=0.0)
            for point in amp_res.trajectory:
                rows.append({"t": point.t, "engine": "amp", "nnz": nnz,
                             "seed_index": seed_index, "mse": point.mse})
            try:
                ist_res = ist_run(instance, ThresholdPolicy.rms(spec.alpha_ist),
                                  rescale_opnorm=spec.ist_rescale,
                                  max_iter=spec.max_iter, tol=0.0)
                for point in ist_res.trajectory:
                    rows.append({"t": point.t, "engine": "ist", "nnz": nnz,
                                 "seed_index": seed_index, "mse": point.mse})
                outcomes.append({"nnz": nnz, "seed_index": seed_index, "error": None})
            except NumericalBlowupError as exc:
                outcomes.append({"nnz": nnz, "seed_index": seed_index,
                                 "error": str(exc)})
    rows.sort(key=lambda r: (r["nnz"], r["engine"], r["seed_index"], r["t"]))
    return _emit(spec, ExperimentResult(rows=rows, manifest=_manifest(spec, outcomes)))


def iterations_to_mse(rows: list[dict], engine: str, nnz: int,
                      target: float) -> int | None:
    """First iteration index at which the recorded MSE drops to ``target``."""
    hits = [r["t"] for r in rows
            if r["engine"] == engine and r["nnz"] == nnz and r["mse"] <= target]
    return min(hits) if hits else None


def run_noise_histogram(spec: ExperimentSpec) -> ExperimentResult:
    """Distribution of un-thresholded estimates on the true +1 coordinates.

    Pools ``(x_t + A'r_t)_i`` over instances at the target iteration for
    both engines, fits a Gaussian, and runs a one-sample KS test against
    the fit.  The corrected iteration should center on +1 and look
    Gaussian; the plain one should not.
    """
    if spec.t_target < 1:
        raise ValueError("t_target must be >= 1")
    nnz = spec.nnz_levels[0] if spec.nnz_levels else spec.n // 8
    alpha_amp = _default_alpha(spec)
    policy_amp = ThresholdPolicy.rms(alpha_amp)
    policy_ist = ThresholdPolicy.rms(spec.alpha_ist)

    def one_instance(value: int) -> tuple[np.ndarray, np.ndarray]:
        seed = cell_seed(spec.base_seed, "noise_histogram", value, spec.ensemble)
        instance = gen_planted_instance(spec.n, spec.params.delta, nnz, seed,
                                        ensemble=spec.ensemble,
                                        sigma2=spec.params.sigma2)
        plus = instance.x0 == 1.0

        amp_res = iterate(instance, policy_amp, spec.t_target, 0.0, True)
        u_amp = (amp_res.x_hat + instance.a.T @ amp_res.r_hat)[plus]

        ist_res = ist_run(instance, policy_ist, rescale_opnorm=spec.ist_rescale,
                          max_iter=spec.t_target, tol=0.0)
        # Pseudo-data of the plain engine on its own (rescaled) system.
        u_ist = (ist_res.x_hat
                 + ist_res.scale * (instance.a.T @ ist_res.r_hat))[plus]
        return u_amp, u_ist

    from scipy import stats  # loaded on use, kept out of `import amplasso`

    pooled = [one_instance(value) for value in spec.seeds]
    u_amp = np.concatenate([p[0] for p in pooled])
    u_ist = np.concatenate([p[1] for p in pooled])

    rows: list[dict] = []
    summaries: dict[str, dict] = {}
    for engine, values in (("amp", u_amp), ("ist", u_ist)):
        mean = float(values.mean())
        sd = float(values.std(ddof=1))
        ks_stat, ks_p = stats.kstest(values, "norm", args=(mean, sd))
        summaries[engine] = {
            "mean": mean, "sd": sd, "count": int(values.size),
            "se_mean": sd / np.sqrt(values.size),
            "ks_stat": float(ks_stat), "ks_p": float(ks_p),
        }
        counts, edges = np.histogram(values, bins=81)
        centers = 0.5 * (edges[:-1] + edges[1:])
        rows.extend({"engine": engine, "bin_center": float(c), "count": int(k)}
                    for c, k in zip(centers, counts))

    manifest = _manifest(spec, [summaries])
    manifest["summaries"] = summaries
    return _emit(spec, ExperimentResult(rows=rows, manifest=manifest,
                                        extra={"summaries": summaries}))


def _predicted_tau2(params: ModelParams, alpha: float, t_max: int) -> list[float]:
    """tau_t^2 of the scalar recursion for t = 0..t_max, its limit repeated once it settles."""
    tau2 = list(se.se_run(params, alpha, max_iter=max(t_max + 1, 50)).tau2_sequence)
    return tau2 + [tau2[-1]] * (t_max + 1 - len(tau2))


def _mean_and_se(col: np.ndarray) -> tuple[float, float | None]:
    """Sample mean and its standard error (``None`` for a single value, which has none)."""
    sem = float(col.std(ddof=1) / np.sqrt(col.size)) if col.size > 1 else None
    return float(col.mean()), sem


def run_se_tracking(spec: ExperimentSpec) -> ExperimentResult:
    """Empirical effective-noise energy per iteration vs the scalar recursion.

    Gaussian cells run on a lazy instance
    (:func:`~amplasso.instances.gen_lazy_instance`); the manifest's one
    outcome names the ``sampler``.
    """
    params = spec.params
    alpha = _default_alpha(spec)
    policy = ThresholdPolicy.rms(alpha)
    t_max = spec.t_target
    tau2 = _predicted_tau2(params, alpha, t_max)

    def one_seed(value: int) -> np.ndarray:
        seed = cell_seed(spec.base_seed, "se_tracking", value, spec.ensemble)
        instance = _gen_cell_instance(spec, seed)
        vals = np.empty(t_max + 1)

        def observe(state):  # the step to t thresholded the pseudo-data of t - 1
            if state.t:
                vals[state.t - 1] = np.mean((state.u - instance.x0) ** 2)

        iterate(instance, policy, t_max + 1, 0.0, True, observe=observe)
        return vals

    samples = np.vstack([one_seed(value) for value in spec.seeds])
    rows = []
    for t in range(t_max + 1):
        mean, sem = _mean_and_se(samples[:, t])
        rows.append({"t": t, "empirical_mean": mean, "empirical_se": sem,
                     "tau2_prediction": tau2[t]})
    outcomes = [{"seeds": len(spec.seeds), "sampler": _sampler(spec)}]
    return _emit(spec, ExperimentResult(rows=rows, manifest=_manifest(spec, outcomes)))


def run_resampled_oracle(spec: ExperimentSpec) -> ExperimentResult:
    """Recursion with a fresh matrix per iteration vs the fixed-matrix baseline.

    With resampling, the signal-error energy follows the scalar recursion
    exactly (that is the regime in which the heuristic derivation is an
    identity); with the matrix held fixed and no memory correction, it
    departs.  Thresholds are the deterministic theory sequence in both
    lanes.

    A step uses its matrix only through ``g = A v`` and ``h = A'(w - g)``,
    ``v = x - x_true``.  For a Gaussian ``A`` the harness samples these
    products exactly in law without forming ``A``
    (:class:`~amplasso.instances.ConditionedGaussian`, with room for every
    product a lane makes): the fixed lane conditions on every product the
    trajectory has seen, the resampled lane forgets them after each step.
    Step 0 takes its normals from the cell's first stream after ``x_true``
    and ``w``, step ``t`` from stream ``t``.  Rademacher specs
    draw explicit matrices into one buffer per cell.  Each outcome names
    its ``sampler``: ``"gaussian_conditioning"`` or ``"matrix_draw"``.
    """
    params = spec.params
    alpha = _default_alpha(spec)
    t_max = spec.t_target
    tau2 = _predicted_tau2(params, alpha, t_max)
    thetas = [alpha * np.sqrt(v) for v in tau2]
    m = measurement_count(params.delta, spec.n)
    gaussian = spec.ensemble == GAUSSIAN

    def one_seed(value: int, resample: bool) -> np.ndarray:
        seed = cell_seed(spec.base_seed, "resampled_oracle", value, resample,
                         spec.ensemble)
        root = np.random.SeedSequence(seed)
        streams = root.spawn(t_max + 1)
        rng0 = np.random.default_rng(streams[0])
        x_true = sample_with_rng(params.prior, spec.n, rng0)
        w = (np.sqrt(params.sigma2) * rng0.standard_normal(m)
             if params.sigma2 > 0 else np.zeros(m))
        if gaussian:
            a = ConditionedGaussian(m, spec.n, rng0, 1 if resample else t_max)
        else:
            a = draw_matrix(rng0, m, spec.n, spec.ensemble)
        x = np.zeros(spec.n)
        vals = np.empty(t_max + 1)
        for t in range(t_max + 1):
            v = x - x_true
            vals[t] = np.mean(v ** 2)
            if t == t_max:
                break
            rng = rng0 if t == 0 else np.random.default_rng(streams[t])
            if gaussian:
                if resample:
                    a.clear()
                a.rng = rng
            elif resample and t > 0:
                # redrawn in place: the cell holds one (m, n) matrix, not two
                draw_matrix(rng, m, spec.n, spec.ensemble, out=a)
            h = a.T @ (w - a @ v)
            x = soft_threshold(x + h, thetas[t])
        return vals

    rows = []
    outcomes = []
    for resample, lane in ((True, "resampled"), (False, "fixed_ist")):
        samples = np.vstack([one_seed(value, resample) for value in spec.seeds])
        for t in range(t_max + 1):
            mean, sem = _mean_and_se(samples[:, t])
            rows.append({"t": t, "lane": lane, "tau2_empirical": mean,
                         "tau2_empirical_se": sem,
                         "tau2_se_prediction": params.delta * (tau2[t] - params.sigma2)})
        outcomes.append({"lane": lane, "seeds": len(spec.seeds),
                         "sampler": _sampler(spec)})
    rows.sort(key=lambda r: (r["lane"], r["t"]))
    return _emit(spec, ExperimentResult(rows=rows, manifest=_manifest(spec, outcomes)))


def run_phase_curve(spec: ExperimentSpec) -> ExperimentResult:
    """Phase boundary sweep plus worst-case risk level grid."""
    alphas = np.linspace(0.0, 10.0, spec.grid_points)
    boundary_rows = []
    for a in alphas:
        delta, rho = se.parametric_boundary(float(a))
        boundary_rows.append({"alpha": float(a), "delta": delta, "rho": rho})

    mstar_rows = []
    deltas = np.linspace(0.1, 0.9, 9)
    fractions = np.linspace(0.1, 0.95, 8)
    for delta in deltas:
        rc = se.rho_c(float(delta))
        for frac in fractions:
            rho = float(frac * rc)
            mstar_rows.append({
                "delta": float(delta), "rho": rho,
                "m_star": se.minimax_risk_star(float(delta), rho),
            })

    manifest = _manifest(spec, [])
    result = ExperimentResult(rows=boundary_rows, manifest=manifest,
                              extra={"mstar_rows": mstar_rows})
    if spec.out is not None:
        stem = Path(spec.out)
        write_csv(boundary_rows, stem.with_name(stem.name + "_boundary.csv"))
        write_csv(mstar_rows, stem.with_name(stem.name + "_mstar.csv"))
        write_manifest(manifest, stem.with_name(stem.name + ".manifest.json"))
    return result


_RUNNERS = {
    MSE_VS_LAMBDA: run_mse_vs_lambda,
    CONVERGENCE: run_convergence,
    NOISE_HISTOGRAM: run_noise_histogram,
    SE_TRACKING: run_se_tracking,
    RESAMPLED_ORACLE: run_resampled_oracle,
    PHASE_CURVE: run_phase_curve,
}

# The spec fields each runner reads; ExperimentSpec rejects others not at their default.
_COMMON = ("n", "params", "ensemble", "seeds", "alpha", "base_seed")
_READS = {
    MSE_VS_LAMBDA: _COMMON + ("lambdas", "max_iter", "tol"),
    CONVERGENCE: _COMMON + ("max_iter", "nnz_levels", "alpha_ist", "ist_rescale"),
    NOISE_HISTOGRAM: _COMMON + ("t_target", "nnz_levels", "alpha_ist", "ist_rescale"),
    SE_TRACKING: _COMMON + ("t_target",),
    RESAMPLED_ORACLE: _COMMON + ("t_target",),
    PHASE_CURVE: ("grid_points",),
}
# Fields any kind takes, kept out of spec_sha256: neither changes a result.
_UNHASHED = ("out", "jobs")


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Dispatch an :class:`ExperimentSpec` to its runner."""
    return _RUNNERS[spec.kind](spec)
