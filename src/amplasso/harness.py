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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import state_evolution as se
from .amp import (NumericalBlowupError, ThresholdPolicy, amp_run, amp_step,
                  effective_lambda, initial_state, ist_run)
from .instances import (GAUSSIAN, Instance, ModelParams, draw_matrix,
                        gen_instance, gen_planted_instance, measurement_count)
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

    Each value in ``seeds`` keys its own cells, so ``seeds=(5, 6, 7)``
    draws other instances than ``seeds=(0, 1, 2)``.  ``jobs`` is recorded
    in the manifest (and so in ``spec_sha256``) but starts no threads:
    every protocol runs its cells on the calling thread.  It stays so that
    older specs and manifests still load and hash alike.
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
        d = {
            "kind": self.kind, "n": self.n, "ensemble": self.ensemble,
            "seeds": list(self.seeds), "alpha": self.alpha,
            "lambdas": list(self.lambdas), "max_iter": self.max_iter,
            "tol": self.tol, "t_target": self.t_target,
            "nnz_levels": list(self.nnz_levels), "alpha_ist": self.alpha_ist,
            "ist_rescale": self.ist_rescale, "grid_points": self.grid_points,
            "base_seed": self.base_seed, "jobs": self.jobs, "out": self.out,
        }
        if self.params is not None:
            d["params"] = {
                "delta": self.params.delta, "sigma2": self.params.sigma2,
                "prior": {"atoms": list(self.params.prior.atoms),
                          "weights": list(self.params.prior.weights)},
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = dict(d)
        params = None
        if d.get("params") is not None:
            p = d["params"]
            params = ModelParams(
                delta=float(p["delta"]), sigma2=float(p["sigma2"]),
                prior=DiscretePrior(tuple(p["prior"]["atoms"]),
                                    tuple(p["prior"]["weights"])),
            )
        kwargs = {}
        for name in ("kind", "n", "ensemble", "alpha", "max_iter", "tol",
                     "t_target", "alpha_ist", "ist_rescale", "grid_points",
                     "base_seed", "jobs", "out"):
            if name in d:
                kwargs[name] = d[name]
        for name in ("seeds", "lambdas", "nnz_levels"):
            if name in d:
                kwargs[name] = tuple(d[name])
        return cls(params=params, **kwargs)


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
    spec_dict = spec.to_dict()
    blob = json.dumps(spec_dict, sort_keys=True).encode()
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


def _emit(spec: ExperimentSpec, result: ExperimentResult,
          suffix: str = "") -> ExperimentResult:
    if spec.out is not None:
        stem = Path(spec.out)
        name = stem.name + (f"_{suffix}" if suffix else "")
        write_csv(result.rows, stem.with_name(name + ".csv"))
        write_manifest(result.manifest, stem.with_name(stem.name + ".manifest.json"))
    return result


def _default_alpha(spec: ExperimentSpec) -> float:
    if spec.alpha is not None:
        return spec.alpha
    return se.boundary_alpha(spec.params.delta)


def run_mse_vs_lambda(spec: ExperimentSpec) -> ExperimentResult:
    """Empirical reconstruction MSE across a lambda grid vs the prediction.

    Each lambda is mapped to its threshold multiplier once; the solver then
    runs adaptively and the realized effective lambda is recorded for
    audit.  Per-seed failures are recorded without aborting the sweep.
    """
    params = spec.params
    signal_mass = params.prior.has_signal_mass
    rows: list[dict] = []
    outcomes: list[dict] = []

    def solve_cell(lam, alpha, seed_index):
        seed = cell_seed(spec.base_seed, "mse_vs_lambda", float(lam),
                         spec.seeds[seed_index], spec.ensemble)
        instance = gen_instance(spec.n, params, seed, spec.ensemble)
        try:
            res = amp_run(instance, ThresholdPolicy.rms(alpha),
                          max_iter=spec.max_iter, tol=spec.tol)
            mse = float(np.mean((res.x_hat - instance.x0) ** 2))
            lam_eff = effective_lambda(res.x_hat, res.theta, instance.m)
            return {"lambda": lam, "seed_index": seed_index, "mse": mse,
                    "effective_lambda": lam_eff, "converged": res.converged,
                    "iterations": res.iterations, "stop": res.stop, "error": None}
        except NumericalBlowupError as exc:
            return {"lambda": lam, "seed_index": seed_index, "mse": None,
                    "effective_lambda": None, "converged": False,
                    "iterations": None, "stop": None, "error": str(exc)}

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


def _pseudo_data(instance: Instance, state) -> np.ndarray:
    return state.x + instance.a.T @ state.r


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

        state = initial_state(instance, policy_amp)
        for _ in range(spec.t_target):
            state = amp_step(state, instance, policy_amp)
        u_amp = _pseudo_data(instance, state)[plus]

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


def run_se_tracking(spec: ExperimentSpec) -> ExperimentResult:
    """Empirical effective-noise energy per iteration vs the scalar recursion."""
    params = spec.params
    alpha = _default_alpha(spec)
    policy = ThresholdPolicy.rms(alpha)
    t_max = spec.t_target
    prediction = se.se_run(params, alpha, max_iter=max(t_max + 1, 50))
    tau2 = list(prediction.tau2_sequence)
    while len(tau2) < t_max + 1:
        tau2.append(tau2[-1])

    def one_seed(value: int) -> np.ndarray:
        seed = cell_seed(spec.base_seed, "se_tracking", value, spec.ensemble)
        instance = gen_instance(spec.n, params, seed, spec.ensemble)
        state = initial_state(instance, policy)
        vals = np.empty(t_max + 1)
        for t in range(t_max + 1):
            u = _pseudo_data(instance, state)
            vals[t] = np.mean((u - instance.x0) ** 2)
            if t < t_max:
                state = amp_step(state, instance, policy)
        return vals

    samples = np.vstack([one_seed(value) for value in spec.seeds])
    rows = []
    for t in range(t_max + 1):
        col = samples[:, t]
        rows.append({
            "t": t,
            "empirical_mean": float(col.mean()),
            "empirical_se": (float(col.std(ddof=1) / np.sqrt(col.size))
                             if col.size > 1 else 0.0),
            "tau2_prediction": tau2[t],
        })
    return _emit(spec, ExperimentResult(rows=rows, manifest=_manifest(spec, [])))


class _Span:
    """Orthonormal directions (rows of ``basis``) and their known images under a map."""

    def __init__(self, dim: int, image_dim: int, capacity: int):
        self.basis = np.empty((capacity, dim))
        self.image = np.empty((capacity, image_dim))
        self.count = 0


class _GaussianConditioning:
    """Products with an i.i.d. N(0, 1/m) matrix ``A`` that is never formed.

    It holds orthonormal bases ``Q_V`` (of the vectors ``A`` has been
    applied to) and ``Q_Z`` (of those ``A'`` has been applied to) together
    with the known products ``G = A Q_V`` and ``H = A'Q_Z``.  Given these,
    ``A = G Q_V' + Q_Z H' P_V + P_Z B P_V`` with ``P_V``, ``P_Z`` the
    projections orthogonal to the bases and ``B`` a fresh Gaussian (the
    conditioning lemma behind the proof of state evolution: Bolthausen,
    Commun. Math. Phys. 2014; Bayati and Montanari, IEEE Trans. Inf. Theory
    2011, Lemma 10).  So a sequence of products has exactly the joint law
    it has under one drawn ``A``; a product after k others costs
    O((m + n) k) work and m or n normals.
    :meth:`clear` forgets the history: the next products then see a fresh
    matrix.  Each product adds at most one direction to its side, so
    ``capacity`` products of each kind fit.
    """

    def __init__(self, m: int, n: int, capacity: int):
        self._m = m
        self._v = _Span(n, m, capacity)  # directions v and A v
        self._z = _Span(m, n, capacity)  # directions z and A'z

    def clear(self) -> None:
        self._v.count = self._z.count = 0

    def matvec(self, v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """``A v``; draws m normals unless ``v`` lies in the span seen so far."""
        return self._product(v, self._v, self._z, rng)

    def rmatvec(self, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """``A'z``; draws n normals unless ``z`` lies in the span seen so far."""
        return self._product(z, self._z, self._v, rng)

    def _product(self, x: np.ndarray, src: _Span, dst: _Span,
                 rng: np.random.Generator) -> np.ndarray:
        """``x`` times the map whose known images ``src`` holds.

        ``dst`` holds the transposed map's known images.  Split ``x = Q c + nu q`` by projecting twice (classical Gram-Schmidt);
        a remainder that the second pass halves is rounding, so ``nu = 0``
        and nothing is drawn.  Otherwise the image of the new direction
        ``q`` is ``Q_dst (H_dst' q) + P_dst xi / sqrt(m)``, computed from
        that formula (never backed out of the product, so a small ``nu``
        amplifies no rounding), and ``q`` joins ``src``.
        """
        if src.count:
            basis, image = src.basis[:src.count], src.image[:src.count]
            c = basis @ x
            p = x - c @ basis
            nu_first = np.linalg.norm(p)
            c2 = basis @ p
            p -= c2 @ basis
            c += c2
            nu = np.linalg.norm(p)
            out = c @ image
        else:  # nothing to project on: x is its own remainder
            p = x
            nu = nu_first = np.linalg.norm(x)
            out = np.zeros(src.image.shape[1])
        if nu == 0.0 or nu < 0.5 * nu_first:
            return out
        q = np.divide(p, nu, out=src.basis[src.count])
        new_image = rng.standard_normal(out=src.image[src.count])
        new_image /= np.sqrt(self._m)
        if dst.count:
            back, known = dst.basis[:dst.count], dst.image[:dst.count]
            new_image += (known @ q - back @ new_image) @ back
        src.count += 1
        out += nu * new_image
        return out


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
    (:class:`_GaussianConditioning`): the fixed lane conditions on every
    product the trajectory has seen, the resampled lane forgets them after
    each step.  Step 0 takes its normals from the cell's first stream after
    ``x_true`` and ``w``, step ``t`` from stream ``t``.  Rademacher specs
    draw explicit matrices into one buffer per cell.  Each outcome names
    its ``sampler``: ``"gaussian_conditioning"`` or ``"matrix_draw"``.
    """
    params = spec.params
    alpha = _default_alpha(spec)
    t_max = spec.t_target
    prediction = se.se_run(params, alpha, max_iter=max(t_max + 2, 50))
    tau2 = list(prediction.tau2_sequence)
    while len(tau2) < t_max + 1:
        tau2.append(tau2[-1])
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
            a = _GaussianConditioning(m, spec.n, 1 if resample else t_max)
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
                h = a.rmatvec(w - a.matvec(v, rng), rng)
            else:
                if resample and t > 0:
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
            col = samples[:, t]
            rows.append({
                "t": t, "lane": lane,
                "tau2_empirical": float(col.mean()),
                "tau2_empirical_se": (float(col.std(ddof=1) / np.sqrt(col.size))
                                      if col.size > 1 else 0.0),
                "tau2_se_prediction": params.delta * (tau2[t] - params.sigma2),
            })
        sampler = "gaussian_conditioning" if gaussian else "matrix_draw"
        outcomes.append({"lane": lane, "seeds": len(spec.seeds),
                         "sampler": sampler})
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


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Dispatch an :class:`ExperimentSpec` to its runner."""
    return _RUNNERS[spec.kind](spec)
