"""Desk-scale experiment harness: Gaussian phase-transition sweeps, the coded
diffraction image demo, and the theory-verification suites."""

from __future__ import annotations

import csv
import functools
import math
import os
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .anchor import anchor_correlation, spectral_anchor
from .measurements import CodedDiffractionEnsemble, DenseEnsemble, NoiseModel, observe
from .numerics import RngStream, phase_align_error, sample_complex_gaussian
from .pgm import read_pgm, write_f64_sidecar, write_pgm
from .solver import SolverConfig, solve_phasemax
from . import theory

__all__ = [
    "SweepConfig",
    "TrialRecord",
    "CSV_HEADER",
    "run_sweep",
    "ratio_summary",
    "CdpReport",
    "DEFAULT_CDP_CONFIG",
    "run_cdp_demo",
    "CheckResult",
    "VerifyReport",
    "run_verify",
]

@dataclass(frozen=True)
class SweepConfig:
    """Configuration for a Gaussian measurement sweep across sampling ratios.

    anchor_iters caps the Lanczos steps of each trial's spectral anchor,
    which stops sooner once its top Ritz pair has converged."""

    n: int
    ratios: tuple
    trials: int
    noise: NoiseModel = NoiseModel.none()
    anchor_iters: int = 50
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    out_path: Optional[str] = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "ratios", tuple(float(r) for r in self.ratios))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.ratios or not all(1 <= r < math.inf for r in self.ratios):
            raise ValueError("ratios must be a nonempty list of finite values >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.anchor_iters < 1:
            raise ValueError("anchor_iters must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    """One sweep trial outcome and one CSV row: the fields, in order, are the columns."""

    n: int
    m: int
    ratio: float
    trial: int
    seed: int
    noise_kind: str
    noise_param: float
    snr_db: Optional[float]
    anchor_corr: float
    rel_error: float
    iters: int
    converged: bool
    runtime_ms: float
    stop_reason: str


CSV_HEADER = [f.name for f in fields(TrialRecord)]


def _gaussian_instance(n: int, ratio: float, noise: NoiseModel, stream: RngStream):
    """(ens, obs, xstar) of a sweep trial: xstar, then round(ratio n) dense
    Gaussian rows, then the noisy observations, all drawn from stream."""
    xstar = sample_complex_gaussian(n, stream)
    ens = DenseEnsemble.gaussian(n, int(round(ratio * n)), stream)
    return ens, observe(ens, xstar, noise, stream), xstar


def _recover(ens, obs, xstar, anchor_iters: int, cfg: SolverConfig, stream: RngStream):
    """The paper's estimator on one instance: the spectral anchor, drawn from
    stream, then the anchored relaxation solved from it. Returns the anchor's
    report, the Solution, the wall time of the two in ms and the
    phase-aligned error of the estimate to xstar."""
    t0 = time.perf_counter()
    report = spectral_anchor(ens, obs, anchor_iters, stream)
    sol = solve_phasemax(ens, obs, report.a0, cfg)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    return report, sol, runtime_ms, phase_align_error(sol.xhat, xstar)


def _run_trial(cfg: SweepConfig, ratio: float, stream_id: int, trial: int) -> TrialRecord:
    stream = RngStream(cfg.seed, stream_id)
    ens, obs, xstar = _gaussian_instance(cfg.n, ratio, cfg.noise, stream)
    report, sol, runtime_ms, rel_error = _recover(ens, obs, xstar, cfg.anchor_iters, cfg.solver,
                                                  stream)
    return TrialRecord(
        n=cfg.n,
        m=ens.m,
        ratio=ratio,
        trial=trial,
        seed=cfg.seed,
        noise_kind=cfg.noise.kind,
        noise_param=cfg.noise.param,
        snr_db=obs.snr_db,
        anchor_corr=anchor_correlation(report.a0, xstar),
        rel_error=rel_error,
        iters=sol.iters_used,
        converged=sol.converged,
        runtime_ms=runtime_ms,
        stop_reason=sol.stop_reason,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on; all of the machine's where the platform
    cannot say (sched_getaffinity is Linux-only)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def run_sweep(cfg: SweepConfig) -> list:
    """Run trials x ratios recovery experiments on dense Gaussian ensembles.

    Each (ratio, trial) pair owns RngStream(seed, stream_id) with a distinct
    stream_id, so results are reproducible and independent of worker count or
    scheduling. Records are returned in (ratio, trial) order and written as
    CSV when cfg.out_path is set. The file is created and its header written
    before the first trial, so a path that cannot be written fails at once.
    """
    if cfg.out_path is None:
        return _run_trials(cfg)
    with open(cfg.out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        records = _run_trials(cfg)
        # csv writes snr_db = None as an empty field.
        writer.writerows(astuple(r) for r in records)
    return records


def _run_trials(cfg: SweepConfig) -> list:
    """run_sweep's records, in (ratio, trial) order."""
    tasks = [(ratio, ri * cfg.trials + trial, trial)
             for ri, ratio in enumerate(cfg.ratios) for trial in range(cfg.trials)]
    run_trial = functools.partial(_run_trial, cfg)
    # The executor forks all max_workers processes when it starts, so the pool
    # gets no more workers than tasks or than CPUs this process may run on.
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        workers = min(workers, _usable_cpus())
    if workers > 1:
        # Imported here: the process pool and multiprocessing made importing
        # phasemax.cli after numpy take 42 ms instead of 29 ms (medians of 25
        # interpreter starts, 2-vCPU Xeon), and most calls run no pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_trial, *zip(*tasks)))
    return list(map(run_trial, *zip(*tasks)))


def ratio_summary(records) -> list:
    """Per-ratio (ratio, median, 0.9-quantile) of the relative error."""
    by_ratio = {}
    for r in records:
        by_ratio.setdefault(r.ratio, []).append(r.rel_error)
    out = []
    for ratio in sorted(by_ratio):
        errs = np.asarray(by_ratio[ratio])
        out.append((ratio, float(np.median(errs)), float(np.quantile(errs, 0.9))))
    return out


# The cap for demo solves that the crossover does not certify (certified
# ones stop at the solver's matrix-free checkpoint, 20 iterations). Without
# the crossover, 175 iterations from the rescaled anchor end at errors of
# 1.9e-8 to 1.4e-7 on criterion 7's instance and cdp-image calls
# 5,000,000-5,000,002, below the 1.1e-7 to 1.1e-6 that 250 from x = 0
# reached (tools/step_scan.py --cdp).
DEFAULT_CDP_CONFIG = SolverConfig(max_iters=175)


@dataclass(frozen=True)
class CdpReport:
    """Outcome of the coded-diffraction image recovery demo."""

    n: int
    m: int
    num_masks: int
    rel_error: float
    iters_used: int
    converged: bool
    runtime_ms: float
    recovered_pgm: str
    recovered_f64: str
    report_path: str


def _cdp_instance(image_path, num_masks: int, seed: int):
    """(ens, obs, xstar, stream, shape, scale) of the CDP demo: the PGM at
    image_path, of the given shape and Frobenius norm scale, flattened to a
    real signal of unit energy, then num_masks Rademacher masks and the
    noiseless observations drawn from stream = RngStream(seed), which the
    anchor goes on to draw from. CodedDiffractionEnsemble.rademacher
    rejects num_masks < 1."""
    image = read_pgm(image_path).astype(np.float64)
    scale = np.linalg.norm(image)
    if scale == 0:
        raise ValueError("image is identically zero; nothing to recover")
    xstar = (image.ravel() / scale).astype(np.complex128)
    stream = RngStream(seed)
    ens = CodedDiffractionEnsemble.rademacher(xstar.shape[0], num_masks, stream)
    return ens, observe(ens, xstar, NoiseModel.none(), stream), xstar, stream, image.shape, scale


def run_cdp_demo(
    image_path,
    num_masks: int,
    cfg: Optional[SolverConfig] = None,
    seed: int = 0,
    out_prefix: str = "cdp",
    anchor_iters: int = 50,
) -> CdpReport:
    """Recover a grayscale PGM image from noiseless coded diffraction patterns.

    The image is flattened to a real non-negative signal and normalized to
    unit energy before measuring (solutions of the relaxation scale linearly
    with the data). The masks are Rademacher, so A^H A = L I and the solver
    starts from the spectral anchor, built in at most anchor_iters Lanczos
    steps, rescaled to exactly ||xstar||. cfg defaults to
    DEFAULT_CDP_CONFIG: solves the crossover certifies stop at its
    checkpoint, 20 iterations; 175 iterations cap the others. The
    recovered estimate is phase-aligned, rescaled, and its real part
    written both as a clamped 8-bit PGM and as a raw float64 sidecar for
    bit-exact error computation. Wall time is
    reported on the return value only, so two runs with the same inputs,
    seed, numpy build and BLAS thread count write the same bytes. Across
    thread counts they may not: the anchor's Gram-Schmidt matmul and eigh
    go through BLAS. On a 2-vCPU host the 64x64 demo at L = 20 wrote
    rel_error 3.3153e-15 with the default two threads and 3.3185e-15 with
    one.
    """
    ens, obs, xstar, stream, shape, scale = _cdp_instance(image_path, num_masks, seed)
    _, sol, runtime_ms, rel_error = _recover(ens, obs, xstar, anchor_iters,
                                             DEFAULT_CDP_CONFIG if cfg is None else cfg, stream)

    overlap = np.vdot(sol.xhat, xstar)
    phase = np.exp(1j * np.angle(overlap)) if overlap != 0 else 1.0
    recovered = (phase * sol.xhat).real * scale

    prefix = str(out_prefix)
    pgm_path = prefix + "_recovered.pgm"
    f64_path = prefix + "_recovered.f64"
    report_path = prefix + "_report.txt"
    write_pgm(pgm_path, recovered.reshape(shape))
    write_f64_sidecar(f64_path, recovered)
    lines = [
        f"n={ens.n}",
        f"m={ens.m}",
        f"num_masks={num_masks}",
        f"seed={seed}",
        f"rel_error={rel_error!r}",
        f"iters_used={sol.iters_used}",
        f"converged={sol.converged}",
        f"stop_reason={sol.stop_reason}",
        f"objective={sol.objective!r}",
    ]
    Path(report_path).write_text("\n".join(lines) + "\n")
    return CdpReport(
        n=ens.n,
        m=ens.m,
        num_masks=num_masks,
        rel_error=rel_error,
        iters_used=sol.iters_used,
        converged=sol.converged,
        runtime_ms=runtime_ms,
        recovered_pgm=pgm_path,
        recovered_f64=f64_path,
        report_path=report_path,
    )


@dataclass(frozen=True)
class CheckResult:
    """One verify check. margin is how far the observed value lies inside the
    requirement, in the units the requirement is stated in (negative on
    failure); None for checks with a yes/no outcome."""

    name: str
    passed: bool
    observed: str
    required: str
    margin: Optional[float] = None

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: observed {self.observed}, required {self.required}"


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    seed: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"verify suite={self.suite} seed={self.seed}"]
        lines.extend(c.render() for c in self.checks)
        status = "OK" if self.passed else "FAILED"
        lines.append(f"{len(self.checks)} checks, {sum(c.passed for c in self.checks)} passed: {status}")
        return "\n".join(lines)


# The quadrature's nodes v = exp(-25 + 0.1 k), k < 286, each with its
# exp(-v^2/2); they do not depend on (alpha, beta).
_QUADRATURE_NODES = [(v, math.exp(-0.5 * v * v))
                     for v in (math.exp(-25.0 + 0.1 * k) for k in range(286))]


def _rayleigh_normal_quadrature(alpha: float, beta: float) -> float:
    """P(alpha*v + beta/v > g) from its defining integral
    F = int_0^inf Phi(alpha v + beta/v) v exp(-v^2/2) dv, independently of
    the closed form: the trapezoid rule in s = ln v, step 0.1 on [-25, 3.5].

    In s the integrand Phi(alpha e^s + beta e^-s) e^{2s} exp(-e^{2s}/2) is
    smooth and decays like e^{2s} as s -> -inf and double-exponentially as
    s -> inf, so the rule converges geometrically in the step. The tails cut
    off weigh below 1e-21, and so do the endpoint terms, which is why every
    node carries the same weight.
    """
    root2 = math.sqrt(2.0)
    terms = (math.erfc(-(alpha * v + beta / v) / root2) * v * v * decay
             for v, decay in _QUADRATURE_NODES)
    return 0.05 * math.fsum(terms)  # step 0.1 times Phi = erfc(-x / sqrt 2) / 2


def _closed_form_checks() -> list:
    checks = []
    alphas = (-2.0, -0.5, 0.0, 0.5, 2.0)
    betas = (-1.0, -0.1, 0.0, 0.1, 1.0)
    gap_q = max(abs(theory.rayleigh_normal_cdf(a, bt) - _rayleigh_normal_quadrature(a, bt))
                for a in alphas for bt in betas)
    checks.append(CheckResult(
        name="rayleigh_normal_cdf quadrature grid",
        passed=gap_q <= 1e-12,
        observed=f"max gap to the quadrature {gap_q:.2e}",
        required=f"<= 1e-12 for alpha in {alphas}, beta in {betas}",
        margin=1e-12 - gap_q,
    ))

    grid = np.linspace(-10.0, 10.0, 201)
    gap = max(abs(theory.rayleigh_normal_cdf(a, 0.0) - theory.rayleigh_normal_cdf(a, -1e-300))
              for a in grid)
    checks.append(CheckResult(
        name="branch continuity at beta=0",
        passed=gap <= 1e-12,
        observed=f"max branch gap {gap:.2e}",
        required="<= 1e-12 for alpha in [-10, 10]",
        margin=1e-12 - gap,
    ))

    # F(alpha, 0) against its exact value, not only against the quadrature.
    gap0 = 0.0
    for a in alphas:
        s = math.hypot(a, 1.0)
        gap0 = max(gap0, abs(theory.rayleigh_normal_cdf(a, 0.0) - (s + a) / (2.0 * s)))
    checks.append(CheckResult(
        name="F(0) identity (s + alpha) / (2s)",
        passed=gap0 <= 1e-12,
        observed=f"max gap {gap0:.2e}",
        required=f"<= 1e-12 for alpha in {alphas}",
        margin=1e-12 - gap0,
    ))

    dense_a = np.linspace(-6.0, 6.0, 41)
    dense_b = np.linspace(-3.0, 3.0, 41)
    vals = np.array([[theory.rayleigh_normal_cdf(a, bt) for bt in dense_b] for a in dense_a])
    in_range = bool(np.all(vals >= 0.0) and np.all(vals <= 1.0))
    mono_a = bool(np.all(np.diff(vals, axis=0) >= -1e-12))
    mono_b = bool(np.all(np.diff(vals, axis=1) >= -1e-12))
    checks.append(CheckResult(
        name="rayleigh_normal_cdf range and monotonicity",
        passed=in_range and mono_a and mono_b,
        observed=f"in [0,1]: {in_range}, nondecreasing in alpha: {mono_a}, in beta: {mono_b}",
        required="all true on a 41x41 grid",
    ))
    return checks


def _geometry_checks(seed: int, num_h: int, num_a: int) -> list:
    checks = []
    stream = RngStream(seed, 2)
    g = stream.generator
    n = 8

    counterexamples = 0
    for delta in (0.1, 0.5, 0.9):
        ctx = theory.GeometryContext(xstar=sample_complex_gaussian(n, stream), delta=delta, t=1.0)
        ys = sample_complex_gaussian(n, stream, rows=200)
        counterexamples += np.count_nonzero(theory._in_C(ctx, ys) & ~theory._in_Cprime(ctx, ys))
    ok = counterexamples == 0
    checks.append(CheckResult(
        name="C_delta contained in Cprime_delta",
        passed=ok,
        observed="implication held on all samples" if ok else "counterexample found",
        required="no counterexample over 600 random vectors",
    ))

    xs = sample_complex_gaussian(n, stream)
    xs = xs / np.linalg.norm(xs)
    ctx = theory.GeometryContext(xstar=xs, delta=0.6, t=1.0)
    projector = np.eye(n) - np.outer(xs, xs.conj())
    # Each draw is followed by its scale's, so the 500 are drawn one at a time.
    hs = np.array([sample_complex_gaussian(n, stream) * g.uniform(0.01, 3.0) for _ in range(500)])
    overlap = theory._overlaps(xs, hs)
    resid_norm = theory._row_norms((projector @ hs[:, :, None])[:, :, 0])
    ok_r = np.array_equal(theory._in_R(ctx, hs), resid_norm >= ctx.delta * np.abs(overlap.imag))
    rhs = -math.sqrt(1.0 - ctx.delta**2) * resid_norm
    ok_c = np.array_equal(theory._in_Cprime(ctx, hs), ctx.delta * overlap.real >= rhs)
    checks.append(CheckResult(
        name="R_delta and Cprime_delta vs explicit projector",
        passed=ok_r and ok_c,
        observed=f"R_delta agreement: {ok_r}, Cprime agreement: {ok_c}",
        required="exact agreement on 500 random directions",
    ))

    # At (0.99, 0.1) the bound is 0.32, far above the 4-standard-error slack,
    # so a wrong bound can fail the check; at large t / delta^2 it underflows
    # towards 0 and any estimate would pass.
    delta, t, eta_inv = 0.99, 0.1, 1e-3
    xs = sample_complex_gaussian(n, stream)
    ctx = theory.GeometryContext(xstar=xs, delta=delta, t=t, eta_inv=eta_inv)
    pmin_emp = theory.empirical_pmin(ctx, num_h=num_h, num_a=num_a, rng=stream)
    bound = theory.pmin_lower_bound(delta, t)
    se = math.sqrt(max(pmin_emp * (1.0 - pmin_emp), 1.0 / num_a) / num_a)
    ok_pmin = pmin_emp >= bound - 4.0 * se
    checks.append(CheckResult(
        name="empirical pmin dominates closed-form lower bound",
        passed=ok_pmin,
        observed=f"min estimate {pmin_emp:.3e} vs bound {bound:.3e} (se {se:.1e})",
        required=f"min over {num_h} directions >= bound - 4 standard errors",
        margin=(pmin_emp - bound) / se + 4.0,
    ))
    return checks


def _vc_checks() -> list:
    checks = []
    ok = theory.sauer_bound(4, 2) == 11
    worst_pair = None
    for n in range(4, 65, 4):
        for d in range(2, 9):
            if n <= d:
                continue
            if theory.sauer_bound(n, d) > theory.sauer_bound_loose(n, d):
                ok = False
                worst_pair = (n, d)
    for n in (1, 2, 3):
        if theory.sauer_bound(n, 4) != 2**n:
            ok = False
    checks.append(CheckResult(
        name="shatter-coefficient bounds (binomial sum vs relaxation)",
        passed=ok,
        observed="relaxation dominated the sharp bound on the whole grid" if ok
        else f"violated at {worst_pair}",
        required="sauer_bound(n,d) <= (en/d)^d for n > d; 2^n when n <= d; spot value 11 at (4,2)",
    ))

    ok_dev = abs(theory.vc_deviation_bound(100, 7.5, 0.0) - 60.0) <= 1e-12
    b1 = theory.vc_deviation_bound(500, 123.0, 0.2)
    b2 = theory.vc_deviation_bound(1000, 123.0, 0.2)
    ratio = b2 / b1
    expect = math.exp(-500 * 0.04 / 8.0)
    ok_dev = ok_dev and abs(ratio - expect) <= 1e-12 * expect
    checks.append(CheckResult(
        name="deviation bound structure (t=0 value, doubling law)",
        passed=ok_dev,
        observed=f"t=0 gives 8*shatter; doubling ratio {ratio:.6e} vs {expect:.6e}",
        required="exact within 1e-12 relative",
    ))

    ok_sc = True
    worst_margin = math.inf
    for p in (0.01, 0.05, 0.3):
        for n_dim in (10, 500):
            for eps in (0.1, 0.01):
                m = theory.sample_complexity(p, n_dim, eps)
                lhs = (16 * n_dim * math.log(math.e * m / (2 * n_dim))
                       + 8 * math.log(8 / eps)) / m
                worst_margin = min(worst_margin, p * p - lhs)
                if lhs >= p * p:
                    ok_sc = False
    checks.append(CheckResult(
        name="sample-complexity proof inequality",
        passed=ok_sc,
        observed=f"worst margin p^2 - lhs = {worst_margin:.3e}",
        required="(16N log(eM/2N) + 8 log(8/eps))/M < p^2 at every grid point",
        margin=worst_margin,
    ))
    return checks


def run_verify(
    suite: str = "all",
    seed: int = 0,
    mc_draws: int = 1_000_000,
    num_h: int = 200,
    num_a: int = 100_000,
) -> VerifyReport:
    """Run the selected verification suite and report per-check status.

    Failures are reported in the result, never raised. The report text is
    deterministic for a fixed (suite, seed, scale) so repeated runs can be
    compared verbatim. The closed-forms suite is deterministic outright: it
    checks rayleigh_normal_cdf against a quadrature of its defining integral,
    so its report depends on neither the seed nor the scale. mc_draws has no
    effect; it is still accepted for callers that pass it.
    """
    if suite not in ("closed-forms", "geometry", "vc", "all"):
        raise ValueError(f"unknown suite {suite!r}")
    checks = []
    if suite in ("closed-forms", "all"):
        checks.extend(_closed_form_checks())
    if suite in ("geometry", "all"):
        checks.extend(_geometry_checks(seed, num_h, num_a))
    if suite in ("vc", "all"):
        checks.extend(_vc_checks())
    return VerifyReport(suite=suite, seed=seed, checks=tuple(checks))
