"""Computable forms of the recovery analysis: the Rayleigh-normal closed form,
the measurement-cut probability lower bound, cone and region membership, the
exclusion certificate, and VC-type sample-complexity arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .measurements import MeasurementEnsemble
from .numerics import RngStream, as_signal, real_inner, sample_complex_gaussian

__all__ = [
    "GeometryContext",
    "CertificateReport",
    "rayleigh_normal_cdf",
    "pmin_lower_bound",
    "in_R_delta",
    "in_C_delta",
    "in_Cprime_delta",
    "check_certificate",
    "measurement_cut_probability",
    "empirical_pmin",
    "sauer_bound",
    "sauer_bound_loose",
    "vc_deviation_bound",
    "sample_complexity",
]

_MAX_EXP = 709.0  # largest x with exp(x) finite in float64
_CUT_CHUNK = 1 << 18  # measurement draws per block in measurement_cut_probability
_CUT_SUB = 1 << 15  # draws per slice a direction is scored over: 1 MB of R, Q and buffers


@dataclass(frozen=True)
class GeometryContext:
    """Ground truth and constants for the geometric predicates.

    xstar is normalized to unit l2 norm on construction. delta is the anchor
    correlation constant, t the error-radius multiplier, and eta_inv the noise
    upper bound (0 means noiseless).
    """

    xstar: np.ndarray
    delta: float
    t: float
    eta_inv: float = 0.0

    def __post_init__(self):
        xs = as_signal(self.xstar, "xstar")
        norm = np.linalg.norm(xs)
        if norm == 0:
            raise ValueError("xstar must be nonzero")
        object.__setattr__(self, "xstar", xs / norm)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.t < math.inf:
            raise ValueError("t must be finite and > 0")
        if not 0.0 <= self.eta_inv < math.inf:
            raise ValueError("eta_inv must be finite and >= 0")


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of testing one candidate error direction h against the
    exclusion inequalities."""

    in_R_delta: bool
    anchor_inequality_holds: bool
    first_violated_constraint: Optional[int]
    certified_excluded: bool


def rayleigh_normal_cdf(alpha: float, beta: float) -> float:
    """P(alpha*v + beta/v > g) for independent v ~ Rayleigh(1), g ~ Normal(0,1).

    Two-branch closed form. With s = sqrt(alpha^2 + 1):

        beta >= 0:  1 - (s - alpha)/(2s) * exp(-beta*(alpha + s))
        beta <  0:  (s + alpha)/(2s) * exp(beta/(alpha + s))

    (s - alpha) and (s + alpha) are reciprocal, which is used to avoid
    cancellation for large |alpha|; the branches agree at beta = 0.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("alpha and beta must be finite")
    s = math.hypot(alpha, 1.0)
    sum_pos = s + alpha if alpha >= 0 else 1.0 / (s - alpha)  # alpha + s > 0
    diff_pos = s - alpha if alpha <= 0 else 1.0 / (s + alpha)  # s - alpha > 0
    if beta >= 0:
        exponent = -beta * sum_pos
        value = 1.0 - diff_pos / (2.0 * s) * (math.exp(exponent) if exponent > -_MAX_EXP else 0.0)
    else:
        exponent = beta / sum_pos
        value = sum_pos / (2.0 * s) * (math.exp(exponent) if exponent > -_MAX_EXP else 0.0)
    return min(max(value, 0.0), 1.0)


def pmin_lower_bound(delta: float, t: float) -> float:
    """Lower bound on the measurement-cut probability for complex Gaussian
    measurements: (1/2 - sqrt(1 - delta^2)/2) * exp(-2*sqrt(2) * t / delta^2).

    Valid for unit anchors with correlation constant delta in (0, 1] and any
    finite t > 0; the value lies in [0, 1/2] and underflows to 0 for large t/delta^2.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if not 0.0 < t < math.inf:
        raise ValueError("t must be finite and > 0")
    if delta * delta == 0.0:  # the prefactor underflows, and t / delta^2 would divide by 0
        return 0.0
    root = math.sqrt(max(1.0 - delta * delta, 0.0))
    prefactor = delta * delta / (2.0 * (1.0 + root))  # == (1 - root)/2, stable for small delta
    exponent = -2.0 * math.sqrt(2.0) * t / (delta * delta)
    if exponent < -_MAX_EXP:
        return 0.0
    return prefactor * math.exp(exponent)


def _overlaps(x: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """x^H h for every row h of the stack hs, each summed as np.vdot(x, h)
    sums it: a (1, n) @ (n, 1) matmul is one BLAS dot."""
    return (x.conj()[None, None, :] @ hs[:, :, None])[:, 0, 0]


def _row_norms(hs: np.ndarray) -> np.ndarray:
    """||h||_2 for every row h of the stack hs, each summed as
    np.linalg.norm(h) sums it: one BLAS dot of the real parts plus one of
    the imaginary parts."""
    re, im = hs.real, hs.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])


def _split(x: np.ndarray, hs: np.ndarray):
    """(c, p) for every row h of hs: c = x^H h and p = ||h - c x||_2."""
    c = _overlaps(x, hs)
    return c, _row_norms(hs - c[:, None] * x)


def _in_R(ctx: GeometryContext, hs: np.ndarray) -> np.ndarray:
    c, p = _split(ctx.xstar, hs)
    return p >= ctx.delta * np.abs(c.imag)


def _in_C(ctx: GeometryContext, ys: np.ndarray) -> np.ndarray:
    return _overlaps(ctx.xstar, ys).real >= ctx.delta * _row_norms(ys)


def _in_Cprime(ctx: GeometryContext, zs: np.ndarray) -> np.ndarray:
    c = _overlaps(ctx.xstar, zs)
    # np.hypot rounds |c| as abs() of one complex scalar does; np.abs on an
    # array can differ in the last bit.
    residual_sq = np.maximum(_row_norms(zs) ** 2 - np.hypot(c.real, c.imag) ** 2, 0.0)
    rhs = -math.sqrt(max(1.0 - ctx.delta**2, 0.0)) * np.sqrt(residual_sq)
    return ctx.delta * c.real >= rhs


def in_R_delta(h, ctx: GeometryContext) -> bool:
    """Membership in the region ||h - (x^H h) x||_2 >= delta * |Im(x^H h)|."""
    return bool(_in_R(ctx, as_signal(h, "h", ctx.xstar.shape[0])[None])[0])


def in_C_delta(y, ctx: GeometryContext) -> bool:
    """Membership in the cone Re(x^H y) >= delta * ||y||_2."""
    return bool(_in_C(ctx, as_signal(y, "y", ctx.xstar.shape[0])[None])[0])


def in_Cprime_delta(z, ctx: GeometryContext) -> bool:
    """Membership in the closure of the complement of the polar cone:
    delta * <x, z> >= -sqrt(1 - delta^2) * sqrt(||z||^2 - |x^H z|^2)."""
    return bool(_in_Cprime(ctx, as_signal(z, "z", ctx.xstar.shape[0])[None])[0])


def check_certificate(
    h, a0, ens: MeasurementEnsemble, ctx: GeometryContext
) -> CertificateReport:
    """Test whether the direction h violates the optimality inequalities
    <a0, h> >= 0 and <a_i a_i^H xstar, h> <= eta_inv / 2.

    The per-measurement values are computed as Re(conj(a_i^H xstar) * a_i^H h);
    h is certified excluded when the anchor inequality fails or some
    measurement inequality is violated.

    Every h = x - xstar with x inside the slabs |a_i^H x|^2 <= b_i, where
    b_i <= |a_i^H xstar|^2 + eta_inv, satisfies the measurement inequalities,
    since Re(conj(a_i^H xstar) a_i^H h) = (|a_i^H x|^2 - |a_i^H xstar|^2
    - |a_i^H h|^2) / 2. To test an estimate's error direction
    h = xhat - xstar, ctx.eta_inv must cover the noise bound plus the
    estimate's feas_residual: xhat is feasible only to that residual, and a
    cut value can exceed a noise-only threshold by up to feas_residual / 2.
    """
    hv = as_signal(h, "h", ens.n)
    a0v = as_signal(a0, "a0", ens.n)
    in_r = in_R_delta(hv, ctx)  # also checks that ctx.xstar has length ens.n
    anchor_ok = real_inner(a0v, hv) >= 0.0
    vals = (np.conj(ens.forward(ctx.xstar)) * ens.forward(hv)).real
    threshold = 0.5 * ctx.eta_inv
    violated = np.nonzero(vals > threshold)[0]
    first = int(violated[0]) if violated.size else None
    return CertificateReport(
        in_R_delta=in_r,
        anchor_inequality_holds=anchor_ok,
        first_violated_constraint=first,
        certified_excluded=(not anchor_ok) or first is not None,
    )


def _cut_hits(ctx: GeometryContext, hs, num_a: int, rng: RngStream) -> np.ndarray:
    """Count, for every row h of the stack hs, the draws among num_a complex
    Gaussian measurements whose cut value <a a^H xstar, h> exceeds
    eta_inv / 2. All directions are scored on the same draws.

    The event depends on a only through its coordinates in span{xstar, h}.
    ctx.xstar has unit norm, so h = c xstar + p e with c = xstar^H h,
    p = ||h - c xstar|| and e a unit vector orthogonal to xstar. Then
    u = a^H xstar and z = a^H e are i.i.d. CN(0, 1), and the cut value is
    Re(c) |u|^2 + p Re(conj(u) z). Each draw therefore costs four real
    normals whatever n is: with u = (g0 + i g1)/sqrt(2) and
    z = (g2 + i g3)/sqrt(2), twice the cut value is Re(c) R + p Q with
    R = g0^2 + g1^2 and Q = g0 g2 + g1 g3, compared with eta_inv. R and Q
    do not depend on h, so they are formed once per block of _CUT_CHUNK
    draws, and every direction is scored over one _CUT_SUB-column slice of
    them at a time, which stays in cache.
    """
    c, p = _split(ctx.xstar, np.asarray(hs))
    coeffs = list(zip(c.real.tolist(), p.tolist()))
    g = rng.generator
    hits = np.zeros(len(coeffs), dtype=np.int64)
    above = np.empty(min(_CUT_SUB, num_a), dtype=bool)
    remaining = int(num_a)
    while remaining > 0:
        k = min(_CUT_CHUNK, remaining)
        g0, g1, g2, g3 = g.standard_normal((4, k))
        # In place, g2 <- Q and g0 <- R; g1 and g3 are then free as buffers.
        g2 *= g0
        g3 *= g1
        g2 += g3
        g0 *= g0
        g1 *= g1
        g0 += g1
        for s in range(0, k, _CUT_SUB):
            r, q, buf, tmp = (v[s:s + _CUT_SUB] for v in (g0, g2, g1, g3))
            mask = above[:r.shape[0]]
            for j, (re_c, p_j) in enumerate(coeffs):
                np.multiply(r, re_c, out=buf)
                np.multiply(q, p_j, out=tmp)
                buf += tmp
                np.greater(buf, ctx.eta_inv, out=mask)
                hits[j] += np.count_nonzero(mask)
        remaining -= k
    return hits


def measurement_cut_probability(ctx: GeometryContext, h, num_a: int, rng: RngStream) -> float:
    """Monte Carlo estimate of P(<a a^H xstar, h> > eta_inv / 2) over num_a
    fresh complex Gaussian measurement draws a ~ CN(0, I_n).

    Each draw costs four real normals whatever n is: the event depends on a
    only through its coordinates in span{xstar, h} (see _cut_hits).
    """
    if num_a < 1:
        raise ValueError("num_a must be >= 1")
    hv = as_signal(h, "h", ctx.xstar.shape[0])
    return int(_cut_hits(ctx, hv[None], num_a, rng)[0]) / num_a


def empirical_pmin(ctx: GeometryContext, num_h: int, num_a: int, rng: RngStream) -> float:
    """Smallest Monte Carlo cut probability over sampled adversarial directions.

    Directions h are complex Gaussian draws rescaled to sit just above the
    norm threshold eta_inv / t where the infimum is approached, and are kept
    only if they land in C'_delta intersect R_delta (rejection sampling),
    within 1000 num_h attempts. Attempts are drawn as stacks of as many as
    directions are still missing: each accepts at most one direction, so a
    stack never overshoots, and the stream ends where one attempt at a time
    leaves it. Requires eta_inv > 0, otherwise the threshold degenerates to 0.

    All num_h directions are scored on one shared sample of num_a
    measurements, as in the sample-complexity argument, where one set of
    measurements must cut every direction at once and a uniform-deviation
    (VC) bound controls all the empirical frequencies together. Each
    direction's estimate is still Binomial(num_a, p_h) / num_a; only their
    joint law changes. The minimum of unbiased estimates is biased low,
    E[min_h p_hat_h] <= min_h p_h (Jensen), so comparing it with a lower
    bound on p_min stays conservative.
    """
    if num_h < 1 or num_a < 1:
        raise ValueError("num_h and num_a must be >= 1")
    if ctx.eta_inv <= 0:
        raise ValueError("empirical_pmin requires eta_inv > 0")
    target_norm = (1.0 + 1e-6) * ctx.eta_inv / ctx.t
    n = ctx.xstar.shape[0]
    accepted = []
    found = 0
    attempts = 0
    max_attempts = 1000 * num_h
    while found < num_h and attempts < max_attempts:
        k = min(num_h - found, max_attempts - attempts)
        attempts += k
        hs = sample_complex_gaussian(n, rng, rows=k)
        norms = _row_norms(hs)
        nonzero = norms != 0
        hs = hs[nonzero] * (target_norm / norms[nonzero])[:, None]
        hs = hs[_in_Cprime(ctx, hs) & _in_R(ctx, hs)]
        accepted.append(hs)
        found += hs.shape[0]
    if found < num_h:
        raise RuntimeError(
            f"rejection sampling accepted only {found}/{num_h} directions "
            f"after {max_attempts} attempts"
        )
    return int(_cut_hits(ctx, np.concatenate(accepted), num_a, rng).min()) / num_a


def sauer_bound(n: int, d: int) -> int:
    """Sharp shatter-coefficient bound min(sum_{i=0}^{d} C(n,i), 2^n) for a
    binary class of VC dimension d on n points."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    total = sum(math.comb(n, i) for i in range(min(d, n) + 1))
    return min(total, 2**n)


def sauer_bound_loose(n: int, d: int) -> float:
    """The (e*n/d)^d relaxation of the shatter-coefficient bound; dominates
    sauer_bound whenever n > d."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    exponent = d * (1.0 + math.log(n) - math.log(d))
    if exponent > _MAX_EXP:
        return math.inf
    return math.exp(exponent)


def vc_deviation_bound(n: int, shatter: float, t: float) -> float:
    """Uniform-deviation tail bound 8 * shatter * exp(-n t^2 / 8) for empirical
    frequencies over a class with the given shatter coefficient.

    The bound may exceed 1 (valid but vacuous); shatter = inf gives inf.
    t must be finite and shatter must not be NaN. Evaluated through the log
    domain so that astronomically large shatter coefficients still combine
    with tiny exponential factors without overflow.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and >= 0")
    if not shatter >= 1:
        raise ValueError("shatter must be >= 1 (inf allowed)")
    if math.isinf(shatter):
        return math.inf
    log_val = math.log(8.0) + math.log(shatter) - n * t * t / 8.0
    if log_val > _MAX_EXP:
        return math.inf
    if log_val < -_MAX_EXP:
        return 0.0
    return math.exp(log_val)


def sample_complexity(p_min: float, n_dim: int, failure_prob: float) -> int:
    """Measurement count sufficient for the exclusion argument to hold with
    probability >= 1 - failure_prob:

        M = ceil( (8 / p_min^2) * (c * 2N + 2 * log(8 / failure_prob)) ),
        c = 2 * log(8e / p_min^2).

    At this M the deviation inequality
    (16N log(eM/2N) + 8 log(8/failure_prob)) / M < p_min^2 is satisfied.
    Raises ValueError when M exceeds the float range, as it does for p_min
    below about 2e-151 at N = 128.
    """
    if not 0.0 < p_min < 1.0:
        raise ValueError("p_min must lie in (0, 1)")
    if n_dim < 1:
        raise ValueError("n_dim must be >= 1")
    if not 0.0 < failure_prob < 1.0:
        raise ValueError("failure_prob must lie in (0, 1)")
    c = 2.0 * (math.log(8.0) + 1.0 - 2.0 * math.log(p_min))
    p_sq = p_min * p_min
    m_real = math.inf if p_sq == 0.0 else (8.0 / p_sq) * (c * 2.0 * n_dim
                                                         + 2.0 * math.log(8.0 / failure_prob))
    if m_real == math.inf:
        raise ValueError(f"the measurement count for p_min = {p_min:g} exceeds the float range")
    return int(math.ceil(m_real))
