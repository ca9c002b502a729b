"""First-order solver for the anchored relaxation: maximize <a0, x> subject to
|a_i^H x|^2 <= b_i, by over-relaxed primal-dual proximal splitting, ended
by a certified Gauss-Newton crossover where the lifted Gram matrix fits in
the operator's own memory."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measurements import MeasurementEnsemble, Observations, operator_norm
from .numerics import RngStream, as_signal, real_inner

__all__ = [
    "SolverConfig",
    "Solution",
    "solve_phasemax",
    "feasibility_residual",
]

# Fixed stream for the internal operator-norm estimate so that identical
# inputs and config always produce identical Solutions.
_NORM_EST_SEED = 0x5EED
_NORM_EST_ITERS = 30
# Fraction of the step-size stability bound: tau = c _STEP_SCALE / ||A|| and
# sigma = _STEP_SCALE / (c ||A||), so tau * sigma * ||A||^2 = _STEP_SCALE^2 < 1.
_STEP_SCALE = 0.95
# Over-relaxation: each primal-dual step is stretched by this factor,
# (x, y) <- (x, y) + rho (T(x, y) - (x, y)) for the plain step T, which
# converges for 0 < rho < 2 when tau * sigma * ||A||^2 <= 1 (Condat, JOTA
# 2013; Chambolle & Pock, Math. Program. 2016). Unlike a larger ratio
# tau / sigma (Applegate et al., PDLP, arXiv:2106.04756) it shortens the
# slow tail of hard trials too; tools/step_scan.py measures each value.
_RELAXATION = 1.7
# The tracked sigma * A x differs from a fresh forward by rounding only, far
# below the screen's slack: it passes residuals up to 2 tol_feas +
# _SCREEN_RTOL * max b, so it does not reject an iterate the exact check
# would accept.
_SCREEN_RTOL = 1e-12
# The dual entries of inactive slabs decay geometrically towards 0 (by
# rho - 1 = 0.7 a step). Left alone they reach subnormal values after
# about 2,000 steps, where arithmetic is many times slower (an adjoint took
# 1.8 ms instead of 0.2 ms at m = 1536). So every _FLUSH_EVERY steps the
# solver sets entries below _DUAL_FLOOR * ||a0|| / ||A|| to 0; a dual optimum
# has ||y|| >= ||a0|| / ||A||.
_DUAL_FLOOR = 1e-100
_FLUSH_EVERY = 16
_TINY = np.finfo(np.float64).tiny
# Crossover (see _polish): the one checkpoint, in iterations. On 180
# gauss-sweep trials (call seeds s * 10^6 + k, s = 1..3, k < 30; one BLAS
# thread, 2-vCPU Xeon) 50 iterations left the iterate close enough that
# Gauss-Newton reached x* on all, and 178 were certified. There is no
# retry: noisy b has no exact solution, so Gauss-Newton stalls at every
# checkpoint. Of the 32 held-out trials at M/N = 4-12 (tools/step_scan.py
# --polish --ratios 4 6 8 12 --trials 8), all 16 at M/N = 8 and 12 and
# M/N = 6 t = 2 were certified at 50; the other 15 end at max_iters, at
# errors of 0.02-0.59.
_POLISH_FIRST = 50
# Gauss-Newton stops at ||(|Ax|^2 - b)|| <= _GN_RTOL ||b||, after
# _GN_MAX_STEPS steps, or when the residual fails to halve on two steps in a
# row (a stall). Each step solves the normal equations by at most
# _GN_CG_STEPS conjugate-gradient steps. On the trials above it took 6-10
# steps; stopping the CG earlier, at a residual of 1e-2 or of sqrt(||r|| /
# ||b||) times the start, took as many kernel calls in all. At M/N = 4 the
# normal equations are ill-conditioned, the residual falls only about 3.5-fold
# a step, and the step cap ends the attempt: 265 kernel calls, against about
# 4,000 for the 2000 iterations that follow. On noisy data (uniform:1e-4 and
# 1e-2, M/N = 12) it stalls after 89-111.
_GN_RTOL = 1e-14
_GN_MAX_STEPS = 12
_GN_CG_STEPS = 10
# Douglas-Rachford steps of the certificate search. Certified held-out trials
# took 8-128 (23-58 at M/N = 8, 8-13 at M/N = 12, 128 at M/N = 6). A search
# that finds nothing runs all of them, 600 kernel calls; with Gauss-Newton's
# 265 that made the four noiseless trials at n = 128, M/N = 6 where
# Gauss-Newton reaches x* but the relaxation is not tight (RngStream(7,
# 600 + t), t = 0, 1, 4, 6; 2000 iterations) take 272-382 ms a solve against
# 226-325 ms without the stage (best of 5; one BLAS thread, 2-vCPU Xeon),
# 3-31% more.
_CERT_STEPS = 300
# A certificate mu must leave ||A^H(mu o A xhat) - a0|| <= _CERT_RTOL ||a0||,
# checked with a fresh adjoint; 24 certified gauss-sweep trials read 5e-16 to
# 9e-16.
_CERT_RTOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for the primal-dual splitting."""

    max_iters: int = 2000
    tol_rel_change: float = 1e-9
    tol_feas: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not all(0 < tol < math.inf for tol in (self.tol_rel_change, self.tol_feas)):
            raise ValueError("tolerances must be finite and > 0")


@dataclass(frozen=True)
class Solution:
    """Recovered estimate with residual diagnostics.

    objective is <a0, xhat> (real inner product); feas_residual is the largest
    constraint violation max_i (|a_i^H xhat|^2 - b_i)_+.

    stop_reason says why the solve stopped:
    - "optimal": the primal-dual stop test passed (see solve_phasemax);
    - "certified": the crossover (see _polish) found a point with a KKT
      certificate: mu >= 0 with A^H(mu o A xhat) = a0 to _CERT_RTOL. That
      proves xhat maximizes <a0, x> over the slabs through it,
      |a_i^H x|^2 <= |a_i^H xhat|^2, which Gauss-Newton put within
      _GN_RTOL ||b|| of b;
    - "max_iters": neither happened within cfg.max_iters.
    converged is True for the first two.

    xhat is feasible only to feas_residual (at most tol_feas when
    converged), i.e. exactly feasible for the widened slabs
    |a_i^H x|^2 <= b_i + feas_residual; that holds for a certified xhat too.
    It is not projected onto the feasible set: radial scaling onto the slabs
    collapses to x = 0 whenever some b_i = 0 (gaussian-noise clipping) and
    costs accuracy when min b_i is tiny, so exact feasibility is not promised
    in floating point.
    """

    xhat: np.ndarray
    iters_used: int
    objective: float
    feas_residual: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_iters"


def _shrink_dual(y: np.ndarray, sigma_radii: np.ndarray, floor: np.ndarray,
                 buf: np.ndarray) -> None:
    """Overwrite y with y - sigma * P(y / sigma), P projecting entry i onto
    the disk |w| <= radii_i, given sigma_radii = sigma * radii and
    floor = max(sigma_radii, tiny), which a solve forms once.

    By the Moreau identity this is a per-modulus soft threshold,
    y_i <- y_i * (1 - sigma r_i / max(|y_i|, sigma r_i, tiny)); the tiny floor
    keeps r_i = 0, y_i = 0 from giving 0/0. buf is float scratch of y's length.
    """
    np.abs(y, out=buf)
    np.maximum(buf, floor, out=buf)
    np.divide(sigma_radii, buf, out=buf)
    np.subtract(1.0, buf, out=buf)
    y *= buf


def _flush_dual(y: np.ndarray, y_floor: float, buf: np.ndarray, small: np.ndarray) -> None:
    """Set the entries of y with modulus below y_floor to 0; buf and small are
    float and bool scratch of y's length."""
    np.abs(y, out=buf)
    np.less(buf, y_floor, out=small)
    y[small] = 0.0


def feasibility_residual(ens: MeasurementEnsemble, obs: Observations, x) -> float:
    """Largest slab violation max_i (|a_i^H x|^2 - b_i)_+ ; zero when x is feasible."""
    return _max_violation(ens.forward(as_signal(x, "x", ens.n)), obs.b_for(ens))


def _max_violation(ax: np.ndarray, b: np.ndarray, scale: float = 1.0, out=None) -> float:
    """max_i (|ax_i / scale|^2 - b_i)_+ with ax left unchanged; out, if given,
    is float scratch of ax's length."""
    viol = np.abs(ax, out=out)
    if scale != 1.0:
        viol /= scale
    np.square(viol, out=viol)
    viol -= b
    return float(max(np.max(viol, initial=0.0), 0.0))


def _can_polish(ens: MeasurementEnsemble) -> bool:
    """Whether ens forms the lifted Gram matrix (its lifted_gram is not the
    base class's) and the matrix with its eigenvectors, 2 (2n)^2 floats, fits
    in the operator's own bytes: 1.0 MB against 2.1 MB of rows at n = 128,
    M/N = 8 (dense ensembles with M/N >= 4 pass). CDP operators do not form
    it."""
    forms_gram = ens.lifted_gram.__func__ is not MeasurementEnsemble.lifted_gram
    return forms_gram and 64 * ens.n * ens.n <= ens.nbytes


def _normal_solve(ens: MeasurementEnsemble, z: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """At most _GN_CG_STEPS conjugate-gradient steps from 0 on C C^T h = rhs
    (C as in lifted_gram, z = A x), in the real inner product Re <u, v> on
    C^n: C C^T h = A^H(z o Re(conj(z) o A h)), one forward and one adjoint.
    Stops early at a zero residual or a curvature <= 0."""
    h = np.zeros_like(rhs)
    res, direction = rhs.copy(), rhs.copy()
    rr = np.vdot(res, res).real
    for _ in range(_GN_CG_STEPS):
        q = ens.adjoint(z * (np.conj(z) * ens.forward(direction)).real)
        curvature = np.vdot(direction, q).real
        if not (rr > 0 and curvature > 0):
            break
        alpha = rr / curvature
        h += alpha * direction
        res -= alpha * q
        rr, rr_old = np.vdot(res, res).real, rr
        direction *= rr / rr_old
        direction += res
    return h


def _gauss_newton(ens: MeasurementEnsemble, b: np.ndarray, x: np.ndarray):
    """Gauss-Newton on |Ax|^2 = b from x, matrix-free: each step solves
    C C^T h = -C r / 2 for r = |Ax|^2 - b by _normal_solve. Returns the point
    once ||r|| <= _GN_RTOL ||b||, or None on a stall or after _GN_MAX_STEPS
    steps. x itself is not written."""
    target = _GN_RTOL * np.linalg.norm(b)
    z = ens.forward(x)
    r = np.abs(z) ** 2 - b
    res = np.linalg.norm(r)
    stalls = 0
    for _ in range(_GN_MAX_STEPS):
        if res <= target:
            return x
        x = x + _normal_solve(ens, z, -0.5 * ens.adjoint(z * r))
        z = ens.forward(x)
        r = np.abs(z) ** 2 - b
        res, res_old = np.linalg.norm(r), res
        stalls = stalls + 1 if not res <= 0.5 * res_old else 0
        if stalls == 2:
            return None
    return x if res <= target else None


def _certificate(ens: MeasurementEnsemble, z: np.ndarray, a0: np.ndarray, gram: np.ndarray):
    """Search for mu >= 0 with C mu = A^H(z o mu) = a0 (z = A x, C and its
    Gram matrix G = C C^T as in lifted_gram) by Douglas-Rachford between the
    affine set {C mu = a0} and the orthant. Returns (mu, steps), mu None when
    _CERT_STEPS steps find none.

    The projection onto the affine set is P(u) = u - C^T G^+ (C u - a0), one
    adjoint and one forward, with the pseudo-inverse G^+ from one eigh: G is
    singular at least along the phase direction i x, as C^T (i x) =
    Re(i |z|^2) = 0, and has rank n only for real data. Eigenvalues up to
    2n eps times the largest count as 0 (numpy's matrix_rank rule). P is
    affine, so P(2 max(u, 0) - u) = 2 P(max(u, 0)) - P(u), and each step
    needs only P(max(u, 0)); the search stops once that point is >= 0, and
    keeps it if a fresh adjoint confirms C mu = a0 to _CERT_RTOL.
    """
    values, vectors = np.linalg.eigh(gram)
    keep = values > values[-1] * 2 * ens.n * np.finfo(np.float64).eps
    values, vectors = values[keep], vectors[:, keep]

    def project(u):
        w = vectors @ ((vectors.T @ (ens.adjoint(z * u) - a0).view(np.float64)) / values)
        return u - (np.conj(z) * ens.forward(w.view(np.complex128))).real

    u = p_u = project(np.zeros(ens.m))
    for step in range(1, _CERT_STEPS + 1):
        mu = np.maximum(u, 0.0)
        p_mu = project(mu)
        if np.min(p_mu) >= 0.0:
            kkt = np.linalg.norm(ens.adjoint(z * p_mu) - a0)
            return (p_mu if kkt <= _CERT_RTOL * np.linalg.norm(a0) else None), step
        u += 2.0 * p_mu - p_u - mu
        p_u = p_mu
    return None, _CERT_STEPS


def _polish(ens: MeasurementEnsemble, b: np.ndarray, a0: np.ndarray, tol_feas: float,
            x: np.ndarray):
    """Crossover from the primal-dual iterate x to a certified vertex, as LP
    and QP solvers end a first-order solve (OSQP's solution polishing,
    Stellato et al., arXiv:1711.08013). With noiseless data every slab is
    tight at x*, so the guess is the whole active set: from x, a
    matrix-free Gauss-Newton (Gao & Xu, IEEE Trans. Signal Process. 2017)
    solves |Ax|^2 = b; the point is phase-aligned to a0 and checked for
    feasibility to tol_feas, and kept only with a KKT certificate: mu >= 0
    with A^H(mu o A x) = a0, which by convexity makes x the maximizer of
    <a0, x> over the slabs through it (see _certificate). Returns (xhat,
    feasibility residual) when certified, else None.

    The solver calls it once, at iteration _POLISH_FIRST; it reads x and
    writes no loop state, so a solve it does not end is the solve without
    it.
    """
    solved = _gauss_newton(ens, b, x)
    if solved is None:
        return None
    overlap = np.vdot(solved, a0)
    if overlap == 0:  # x = 0, e.g. for b = 0, has no phase to align
        return None
    x = solved * (overlap / abs(overlap))
    z = ens.forward(x)
    feas = _max_violation(z, b)  # feasibility_residual of x
    if feas > tol_feas or _certificate(ens, z, a0, ens.lifted_gram(z))[0] is None:
        return None
    return x, feas


def solve_phasemax(
    ens: MeasurementEnsemble, obs: Observations, a0, cfg: SolverConfig = SolverConfig()
) -> Solution:
    """Solve max <a0, x> s.t. |a_i^H x|^2 <= b_i by primal-dual splitting.

    The slabs are disk constraints |(Ax)_i| <= r_i = sqrt(b_i). With the
    balance c = ||r|| / (||A|| ||a0||), primal step tau = c * _STEP_SCALE / ||A||,
    dual step sigma = _STEP_SCALE / (c * ||A||) and rho = _RELAXATION, one
    step z = (x, y) -> T(z) is

        x_half <- x + tau * a0 - tau * A^H y
        v      <- y + sigma * A (2 x_half - x)
        v_i    <- v_i * (1 - sigma r_i / max(|v_i|, sigma r_i, tiny))
        T(z)   =  (x, y) + rho * ((x_half, v) - (x, y))

    The third line is the shrink v - sigma * P(v / sigma), P projecting entry
    i onto |w| <= r_i; with rho = 1 the first three lines are the
    Chambolle-Pock step. tau * sigma * ||A||^2 = _STEP_SCALE^2 < 1 keeps it
    stable for any c. For noiseless data c bounds ||x*|| / ||a0|| from below
    (||A x*|| = ||r||), so the primal step follows the scale of the signal
    rather than that of a0.

    The solve starts at y = 0 and x0 = c a0, the anchor rescaled to the norm
    ||r|| / ||A|| that the data imply; that is ||x*|| when A^H A = ||A||^2 I,
    as for unimodular CDP masks. When b is all zero, c falls back to 1 and
    x0 to 0. It then iterates z <- T(z), writing T(z) over z.

    It stops when the relative change ||T(z)_x - x|| / ||T(z)_x|| is at most
    tol_rel_change and feasibility_residual of T(z)_x at most tol_feas,
    returning T(z)_x (stop_reason "optimal"), or at max_iters, returning the
    last T(z)_x ("max_iters"). A tracked sigma A x screens the residual
    without an operator call (see _iterate), and feasibility_residual
    confirms every stop, so the stop decisions are those of an exact check
    made whenever the relative change passes.

    When the operator can hold the lifted Gram matrix (_can_polish: dense
    ensembles with M/N >= 4, not CDP), the crossover _polish runs once,
    from T(z)_x after _POLISH_FIRST steps: Gauss-Newton on |Ax|^2 = b, then a
    search for a KKT certificate. A certified point ends the solve
    ("certified"; see Solution for what that proves). Otherwise the loop
    goes on from the state it left, so the Solution is the one the loop
    alone returns.

    Zero-radius disks (b_i = 0, e.g. after gaussian-noise clipping) stay
    constraints forcing (Ax)_i toward 0. xhat is feasible only to
    Solution.feas_residual (see Solution).
    """
    a0 = as_signal(a0, "a0", ens.n)
    a0_norm = np.linalg.norm(a0)
    if a0_norm == 0:
        raise ValueError("a0 must be nonzero")
    b = obs.b_for(ens)
    radii = np.sqrt(b)  # Observations guarantees b >= 0
    op_norm = operator_norm(ens, _NORM_EST_ITERS, RngStream(_NORM_EST_SEED))
    if op_norm == 0:
        raise ValueError("measurement operator is identically zero")
    balance = start = np.linalg.norm(radii) / (op_norm * a0_norm)
    if not 0 < balance < np.inf:
        balance, start = 1.0, 0.0
    tau = balance * _STEP_SCALE / op_norm
    sigma = _STEP_SCALE / (balance * op_norm)
    sigma_radii = sigma * radii
    x, iters_used, feas, stop_reason = _iterate(
        ens, obs, b, start * a0,
        (tau * a0, tau, sigma, sigma_radii, np.maximum(sigma_radii, _TINY)),
        _DUAL_FLOOR * a0_norm / op_norm, cfg,
        functools.partial(_polish, ens, b, a0, cfg.tol_feas) if _can_polish(ens) else None)
    if feas is None:
        # Computed after _iterate has returned its m-sized buffers.
        feas = feasibility_residual(ens, obs, x)
    return Solution(
        xhat=x,
        iters_used=iters_used,
        objective=real_inner(a0, x),
        feas_residual=feas,
        stop_reason=stop_reason,
    )


def _iterate(ens, obs, b, x, steps, y_floor: float, cfg, polish):
    """Iterate T from z = (x, 0), writing T(z) over z; x is the caller's
    array and is written in place. Returns (x, iters_used, feasibility
    residual of x, stop reason), the residual None when the solve ran to
    max_iters. Every _FLUSH_EVERY steps, dual entries below y_floor are set
    to 0. When the count of steps reaches _POLISH_FIRST, polish (if given)
    reads T(z)_x and may end the solve.

    The stop test's screen tracks sax = sigma A x: A x_half is the mean of
    A (2 x_half - x), which the step computes, and A x, so the relaxed x has
    sigma A x = sax + (rho / 2) (sigma A (2 x_half - x) - sax). The first
    exact check seeds it, so a solve whose relative change never passes
    keeps no sax.
    """
    tau_a0, tau, sigma, sigma_radii, radii_floor = steps
    m = ens.m
    y, sax = np.zeros(m, dtype=np.complex128), None
    xbar = np.empty(ens.n, dtype=np.complex128)
    buf = np.empty(m)
    small = np.empty(m, dtype=bool)
    rho = _RELAXATION
    screen_tol = 2.0 * cfg.tol_feas + _SCREEN_RTOL * np.max(b)
    for k in range(cfg.max_iters):
        # x_half = x + tau a0 - tau A^H y and xbar = sigma (2 x_half - x).
        x_half = ens.adjoint(y)
        x_half *= tau
        np.subtract(tau_a0, x_half, out=x_half)
        x_half += x
        np.multiply(x_half, 2.0, out=xbar)
        xbar -= x
        xbar *= sigma
        f = ens.forward(xbar)
        if sax is not None:
            sax *= 2.0 / rho - 1.0
            sax += f
            sax *= 0.5 * rho
        f += y
        _shrink_dual(f, sigma_radii, radii_floor, buf)
        # The step g = rho ((x_half, v) - (x, y)), formed in x_half and f.
        gx, gy = x_half, f
        gy -= y
        gy *= rho
        y += gy
        gx -= x
        gx *= rho
        x += gx
        # Not kept across adjoint: two live m-sized buffers fault pages back
        # in on every call (see MeasurementEnsemble).
        del f, gy
        step = math.sqrt(np.vdot(gx, gx).real)
        norm_new = math.sqrt(np.vdot(x, x).real)
        rel_change = step / norm_new if norm_new > 0 else step
        if rel_change <= cfg.tol_rel_change:
            if sax is None:
                sax = ens.forward(x)
                feas = _max_violation(sax, b)
                sax *= sigma
            elif _max_violation(sax, b, sigma, buf) <= screen_tol:
                feas = feasibility_residual(ens, obs, x)
            else:
                feas = math.inf
            if feas <= cfg.tol_feas:
                return x, k + 1, feas, "optimal"
        if polish is not None and k + 1 == _POLISH_FIRST:
            polished = polish(x)
            if polished is not None:
                xhat, feas = polished
                return xhat, k + 1, feas, "certified"
        if k % _FLUSH_EVERY == 0:
            _flush_dual(y, y_floor, buf, small)
    return x, cfg.max_iters, None, "max_iters"
