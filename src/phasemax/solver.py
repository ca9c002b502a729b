"""First-order solver for the anchored relaxation: maximize <a0, x> subject to
|a_i^H x|^2 <= b_i, by over-relaxed primal-dual proximal splitting, ended
by a certified Gauss-Newton crossover: through the lifted Gram matrix at
iteration 50 on dense ensembles where it fits in the operator's own memory,
and matrix-free on ensembles that form none, such as coded diffraction
patterns, at iteration 20."""

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
# sigma = _STEP_SCALE / (c ||A||), so tau * sigma * ||A||^2 = _STEP_SCALE^2 < 1
# for the exact norm, which CDP takes. On dense ensembles ||A|| is the
# _NORM_EST_ITERS-step power estimate, 0.07-2.0% low at n = 128, so the
# realised tau * sigma * ||A||^2 is 0.90-0.94 there: still below 1.
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
# Crossover (see _polish): the one iteration at which a solve runs it
# (_checkpoint). Ensembles that form the Gram matrix (dense) run it at
# _POLISH_FIRST. On the 32 held-out trials at M/N = 4-12
# (tools/step_scan.py --polish --ratios 4 6 8 12 --trials 8) 50 certifies
# all 24 at M/N = 6, 8 and 12, and the 8 at M/N = 4 run to max_iters; 40
# certified the 24 in as much time (916 and 800 ms against 847 and 927 ms,
# two rounds; one BLAS thread, 2-vCPU Xeon), and 30 left one uncertified.
#
# Ensembles that form none (CDP) run it at _POLISH_EARLY. Gauss-Newton
# reaches x* on the CDP demo (64 x 64 gradient image, L = 20) from
# iteration 1 on, but the search misses there: the loop runs only to
# improve the dual that the search starts from. Kernel calls of the demo by
# the checkpoint's iteration, medians over 8 of the seeds listed at
# _CERT_CALLS, all certified there:
#
#     checkpoint   loop   Gauss-Newton   search
#         50        100         67          46
#         20         40         67          50
#         15         30         89          64
#         10         20         89          86
_POLISH_FIRST = 50
_POLISH_EARLY = 20
# Gauss-Newton stops at ||(|Ax|^2 - b)|| <= _GN_RTOL ||b||, after
# _GN_MAX_STEPS steps, or when the residual fails to halve on two steps in a
# row (a stall). Each step solves the normal equations by at most
# _GN_CG_STEPS conjugate-gradient steps. On the 180 gauss-sweep trials at
# _CERT_STEPS it took 5-8 steps (111-177 kernel calls); stopping the CG
# earlier, at a residual of 1e-2 or of sqrt(||r|| / ||b||) times the start,
# took as many kernel calls in all. At M/N = 4 the normal equations are
# ill-conditioned, the residual falls only about 3.5-fold a step, and the
# step cap ends the attempt: 265 kernel calls, against about 4,000 for the
# 2000 iterations that follow. On noisy data (uniform:1e-4 and 1e-2,
# M/N = 12) it stalls after 89-111.
_GN_RTOL = 1e-14
_GN_MAX_STEPS = 12
_GN_CG_STEPS = 10
# Douglas-Rachford steps of the certificate search through the Gram matrix.
# Certified held-out trials take 4-51 (15-51 at M/N = 6, 6-10 at M/N = 8,
# 4-5 at M/N = 12), and 180 gauss-sweep trials 3-13, 1,156 in all (call
# seeds s * 10^6 + k, s = 1..3, k < 30, all certified at 50). A search that
# finds nothing runs all of them, 600 kernel calls.
_CERT_STEPS = 300
# Kernel calls of the matrix-free search (CDP), and the tolerances of its
# projections: each is solved to _CERT_CG_STEP_RTOL ||a0|| only, and the one
# that is >= 0 is carried on to _CERT_CG_RTOL ||a0||, ten times below
# _CERT_RTOL, before it is checked. On 72 CDP demo instances (64 x 64
# gradient, L = 20; seeds 20260809, 5,000,000, 3,000,001, 1,000,000,
# 6,000,002, 41,000,000, 41,000,001 and 7-11, s * 10^6 + k for s = 81, 82,
# 83, k < 10, and 62 * 10^6 + k, k < 30; tools/step_scan.py --polish --cdp)
# all are certified at 20, the search taking 46-176 calls (mean 64) besides
# the forward of A xhat; at L = 8 (seeds 1, 2, 20260809) it takes 154-163.
# On the first 12 seeds, step tolerances of 1e-4, 1e-6, 1e-8 and 1e-11 took
# means of 54, 55, 58 and 63 calls and at most 78, 76, 91 and 112. A search
# that finds nothing runs to the cap, on top of Gauss-Newton's 67-265 calls
# (the demo at L = 6 misses in 398-399). On 224 poorly anchored instances,
# RngStream(450, seed) at 150 iterations (n = 16, L = 6 and 8, anchor
# spread 0.5, 0.75 and 1.0, seed < 32; n = 64, L = 6 and 8, spread 0.75,
# seed < 16), caps of 200, 300, 400 and 600 certified 72, 94, 111 and 137.
_CERT_CALLS = 400
_CERT_CG_STEP_RTOL = 1e-6
_CERT_CG_RTOL = 1e-11
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
    - "certified": the crossover (see _polish; dense ensembles whose Gram
      matrix fits, and ensembles that form none, such as CDP) found a point
      with a KKT certificate: mu >= 0 with A^H(mu o A xhat) = a0 to
      _CERT_RTOL. That proves xhat maximizes <a0, x> over the slabs through
      it, |a_i^H x|^2 <= |a_i^H xhat|^2, which Gauss-Newton put within
      _GN_RTOL ||b|| of b. iters_used is then the checkpoint:
      _POLISH_FIRST on dense ensembles, _POLISH_EARLY on the others;
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


def _forms_gram(ens: MeasurementEnsemble) -> bool:
    """Whether ens forms the lifted Gram matrix: its lifted_gram is not the
    base class's."""
    return ens.lifted_gram.__func__ is not MeasurementEnsemble.lifted_gram


def _checkpoint(ens: MeasurementEnsemble):
    """The iteration at which solves on ens run the crossover (_polish), or
    None. An ensemble that forms the lifted Gram matrix runs it at
    _POLISH_FIRST when the matrix with its eigenvectors, 2 (2n)^2 floats,
    fits in the operator's own bytes: 1.0 MB against 2.1 MB of rows at
    n = 128, M/N = 8 (dense ensembles with M/N >= 4 pass), and never when it
    does not. Every other ensemble (CDP, or any subclass that gives only
    forward and adjoint) runs it at _POLISH_EARLY, through those two kernels
    alone: Gauss-Newton is matrix-free anyway, and the certificate search
    projects by conjugate gradients instead (see _certificate)."""
    if not _forms_gram(ens):
        return _POLISH_EARLY
    return _POLISH_FIRST if 64 * ens.n * ens.n <= ens.nbytes else None


def _lifted(ens: MeasurementEnsemble, z: np.ndarray, u: np.ndarray, scratch: np.ndarray):
    """C u = A^H(z o u) for a real m-vector u (C as in lifted_gram, z = A x);
    scratch is a complex m-vector that it overwrites."""
    np.multiply(z, u, out=scratch)
    return ens.adjoint(scratch)


def _lifted_t(ens: MeasurementEnsemble, z: np.ndarray, w: np.ndarray, scratch: np.ndarray):
    """C^T w = Re(conj(z) o A w), returned as the real part of scratch, a
    complex m-vector that it overwrites with conj(A w) o z (whose real part
    is the same sum of the same products)."""
    ens.forward(w, out=scratch)
    np.conjugate(scratch, out=scratch)
    scratch *= z
    return scratch.real


def _normal_solve(ens: MeasurementEnsemble, z: np.ndarray, res: np.ndarray,
                  scratch: np.ndarray, tol: float = 0.0, max_steps: int = _GN_CG_STEPS):
    """At most max_steps conjugate-gradient steps from 0 on C C^T h = res (C
    as in lifted_gram, z = A x), in the real inner product Re <u, v> on C^n:
    C C^T h = A^H(z o Re(conj(z) o A h)), one forward and one adjoint a step
    through scratch, a complex m-vector. res is overwritten by the residual.
    Stops early once ||res|| <= tol, or at a curvature <= 0. Returns (h,
    steps taken, whether ||res|| <= tol). A warm start from h0 is the solve
    for h - h0 with res = rhs - C C^T h0."""
    h = np.zeros_like(res)
    direction = res.copy()
    rr = np.vdot(res, res).real
    for step in range(max_steps):
        if rr <= tol * tol:
            return h, step, True
        _lifted_t(ens, z, direction, scratch)
        scratch.imag = 0.0
        scratch *= z
        q = ens.adjoint(scratch)
        curvature = np.vdot(direction, q).real
        if not curvature > 0:
            return h, step + 1, False
        alpha = rr / curvature
        h += alpha * direction
        res -= alpha * q
        rr, rr_old = np.vdot(res, res).real, rr
        direction *= rr / rr_old
        direction += res
    return h, max_steps, rr <= tol * tol


def _gauss_newton(ens: MeasurementEnsemble, b: np.ndarray, x: np.ndarray, z: np.ndarray,
                  scratch: np.ndarray, r: np.ndarray):
    """Gauss-Newton on |Ax|^2 = b from x, matrix-free: each step solves
    C C^T h = -C r / 2 for r = |Ax|^2 - b by _normal_solve. Returns the point
    once ||r|| <= _GN_RTOL ||b||, or None on a stall or after _GN_MAX_STEPS
    steps. x itself is not written; z, scratch (complex) and r (real) are
    m-vectors that it overwrites, z ending as A of the last point."""
    target = _GN_RTOL * np.linalg.norm(b)

    def residual():
        ens.forward(x, out=z)
        np.abs(z, out=r)
        np.square(r, out=r)
        np.subtract(r, b, out=r)
        return np.linalg.norm(r)

    res = residual()
    stalls = 0
    for _ in range(_GN_MAX_STEPS):
        if res <= target:
            return x
        x = x + _normal_solve(ens, z, -0.5 * _lifted(ens, z, r, scratch), scratch)[0]
        res, res_old = residual(), res
        stalls = stalls + 1 if not res <= 0.5 * res_old else 0
        if stalls == 2:
            return None
    return x if res <= target else None


def _certificate(ens: MeasurementEnsemble, z: np.ndarray, a0: np.ndarray, mu0: np.ndarray,
                 scratch: np.ndarray, buf: np.ndarray, gram=None):
    """Search for mu >= 0 with C mu = A^H(z o mu) = a0 (z = A x, C and its
    Gram matrix G = C C^T as in lifted_gram) by Douglas-Rachford between the
    affine set {C mu = a0} and the orthant, from the point mu0 >= 0. mu0,
    scratch (complex) and buf (real) are m-vectors that it overwrites.
    Returns (mu, steps), mu None when the search finds none.

    The projection onto the affine set is P(u) = u - C^T h for G h = C u - a0.
    With gram given, h = G^+ (C u - a0), one adjoint and one forward, the
    pseudo-inverse from one eigh: G is singular at least along the phase
    direction i x, as C^T (i x) = Re(i |z|^2) = 0, and has rank n only for
    real data. Eigenvalues up to 2n eps times the largest count as 0
    (numpy's matrix_rank rule); the search stops after _CERT_STEPS steps.
    Without gram, h comes from _normal_solve, warm started from the
    previous projection's h, to _CERT_CG_STEP_RTOL ||a0||: far enough to
    steer the search, not to certify. The first projection that is >= 0 is
    carried on to _CERT_CG_RTOL ||a0|| from its residual, and the search
    goes on if that makes it < 0. It stops at the first solve that cannot
    finish within _CERT_CALLS kernel calls in all, so a search that finds
    nothing makes at most that many.

    From u0 = mu0 >= 0 the first step is u1 = P(mu0). P is affine, so
    P(2 max(u, 0) - u) = 2 P(max(u, 0)) - P(u), and each later step needs
    only P(max(u, 0)), with u <- min(u, 0) + 2 P(max(u, 0)) - P(u). The
    search stops once a (refined) projection is >= 0, and keeps it if a
    fresh adjoint confirms C mu = a0 to _CERT_RTOL.
    """
    a0_norm = np.linalg.norm(a0)
    if gram is not None:
        values, vectors = np.linalg.eigh(gram)
        keep = values > values[-1] * 2 * ens.n * np.finfo(np.float64).eps
        values, vectors = values[keep], vectors[:, keep]

        def project(u):
            res = _lifted(ens, z, u, scratch) - a0
            w = vectors @ ((vectors.T @ res.view(np.float64)) / values)
            u -= _lifted_t(ens, z, w.view(np.complex128), scratch)
            return u

        def refine(u):
            return u
    else:
        calls, h, res = 0, None, None

        def project(u):
            # Warm started from h: u - C^T h is projected by a solve from 0.
            nonlocal calls, res
            calls += 2 if h is None else 3
            if calls > _CERT_CALLS:
                return None
            if h is not None:
                u -= _lifted_t(ens, z, h, scratch)
            res = _lifted(ens, z, u, scratch)
            res -= a0
            return correct(u, _CERT_CG_STEP_RTOL)

        def refine(u):
            # Carries the last projection's solve on, from its residual.
            nonlocal calls
            calls += 1
            return correct(u, _CERT_CG_RTOL) if calls <= _CERT_CALLS else None

        def correct(u, rtol):
            # u - C^T g for G g = res solved to rtol ||a0||, with the calls
            # left after the ones its caller made or counted.
            nonlocal calls, h
            step, steps, solved = _normal_solve(ens, z, res, scratch, rtol * a0_norm,
                                                (_CERT_CALLS - calls) // 2)
            calls += 2 * steps
            if not solved:
                return None
            h = step if h is None else h + step
            u -= _lifted_t(ens, z, step, scratch)
            return u

    # project writes P(u) over u and returns it, or None when it fails; so
    # does refine, for a projection that is >= 0. u lives in buf, and each
    # step's max(u, 0) in the array of the last but one projection.
    p_u, spare = project(mu0), None
    steps = 1
    if p_u is not None:
        u = buf
        np.copyto(u, p_u)
    while p_u is not None and steps < _CERT_STEPS:
        if np.min(p_u) >= 0.0:
            p_u = refine(p_u)
            if p_u is None or np.min(p_u) >= 0.0:
                break
        p_mu = project(np.maximum(u, 0.0, out=spare))
        if p_mu is not None:
            np.minimum(u, 0.0, out=u)
            u -= p_u
            u += p_mu
            u += p_mu
        p_u, spare = p_mu, p_u
        steps += 1
    if p_u is None or np.min(p_u) < 0.0:
        return None, steps
    kkt = np.linalg.norm(_lifted(ens, z, p_u, scratch) - a0)
    return (p_u if kkt <= _CERT_RTOL * a0_norm else None), steps


def _polish(ens: MeasurementEnsemble, b: np.ndarray, a0: np.ndarray, tol_feas: float,
            x: np.ndarray, y: np.ndarray, buf: np.ndarray):
    """Crossover from the primal-dual iterate (x, y) to a certified vertex, as
    LP and QP solvers end a first-order solve (OSQP's solution polishing,
    Stellato et al., arXiv:1711.08013). With noiseless data every slab is
    tight at x*, so the guess is the whole active set: from x, a
    matrix-free Gauss-Newton (Gao & Xu, IEEE Trans. Signal Process. 2017)
    solves |Ax|^2 = b; the point is phase-aligned to a0 and checked for
    feasibility to tol_feas, and kept only with a KKT certificate: mu >= 0
    with A^H(mu o A x) = a0, which by convexity makes x the maximizer of
    <a0, x> over the slabs through it (see _certificate). At the KKT point
    y_i = mu_i z_i for z = A x, so the search starts from the loop's dual,
    mu0 = max(Re(conj(z) o y), 0) / |z|^2. Returns (xhat, feasibility
    residual) when the search certifies xhat, else None.

    The solver calls it once, at the iteration _checkpoint(ens). It reads x
    and y and writes only buf, the loop's real m-vector of scratch, so a
    solve it does not end is the solve without it. Its own m-sized arrays
    are A x, one complex m-vector that every forward writes and every
    adjoint reads, and two real ones for the search; each adjoint also
    allocates its kernel's own temporary, as in the loop.
    """
    z, scratch = np.empty(ens.m, dtype=np.complex128), np.empty(ens.m, dtype=np.complex128)
    solved = _gauss_newton(ens, b, x, z, scratch, buf)
    if solved is None:
        return None
    overlap = np.vdot(solved, a0)
    if overlap == 0:  # x = 0, e.g. for b = 0, has no phase to align
        return None
    x = solved * (overlap / abs(overlap))
    ens.forward(x, out=z)
    feas = _max_violation(z, b, out=buf)  # feasibility_residual of x
    if feas > tol_feas:
        return None
    np.conjugate(z, out=scratch)
    scratch *= y
    mu0 = np.maximum(scratch.real, 0.0)
    np.abs(z, out=buf)
    np.square(buf, out=buf)
    np.maximum(buf, _TINY, out=buf)
    mu0 /= buf
    gram = ens.lifted_gram(z) if _forms_gram(ens) else None
    if _certificate(ens, z, a0, mu0, scratch, buf, gram)[0] is None:
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
    tol_rel_change and the feasibility residual of T(z)_x at most tol_feas,
    returning T(z)_x (stop_reason "optimal"), or at max_iters, returning the
    last T(z)_x ("max_iters"). A tracked sigma A x screens the residual
    without an operator call (see _iterate), and a fresh forward confirms
    every stop, so the stop decisions are those of an exact check made
    whenever the relative change passes.

    At the checkpoint _checkpoint(ens) (none on dense ensembles with
    M/N < 4), the crossover _polish runs once from T(z): Gauss-Newton on
    |Ax|^2 = b from T(z)_x, then a search for a KKT certificate started from
    T(z)_y. Dense ensembles run it after _POLISH_FIRST steps, searching
    through the Gram matrix; the others after _POLISH_EARLY steps,
    matrix-free. A certified point ends the solve ("certified"; see
    Solution for what that proves).
    Otherwise the loop goes on from the state it left, so the Solution is
    the one the loop alone returns.

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
    sigma_radii = radii  # radii itself is not needed past here
    sigma_radii *= sigma
    x, iters_used, feas, stop_reason = _iterate(
        ens, b, start * a0,
        (tau * a0, tau, sigma, sigma_radii, np.maximum(sigma_radii, _TINY)),
        _DUAL_FLOOR * a0_norm / op_norm, cfg, functools.partial(_polish, ens, b, a0, cfg.tol_feas))
    if feas is None:
        # Computed after _iterate has returned its m-sized buffers.
        feas = _max_violation(ens.forward(x), b)
    return Solution(
        xhat=x,
        iters_used=iters_used,
        objective=real_inner(a0, x),
        feas_residual=feas,
        stop_reason=stop_reason,
    )


def _iterate(ens, b, x, steps, y_floor: float, cfg, polish):
    """Iterate T from z = (x, 0), writing T(z) over z; x is the caller's
    array and is written in place. Returns (x, iters_used, feasibility
    residual of x, stop reason), the residual None when the solve ran to
    max_iters. Every _FLUSH_EVERY steps, dual entries below y_floor are set
    to 0. When the count of steps reaches _checkpoint(ens), polish reads
    T(z) = (x, y), may use buf as scratch, and may end the solve.

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
    checkpoint = _checkpoint(ens)
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
                feas = _max_violation(ens.forward(x), b)
            else:
                feas = math.inf
            if feas <= cfg.tol_feas:
                return x, k + 1, feas, "optimal"
        if k + 1 == checkpoint:
            certified = polish(x, y, buf)
            if certified is not None:
                return certified[0], k + 1, certified[1], "certified"
        if k % _FLUSH_EVERY == 0:
            _flush_dual(y, y_floor, buf, small)
    return x, cfg.max_iters, None, "max_iters"
