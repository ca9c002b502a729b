"""First-order solver for the anchored relaxation: maximize <a0, x> subject to
|a_i^H x|^2 <= b_i, by primal-dual proximal splitting with balanced,
over-relaxed steps."""

from __future__ import annotations

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
# Fraction of the step-size stability bound: tau = w c _STEP_SCALE / ||A|| and
# sigma = _STEP_SCALE / (w c ||A||), so tau * sigma * ||A||^2 = _STEP_SCALE^2 < 1.
_STEP_SCALE = 0.95
# Primal weight: the balance c below is multiplied by this constant. The ratio
# tau / sigma sets the speed of the iteration (Applegate et al., PDLP,
# arXiv:2106.04756); tools/step_scan.py measures the iterations each multiple
# takes. Multiples above 1 halve the median iterations on noiseless trials,
# but some hard trials then end less accurate at max_iters, so it stays 1.
_PRIMAL_WEIGHT = 1.0
# Over-relaxation: each primal-dual step is stretched by this factor,
# (x, y) <- (x, y) + rho (T(x, y) - (x, y)) for the plain step T, which
# converges for 0 < rho < 2 when tau * sigma * ||A||^2 <= 1 (Condat, JOTA
# 2013; Chambolle & Pock, Math. Program. 2016). Unlike a larger primal
# weight it shortens the slow tail of hard trials too; tools/step_scan.py
# measures each value.
_RELAXATION = 1.7
# The tracked sigma * A x differs from a fresh forward by rounding only, far
# below the screen's slack: it passes residuals up to 2 tol_feas +
# _SCREEN_RTOL * max b, so it does not reject an iterate the exact check
# would accept.
_SCREEN_RTOL = 1e-12
_TINY = np.finfo(np.float64).tiny


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

    xhat is the final iterate as is: it is feasible only to feas_residual
    (at most tol_feas when converged), i.e. exactly feasible for the widened
    slabs |a_i^H x|^2 <= b_i + feas_residual. It is not projected onto the
    feasible set: radial scaling onto the slabs collapses to x = 0 whenever
    some b_i = 0 (gaussian-noise clipping) and costs accuracy when min b_i is
    tiny, so exact feasibility is not promised in floating point.
    """

    xhat: np.ndarray
    iters_used: int
    objective: float
    feas_residual: float
    converged: bool


def _shrink_dual(y: np.ndarray, sigma_radii: np.ndarray, buf: np.ndarray,
                 scale: float = 1.0) -> None:
    """Overwrite y with scale * (y - sigma * P(y / sigma)), P projecting entry
    i onto the disk |w| <= radii_i, given sigma_radii = sigma * radii.

    By the Moreau identity this is a per-modulus soft threshold,
    y_i <- y_i * (1 - sigma r_i / max(|y_i|, sigma r_i, tiny)); the tiny floor
    keeps r_i = 0, y_i = 0 from giving 0/0. buf is float scratch of y's length.
    """
    np.abs(y, out=buf)
    np.maximum(buf, sigma_radii, out=buf)
    np.maximum(buf, _TINY, out=buf)
    np.divide(sigma_radii, buf, out=buf)
    np.subtract(1.0, buf, out=buf)
    if scale != 1.0:
        buf *= scale
    y *= buf


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


def solve_phasemax(
    ens: MeasurementEnsemble, obs: Observations, a0, cfg: SolverConfig = SolverConfig()
) -> Solution:
    """Solve max <a0, x> s.t. |a_i^H x|^2 <= b_i by primal-dual splitting.

    The slab constraints are reformulated once as disk constraints
    |(Ax)_i| <= r_i = sqrt(b_i). With primal step tau = w * c * _STEP_SCALE / ||A||,
    dual step sigma = _STEP_SCALE / (w * c * ||A||) and relaxation
    rho = _RELAXATION the iteration from x = y = 0 is

        x_half <- x + tau * a0 - tau * A^H y
        v      <- y + sigma * A (2 x_half - x)
        v_i    <- v_i * (1 - sigma r_i / max(|v_i|, sigma r_i, tiny))
        (x, y) <- (x, y) + rho * ((x_half, v) - (x, y))

    The third line is the shrink v - sigma * P(v / sigma), P projecting entry
    i onto |w| <= r_i, done in place; with rho = 1 the first three lines are
    the Chambolle-Pock step. The balance c = ||r|| / (||A|| ||a0||)
    bounds ||x*|| / ||a0|| from below for noiseless data (||A x*|| = ||r||),
    so the primal step follows the scale of the signal rather than that of a0:
    a large x* is not under-stepped. The primal weight w = _PRIMAL_WEIGHT is a
    fixed multiple of c, now 1 (see its comment). The x iterates do not depend
    on the scale of a0 (a0 -> t a0 scales y by t); c is 1 for unit a0 and x*
    under unimodular CDP masks, and w * c falls back to 1 when b is all zero.
    tau * sigma * ||A||^2 = _STEP_SCALE^2 < 1 keeps the iteration stable for
    any c.

    Stops when the relative primal change drops below tol_rel_change and the
    feasibility residual below tol_feas, or at max_iters. The first time the
    relative change passes, the residual is computed exactly, and from then
    on A x is tracked without an operator call: A x_half is the mean of
    A (2 x_half - x), which the iteration computes anyway, and A x, so the
    relaxed x has A x + (rho / 2) (A (2 x_half - x) - A x). The tracked value
    only screens, with slack; each stop is confirmed with
    feasibility_residual, so the stop decisions are those of an exact check
    every time the relative change passes. Zero-radius disks
    (b_i = 0, e.g. after gaussian-noise clipping) are kept as constraints
    forcing (Ax)_i toward 0. The returned xhat is the last iterate, feasible
    only to Solution.feas_residual and not projected onto the slabs (see
    Solution for why).
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
    balance = _PRIMAL_WEIGHT * np.linalg.norm(radii) / (op_norm * a0_norm)
    if not 0 < balance < np.inf:
        balance = 1.0
    tau = balance * _STEP_SCALE / op_norm
    sigma = _STEP_SCALE / (balance * op_norm)
    sigma_radii = sigma * radii
    tau_a0 = tau * a0

    x = np.zeros(ens.n, dtype=np.complex128)
    y = np.zeros(ens.m, dtype=np.complex128)
    buf = np.empty(ens.m)
    rho = _RELAXATION

    iters_used = cfg.max_iters
    converged = False
    # sigma * A x, kept once the relative change has passed; None before that.
    sax = None
    screen_tol = 2.0 * cfg.tol_feas + _SCREEN_RTOL * np.max(b)
    for k in range(cfg.max_iters):
        x_half = x + tau_a0 - tau * ens.adjoint(y)
        f = ens.forward(sigma * (2.0 * x_half - x))
        if sax is not None:
            # A x_half = (A (2 x_half - x) + A x) / 2, so the relaxed x below
            # has sigma A x = sax + (rho / 2) (f - sax), formed in place.
            sax *= 2.0 / rho - 1.0
            sax += f
            sax *= 0.5 * rho
        f += y
        _shrink_dual(f, sigma_radii, buf, rho)
        y *= 1.0 - rho
        y += f
        # Not kept across adjoint: two live m-sized buffers fault pages back
        # in on every call (see MeasurementEnsemble).
        del f
        x_new = x + rho * (x_half - x)
        step = np.linalg.norm(x_new - x)
        norm_new = np.linalg.norm(x_new)
        rel_change = step / norm_new if norm_new > 0 else step
        x = x_new
        if rel_change > cfg.tol_rel_change:
            continue
        if sax is None:
            sax = ens.forward(x)
            feas = _max_violation(sax, b)
            sax *= sigma
        elif _max_violation(sax, b, sigma, buf) <= screen_tol:
            feas = feasibility_residual(ens, obs, x)
        else:
            continue
        if feas <= cfg.tol_feas:
            iters_used = k + 1
            converged = True
            break
    if not converged:
        feas = feasibility_residual(ens, obs, x)
    return Solution(
        xhat=x,
        iters_used=iters_used,
        objective=real_inner(a0, x),
        feas_residual=feas,
        converged=converged,
    )
