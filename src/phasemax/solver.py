"""First-order solver for the anchored relaxation: maximize <a0, x> subject to
|a_i^H x|^2 <= b_i, by primal-dual proximal splitting with balanced steps."""

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
# Fraction of the step-size stability bound: tau = c * _STEP_SCALE / ||A|| and
# sigma = _STEP_SCALE / (c * ||A||), so tau * sigma * ||A||^2 = _STEP_SCALE^2 < 1.
_STEP_SCALE = 0.95
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


def _shrink_dual(y: np.ndarray, sigma_radii: np.ndarray, buf: np.ndarray) -> None:
    """Overwrite y with y - sigma * P(y / sigma), P projecting entry i onto
    the disk |w| <= radii_i, given sigma_radii = sigma * radii.

    By the Moreau identity this is a per-modulus soft threshold,
    y_i <- y_i * (1 - sigma r_i / max(|y_i|, sigma r_i, tiny)); the tiny floor
    keeps r_i = 0, y_i = 0 from giving 0/0. buf is float scratch of y's length.
    """
    np.abs(y, out=buf)
    np.maximum(buf, sigma_radii, out=buf)
    np.maximum(buf, _TINY, out=buf)
    np.divide(sigma_radii, buf, out=buf)
    np.subtract(1.0, buf, out=buf)
    y *= buf


def feasibility_residual(ens: MeasurementEnsemble, obs: Observations, x) -> float:
    """Largest slab violation max_i (|a_i^H x|^2 - b_i)_+ ; zero when x is feasible."""
    b = obs.b_for(ens)
    viol = np.abs(ens.forward(as_signal(x, "x", ens.n)))
    np.square(viol, out=viol)
    viol -= b
    return float(max(np.max(viol, initial=0.0), 0.0))


def solve_phasemax(
    ens: MeasurementEnsemble, obs: Observations, a0, cfg: SolverConfig = SolverConfig()
) -> Solution:
    """Solve max <a0, x> s.t. |a_i^H x|^2 <= b_i by primal-dual splitting.

    The slab constraints are reformulated once as disk constraints
    |(Ax)_i| <= r_i = sqrt(b_i). With primal step tau = c * _STEP_SCALE / ||A||
    and dual step sigma = _STEP_SCALE / (c * ||A||) the iteration from
    x = y = xbar = 0 is

        y    <- y + sigma * A xbar
        y_i  <- y_i * (1 - sigma r_i / max(|y_i|, sigma r_i, tiny))
        x_new <- x + tau * a0 - tau * A^H y
        xbar <- 2 x_new - x

    The second line is the shrink y - sigma * P(y / sigma), P projecting entry
    i onto |w| <= r_i, done in place. The balance c = ||r|| / (||A|| ||a0||)
    bounds ||x*|| / ||a0|| from below for noiseless data (||A x*|| = ||r||),
    so the primal step follows the scale of the signal rather than that of a0:
    a large x* is not under-stepped. The x iterates do not depend on the scale
    of a0 (a0 -> t a0 scales y by t); c is 1 for unit a0 and x* under
    unimodular CDP masks, and falls back to 1 when b is all zero.
    tau * sigma * ||A||^2 = _STEP_SCALE^2 < 1 keeps the iteration stable for
    any c.

    Stops when the relative primal change drops below tol_rel_change and the
    feasibility residual below tol_feas, or at max_iters. Zero-radius disks
    (b_i = 0, e.g. after gaussian-noise clipping) are kept as constraints
    forcing (Ax)_i toward 0. The returned xhat is the last iterate, feasible
    only to Solution.feas_residual and not projected onto the slabs (see
    Solution for why).
    """
    a0 = as_signal(a0, "a0", ens.n)
    a0_norm = np.linalg.norm(a0)
    if a0_norm == 0:
        raise ValueError("a0 must be nonzero")
    radii = np.sqrt(obs.b_for(ens))  # Observations guarantees b >= 0
    op_norm = operator_norm(ens, _NORM_EST_ITERS, RngStream(_NORM_EST_SEED))
    if op_norm == 0:
        raise ValueError("measurement operator is identically zero")
    balance = np.linalg.norm(radii) / (op_norm * a0_norm)
    if not 0 < balance < np.inf:
        balance = 1.0
    tau = balance * _STEP_SCALE / op_norm
    sigma = _STEP_SCALE / (balance * op_norm)
    sigma_radii = sigma * radii
    tau_a0 = tau * a0

    x = np.zeros(ens.n, dtype=np.complex128)
    y = np.zeros(ens.m, dtype=np.complex128)
    xbar = np.zeros(ens.n, dtype=np.complex128)
    buf = np.empty(ens.m)

    iters_used = cfg.max_iters
    converged = False
    feas = None
    for k in range(cfg.max_iters):
        y += ens.forward(sigma * xbar)
        _shrink_dual(y, sigma_radii, buf)
        x_new = x + tau_a0 - tau * ens.adjoint(y)
        step = np.linalg.norm(x_new - x)
        norm_new = np.linalg.norm(x_new)
        rel_change = step / norm_new if norm_new > 0 else step
        xbar = 2.0 * x_new - x
        x = x_new
        if rel_change <= cfg.tol_rel_change:
            feas = feasibility_residual(ens, obs, x)
            if feas <= cfg.tol_feas:
                iters_used = k + 1
                converged = True
                break
    if feas is None or not converged:
        feas = feasibility_residual(ens, obs, x)
    return Solution(
        xhat=x,
        iters_used=iters_used,
        objective=real_inner(a0, x),
        feas_residual=feas,
        converged=converged,
    )
