"""First-order solver for the anchored relaxation: maximize <a0, x> subject to
|a_i^H x|^2 <= b_i, by over-relaxed primal-dual proximal splitting,
Anderson-accelerated where the history fits in the operator's own memory."""

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
# Anderson acceleration of the relaxed step (see _Anderson): the number of
# past steps it combines, at most; _history_length caps it by the operator's
# size, and a history of 0 is the plain step z <- T(z). tools/step_scan.py
# --memory measures each length; 3 gains nothing on dense sweep trials, and
# 10 about halves their iterations.
_AA_MEMORY = 10
# Tikhonov weight of the least squares, relative to each new column's own
# squared norm: it bounds the Gram matrix's condition number when steps
# become collinear. 1e-14 and 1e-6 moved the median iterations of sweep
# trials by at most 7%.
_AA_REGULARIZATION = 1e-10
# After this many safeguard rejections a solve stops extrapolating and takes
# plain steps: the history is not helping. The 239 gauss-sweep trials that
# converge among call seeds s * 10^6 + k (s = 1..4, k < 30) see at most 14;
# noisy trials, which run to max_iters, reach 32 within 330-580 iterations
# (n = 128, M/N = 12) and would otherwise pay the Anderson bookkeeping on
# every iteration for no gain in error.
_AA_MAX_REJECTIONS = 32
# The dual entries of inactive slabs decay geometrically towards 0 (by
# rho - 1 = 0.7 a plain step). Left alone they reach subnormal values after
# about 2,000 steps, where arithmetic is many times slower (an adjoint took
# 1.8 ms instead of 0.2 ms at m = 1536). So every _FLUSH_EVERY steps the
# solver sets entries below _DUAL_FLOOR * ||a0|| / ||A|| to 0; a dual optimum
# has ||y|| >= ||a0|| / ||A||.
_DUAL_FLOOR = 1e-100
_FLUSH_EVERY = 16
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


def _history_length(ens: MeasurementEnsemble) -> int:
    """Anderson history length for ens: _AA_MEMORY, cut so that the history
    takes no more bytes than the operator's own arrays. A slot holds a step
    difference with sigma A of its x part (n + 2m) and a residual difference
    (n + m), in complex128: 0.8 MB against 3.1 MB of rows at n = 128,
    M/N = 12. A 64 x 64, L = 20 CDP operator gets 0 slots (4.1 MB a slot
    against 2.6 MB of masks), so its solve takes plain steps, in place."""
    return min(_AA_MEMORY, ens.nbytes // (16 * (2 * (ens.n + ens.m) + ens.m)))


class _Anderson:
    """Type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011)
    of a fixed-point map z -> T(z), on points z = (x, y, p) of length n + 2m
    whose payload p (sigma A x) is carried along but is not part of the
    residual.

    Each step the caller writes T(z) into the row t and the residual
    g = T(z) - z, x and y parts only (length n + m), into the row g; then
    advance() moves z. With the differences dG and dT of the last memory
    residuals and T values, gamma minimizes |g - dG gamma| in the metric
    x_weight^2 |x|^2 + |y|^2 (regularized normal equations), and the next
    point is T(z) - dT gamma, an affine combination of past T values, so a
    payload linear in x stays that function of x. Safeguard (after Zhang,
    O'Donoghue & Boyd, arXiv:1808.03971): an extrapolated point whose
    residual is larger than that of the point before it is replaced by the
    plain step T of that point, and the history is cleared; after
    _AA_MAX_REJECTIONS of these every step is plain.
    """

    def __init__(self, n: int, m: int, memory: int, x_weight: float):
        width, size = n + 2 * m, n + m
        # One block: rows dT of the ring, T of this step and the last, and z;
        # then rows dG of the ring and g of this step and the last, so that a
        # new difference and this step's g form one strided matrix.
        block = np.zeros(width * (memory + 3) + size * (memory + 2), dtype=np.complex128)
        t_rows = block[:width * (memory + 3)].reshape(memory + 3, width)
        g_rows = block[width * (memory + 3):].reshape(memory + 2, size)
        self.z = t_rows[memory + 2]
        self._t_rows, self._g_rows = t_rows.view(np.float64), g_rows.view(np.float64)
        self._views = [(t_rows[memory + i], g_rows[memory + i]) for i in (0, 1)]
        self._gram = np.zeros((memory, memory))
        self._n, self._memory, self._x_weight = n, memory, x_weight
        self._cur = 0
        self._used = self._slot = 0
        self._res = 0.0
        self._have_prev = self._mixed = False
        self._rejections = 0
        self.t, self.g = self._views[0]

    def advance(self) -> None:
        memory, cur = self._memory, self._cur
        self._cur = prev = cur ^ 1
        self.t, self.g = self._views[prev]
        t_rows, g_rows = self._t_rows, self._g_rows
        t, t_prev, z = t_rows[memory + cur], t_rows[memory + prev], t_rows[memory + 2]
        if self._rejections == _AA_MAX_REJECTIONS:
            z[:] = t
            return
        g = g_rows[memory + cur]
        g[:2 * self._n] *= self._x_weight
        res = g @ g
        if self._mixed and res > self._res:
            z[:] = t_prev
            self._used = self._slot = 0
            self._have_prev = self._mixed = False
            self._rejections += 1
            return
        have_prev, self._have_prev, self._res = self._have_prev, True, res
        if not have_prev:
            z[:] = t
            return
        s = self._slot
        np.subtract(t, t_prev, out=t_rows[s])
        np.subtract(g, g_rows[memory + prev], out=g_rows[s])
        self._used = used = min(self._used + 1, memory)
        self._slot = (s + 1) % memory
        # Column 0: the new Gram row; column 1: the right-hand side dG^T g.
        both = g_rows[:used] @ g_rows[s:memory + cur + 1:memory + cur - s].T
        gram = self._gram
        gram[s, :used] = both[:, 0]
        gram[:used, s] = both[:, 0]
        gram[s, s] = gram[s, s] * (1.0 + _AA_REGULARIZATION) + _TINY
        gamma = np.linalg.solve(gram[:used, :used], both[:, 1])
        np.dot(gamma, t_rows[:used], out=z)
        np.subtract(t, z, out=z)
        self._mixed = True


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
    x0 to 0. It then iterates z <- T(z), extrapolated by _Anderson over the
    history that _history_length allows the operator; with none, T(z) is
    written over z.

    It stops when the relative change ||T(z)_x - x|| / ||T(z)_x|| is at most
    tol_rel_change and feasibility_residual of T(z)_x at most tol_feas,
    returning T(z)_x, or at max_iters, returning the last T(z)_x. A tracked
    sigma A x screens the residual without an operator call (see _iterate),
    and feasibility_residual confirms every stop, so the stop decisions are
    those of an exact check made whenever the relative change passes.
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
    memory = _history_length(ens)
    x, iters_used, feas = _iterate(
        ens, obs, b, start * a0,
        (tau * a0, tau, sigma, sigma_radii, np.maximum(sigma_radii, _TINY)),
        _DUAL_FLOOR * a0_norm / op_norm, cfg,
        _Anderson(ens.n, ens.m, memory, 1.0 / balance) if memory else None)
    converged = feas is not None
    if not converged:
        # Computed after _iterate has returned its m-sized buffers.
        feas = feasibility_residual(ens, obs, x)
    return Solution(
        xhat=x,
        iters_used=iters_used,
        objective=real_inner(a0, x),
        feas_residual=feas,
        converged=converged,
    )


def _iterate(ens, obs, b, x, steps, y_floor: float, cfg, aa):
    """Iterate T from z = (x, 0): without aa, T(z) is written over z; with
    it, T(z) and the step g go into aa's rows and aa.advance() moves z.
    Returns (x, iters_used, feasibility residual of x), the residual None
    when the solve ran to max_iters. Every _FLUSH_EVERY steps, dual entries
    below y_floor are set to 0.

    The stop test's screen tracks sax = sigma A x: A x_half is the mean of
    A (2 x_half - x), which the step computes, and A x, so the relaxed x has
    sigma A x = sax + (rho / 2) (sigma A (2 x_half - x) - sax). With aa, sax
    starts from one exact forward of x and rides in aa's rows beside x;
    without, the first exact check seeds it, so a solve whose relative
    change never passes keeps no sax.
    """
    tau_a0, tau, sigma, sigma_radii, radii_floor = steps
    n, m = ens.n, ens.m
    if aa is None:
        y, sax = np.zeros(m, dtype=np.complex128), None
    else:
        aa.z[:n] = x
        x, y, sax = aa.z[:n], aa.z[n:n + m], aa.z[n + m:]
        np.multiply(ens.forward(x), sigma, out=sax)
    xbar = np.empty(n, dtype=np.complex128)
    buf = np.empty(m)
    small = np.empty(m, dtype=bool)
    rho = _RELAXATION
    screen_tol = 2.0 * cfg.tol_feas + _SCREEN_RTOL * np.max(b)
    for k in range(cfg.max_iters):
        tx, ty, tsa = (x, y, sax) if aa is None else (aa.t[:n], aa.t[n:n + m], aa.t[n + m:])
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
            np.multiply(sax, 2.0 / rho - 1.0, out=tsa)
            tsa += f
            tsa *= 0.5 * rho
        f += y
        _shrink_dual(f, sigma_radii, radii_floor, buf)
        # The step g = rho ((x_half, v) - (x, y)), formed in x_half and f.
        gx, gy = x_half, f
        gy -= y
        gy *= rho
        np.add(y, gy, out=ty)
        gx -= x
        gx *= rho
        np.add(x, gx, out=tx)
        if aa is not None:
            aa.g[:n], aa.g[n:] = gx, gy
        # Not kept across adjoint: two live m-sized buffers fault pages back
        # in on every call (see MeasurementEnsemble).
        del f, gy
        step = math.sqrt(np.vdot(gx, gx).real)
        norm_new = math.sqrt(np.vdot(tx, tx).real)
        rel_change = step / norm_new if norm_new > 0 else step
        if rel_change <= cfg.tol_rel_change:
            if sax is None:
                sax = ens.forward(tx)
                feas = _max_violation(sax, b)
                sax *= sigma
            elif _max_violation(tsa, b, sigma, buf) <= screen_tol:
                feas = feasibility_residual(ens, obs, tx)
            else:
                feas = math.inf
            if feas <= cfg.tol_feas:
                return tx.copy(), k + 1, feas
        if aa is not None:
            aa.advance()
        if k % _FLUSH_EVERY == 0:
            _flush_dual(y, y_floor, buf, small)
    return tx.copy(), cfg.max_iters, None
