"""Anchor vector construction: spectral initialization by the Lanczos method."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurements import MeasurementEnsemble, Observations
from .numerics import RngStream, as_signal, real_inner, sample_complex_gaussian

__all__ = ["AnchorReport", "spectral_anchor", "anchor_correlation"]

# The Lanczos iteration stops once its top Ritz pair (theta, y) has residual
# ||Sigma y - theta y|| <= _ANCHOR_RTOL * |theta|. At 1e-7 it stops after
# 16-22 steps on the CDP demo and on dense n = 128 sweep trials, with an
# anchor closer to the top eigenvector than 50 power steps get
# (tools/step_scan.py --anchor measures both).
_ANCHOR_RTOL = 1e-7


@dataclass(frozen=True)
class AnchorReport:
    """Unit-norm anchor plus diagnostics of the Lanczos iteration that built
    it: rayleigh_quotient is the top Ritz value theta, the estimate of Sigma's
    largest eigenvalue, and steps the number of applications of Sigma."""

    a0: np.ndarray
    rayleigh_quotient: float
    steps: int


def spectral_anchor(
    ens: MeasurementEnsemble, obs: Observations, iters: int, rng: RngStream
) -> AnchorReport:
    """Approximate the principal eigenvector of the measurement-weighted
    covariance Sigma = (1/M) sum_i b_i a_i a_i^H by the Hermitian Lanczos
    method, taking at most iters steps.

    Sigma is applied matrix-free as v -> adjoint(b o forward(v)) / M, once a
    step, from a random complex start vector; every step writes its forward
    into one m-vector (see MeasurementEnsemble). Each new Krylov vector is
    orthogonalised against the stored ones by classical Gram-Schmidt, twice,
    and the top eigenpair (theta, s) of the k x k tridiagonal, by
    np.linalg.eigh, gives the Ritz pair (theta, y = V_k s), its sign chosen so
    that y has a positive overlap with the start vector, as power iterates
    have. The iteration stops when the Ritz residual beta_k |s_k| is at most
    _ANCHOR_RTOL * |theta|, which a breakdown (beta_k = 0, as for a rank-one
    Sigma) meets, or after min(iters, n) steps.

    The returned anchor is Sigma y / ||Sigma y||, with Sigma y = theta y +
    beta_k s_k v_{k+1} taken from the Lanczos relation, so at no further
    application of Sigma. This power step on the Ritz vector moves a
    converged one by at most _ANCHOR_RTOL; at a cap of 1 or 2 steps it is
    what keeps the anchor no further from the top eigenvector than as many
    power steps (the bare Ritz vector of 1 step is the start vector).
    rayleigh_quotient is theta, the estimate of the largest algebraic
    eigenvalue, which needs no shift when Sigma is indefinite. The basis
    grows with the steps taken, not with iters. Raises ValueError when b is
    all zero or Sigma maps the start vector to zero.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    b = obs.b_for(ens)
    if not np.any(b > 0):
        raise ValueError("all-zero observations: Sigma has no principal direction")
    n = ens.n
    cap = min(iters, n)
    buf = np.empty(ens.m, dtype=np.complex128)
    v = sample_complex_gaussian(n, rng)
    basis = np.empty((min(cap, 8), n), dtype=np.complex128)
    np.divide(v, np.linalg.norm(v), out=basis[0])
    alpha, beta = [], []
    for k in range(cap):
        w = ens.forward(basis[k], out=buf)
        w *= b
        w = ens.adjoint(w)
        w /= ens.m
        if k == 0 and not np.any(w):
            raise ValueError("Sigma maps the start vector to zero; Sigma is degenerate")
        alpha.append(real_inner(basis[k], w))
        krylov = basis[:k + 1]
        for _ in range(2):
            w -= np.conj(krylov @ w.conj()) @ krylov
        beta_k = float(np.linalg.norm(w))
        values, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        theta, s = float(values[-1]), vectors[:, -1]
        if s[0] < 0:
            s = -s
        if beta_k * abs(s[-1]) <= _ANCHOR_RTOL * abs(theta) or k + 1 == cap:
            break
        if k + 1 == len(basis):  # doubling: rows for the steps taken, not for iters
            grown = np.empty((min(2 * len(basis), cap), n), dtype=np.complex128)
            grown[:k + 1] = basis
            basis = grown
        beta.append(beta_k)
        np.divide(w, beta_k, out=basis[k + 1])
    a0 = theta * (s @ krylov) + s[-1] * w
    a0 /= np.linalg.norm(a0)
    return AnchorReport(a0=a0, rayleigh_quotient=theta, steps=k + 1)


def anchor_correlation(a0, xstar) -> float:
    """Normalized correlation |a0^H xstar| / (||a0|| ||xstar||), in [0, 1]."""
    a = as_signal(a0, "a0")
    x = as_signal(xstar, "xstar")
    na = np.linalg.norm(a)
    nx = np.linalg.norm(x)
    if na == 0 or nx == 0:
        raise ValueError("anchor_correlation requires nonzero vectors")
    return float(np.abs(np.vdot(a, x)) / (na * nx))
