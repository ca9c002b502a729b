"""Anchor vector construction: spectral initialization by the Lanczos method."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurements import MeasurementEnsemble, Observations
from .numerics import RngStream, as_signal, sample_complex_gaussian

__all__ = ["AnchorReport", "spectral_anchor", "anchor_correlation"]

# The Lanczos iteration stops once its top Ritz pair (theta, y) has residual
# ||Sigma_w y - theta y|| <= _LANCZOS_RTOL * |theta|. At 1e-7 the spectral
# anchor stops after 15-26 steps on the CDP demo (L = 20) and on dense
# n = 128 trials at M/N 6-12, within 6e-8 of the top eigenvector of Sigma_T
# (tools/step_scan.py --anchor).
_LANCZOS_RTOL = 1e-7


@dataclass(frozen=True)
class AnchorReport:
    """Unit-norm top Ritz vector a0 of Sigma_w = (1/M) sum_i w_i a_i a_i^H
    plus diagnostics of the Lanczos iteration that built it (see _lanczos):
    rayleigh_quotient is the top Ritz value theta, the estimate of the
    largest algebraic eigenvalue of Sigma_w, and steps the number of
    applications of Sigma_w. For the spectral anchor, w holds the
    preprocessed weights T(y) (spectral_anchor)."""

    a0: np.ndarray
    rayleigh_quotient: float
    steps: int


def _lanczos(ens: MeasurementEnsemble, weights, iters: int, rng: RngStream) -> AnchorReport:
    """The top eigenpair of Sigma_w = (1/M) sum_i w_i a_i a_i^H by the
    Hermitian Lanczos method, taking at most iters steps. weights is the
    m-vector w.

    Sigma_w is applied matrix-free as v -> adjoint(w o forward(v)) / M, once
    a step, from a random complex start vector; every step writes its forward
    into one m-vector (see MeasurementEnsemble). Each new Krylov vector is
    orthogonalised against the stored ones by classical Gram-Schmidt, twice,
    and the top eigenpair (theta, s) of the k x k tridiagonal, by
    np.linalg.eigh, gives the Ritz pair (theta, y = V_k s), its sign chosen so
    that y has a positive overlap with the start vector, as power iterates
    have. theta estimates the largest algebraic eigenvalue, which needs no
    shift when Sigma_w is indefinite. The iteration stops when the Ritz
    residual beta_k |s_k| is at most _LANCZOS_RTOL * |theta|, which a
    breakdown (beta_k = 0, as for a rank-one Sigma_w) meets, or after
    min(iters, n) steps.

    The returned anchor is Sigma_w y / ||Sigma_w y||, with Sigma_w y =
    theta y + beta_k s_k v_{k+1} taken from the Lanczos relation, so at no
    further application of Sigma_w; it is y itself when Sigma_w y = 0. This
    power step on the Ritz vector moves a converged one by at most
    _LANCZOS_RTOL. At a cap of 1, where y is the start vector, it is a plain
    power step, which on an indefinite Sigma_w can favour the eigenvector of
    a large negative eigenvalue; from 2 steps on, the anchor is no further
    from the top eigenvector than as many power steps on Sigma_w shifted by
    its smallest eigenvalue (tests/test_anchor.py measures both). The basis
    grows with the steps taken, not with iters. Raises ValueError when the
    operator maps the start vector to zero.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = ens.n
    cap = min(iters, n)
    buf = np.empty(ens.m, dtype=np.complex128)
    v = sample_complex_gaussian(n, rng)
    basis = np.empty((min(cap, 8), n), dtype=np.complex128)
    np.divide(v, np.linalg.norm(v), out=basis[0])
    alpha, beta = [], []
    for k in range(cap):
        w = ens.forward(basis[k], out=buf)
        if k == 0 and not np.any(w):
            raise ValueError("the measurement operator maps the start vector to zero")
        w *= weights
        w = ens.adjoint(w)
        w /= ens.m
        alpha.append(np.vdot(basis[k], w).real)
        krylov = basis[:k + 1]
        for _ in range(2):
            w -= np.conj(krylov @ w.conj()) @ krylov
        beta_k = float(np.linalg.norm(w))
        values, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        theta, s = float(values[-1]), vectors[:, -1]
        if s[0] < 0:
            s = -s
        if beta_k * abs(s[-1]) <= _LANCZOS_RTOL * abs(theta) or k + 1 == cap:
            break
        if k + 1 == len(basis):  # doubling: rows for the steps taken, not for iters
            grown = np.empty((min(2 * len(basis), cap), n), dtype=np.complex128)
            grown[:k + 1] = basis
            basis = grown
        beta.append(beta_k)
        np.divide(w, beta_k, out=basis[k + 1])
    a0 = theta * (s @ krylov) + s[-1] * w
    if not np.any(a0):  # Sigma_w y = 0, as when w = 0
        a0 = s @ krylov
    a0 /= np.linalg.norm(a0)
    return AnchorReport(a0=a0, rayleigh_quotient=theta, steps=k + 1)


# Floor of the preprocessing's denominator y + sqrt(delta) - 1, which
# reaches 0 only at delta <= 1: at y = 0 (b_i = 0, from gaussian clipping)
# for delta = 1, and at y = 1 - sqrt(delta) below. It bounds T below by
# -1 / _T_FLOOR. At delta = 0.5-1.1 (n = 128, 10 trials) floors of 1e-3 to
# 0.1 gave the same median anchor correlation to 3 digits.
_T_FLOOR = 0.1


def _preprocess(b: np.ndarray, n: int) -> np.ndarray:
    """Mondelli-Montanari weights T(y) = (y - 1) / (y + sqrt(delta) - 1) of
    y = b / mean(b), delta = m / n (arXiv:1708.05932), with the denominator
    floored at _T_FLOOR."""
    y = b / np.mean(b)
    den = y + (np.sqrt(b.shape[0] / n) - 1)
    np.maximum(den, _T_FLOOR, out=den)
    y -= 1
    y /= den
    return y


def spectral_anchor(
    ens: MeasurementEnsemble, obs: Observations, iters: int, rng: RngStream
) -> AnchorReport:
    """Approximate the top eigenvector of the preprocessed covariance
    Sigma_T = (1/M) sum_i T(y_i) a_i a_i^H, with Mondelli and Montanari's
    weights T(y) = (y - 1) / (y + sqrt(delta) - 1) of y = b / mean(b) and
    delta = M / N, by the Hermitian Lanczos method, taking at most iters
    steps (see _lanczos). T is negative below y = 1, so
    Sigma_T is indefinite, and its top eigenvector is the one of the largest
    algebraic eigenvalue, not of the largest modulus. The denominator is
    floored at _T_FLOOR, which matters only at delta <= 1, where it would
    reach 0.

    When every b_i is equal, T = 0 and so is Sigma_T: the anchor is the
    random start vector. Raises ValueError when b is all zero or the
    operator maps the start vector to zero.
    """
    b = obs.b_for(ens)
    if not np.any(b > 0):
        raise ValueError("all-zero observations: Sigma has no principal direction")
    return _lanczos(ens, _preprocess(b, ens.n), iters, rng)


def anchor_correlation(a0, xstar) -> float:
    """Normalized correlation |a0^H xstar| / (||a0|| ||xstar||), in [0, 1]."""
    a = as_signal(a0, "a0")
    x = as_signal(xstar, "xstar")
    na = np.linalg.norm(a)
    nx = np.linalg.norm(x)
    if na == 0 or nx == 0:
        raise ValueError("anchor_correlation requires nonzero vectors")
    return float(np.abs(np.vdot(a, x)) / (na * nx))
