"""Anchor vector construction: spectral initialization by the Lanczos method."""

from __future__ import annotations

import numpy as np

from .measurements import AnchorReport, MeasurementEnsemble, Observations, _lanczos
from .numerics import RngStream, as_signal

__all__ = ["AnchorReport", "spectral_anchor", "anchor_correlation"]

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
    steps (see measurements._lanczos). T is negative below y = 1, so
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
