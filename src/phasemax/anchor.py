"""Anchor vector construction: spectral initialization by the power method."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurements import MeasurementEnsemble, Observations
from .numerics import RngStream, as_signal, real_inner, sample_complex_gaussian

__all__ = ["AnchorReport", "spectral_anchor", "anchor_correlation"]


@dataclass(frozen=True)
class AnchorReport:
    """Unit-norm anchor plus diagnostics of the power iteration that built it."""

    a0: np.ndarray
    rayleigh_quotient: float


def spectral_anchor(
    ens: MeasurementEnsemble, obs: Observations, iters: int, rng: RngStream
) -> AnchorReport:
    """Approximate the principal eigenvector of the measurement-weighted
    covariance Sigma = (1/M) sum_i b_i a_i a_i^H by the power method.

    Sigma is applied matrix-free as v -> adjoint(b o forward(v)) / M with an l2
    normalization after every step, starting from a random complex vector. The
    returned Rayleigh quotient <v, Sigma v> is the top-eigenvalue estimate at
    exit. Every step writes its forward into one m-vector (see
    MeasurementEnsemble).
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    b = obs.b_for(ens)
    if not np.any(b > 0):
        raise ValueError("all-zero observations: Sigma has no principal direction")
    buf = np.empty(ens.m, dtype=np.complex128)

    def apply_sigma(v):
        w = ens.forward(v, out=buf)
        w *= b
        return ens.adjoint(w) / ens.m

    v = sample_complex_gaussian(ens.n, rng)
    v = v / np.linalg.norm(v)
    for _ in range(iters):
        w = apply_sigma(v)
        nw = np.linalg.norm(w)
        if nw == 0:
            raise ValueError("power iterate collapsed to zero; Sigma is degenerate")
        v = w / nw
    quotient = real_inner(v, apply_sigma(v))
    return AnchorReport(a0=v, rayleigh_quotient=quotient)


def anchor_correlation(a0, xstar) -> float:
    """Normalized correlation |a0^H xstar| / (||a0|| ||xstar||), in [0, 1]."""
    a = as_signal(a0, "a0")
    x = as_signal(xstar, "xstar")
    na = np.linalg.norm(a)
    nx = np.linalg.norm(x)
    if na == 0 or nx == 0:
        raise ValueError("anchor_correlation requires nonzero vectors")
    return float(np.abs(np.vdot(a, x)) / (na * nx))
