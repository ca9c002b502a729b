"""Complex-vector primitives: the real inner product on C^N viewed as R^2N,
phase-ambiguity-aware error metrics, and reproducible random sampling."""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "RngStream",
    "as_signal",
    "real_inner",
    "phase_align_error",
    "sample_complex_gaussian",
    "sample_rademacher",
]


class RngStream:
    """Reproducible random stream keyed by (seed, stream_id).

    Two streams constructed with the same (seed, stream_id) produce bitwise
    identical draws; distinct stream_ids under one seed are statistically
    independent, so parallel trials can each own a stream. A stream is
    stateful and must be used by at most one thread.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {self.stream_id}")
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.default_rng(ss)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def as_signal(x, name: str = "signal", length: Optional[int] = None) -> np.ndarray:
    """Coerce to a 1-D complex128 vector and validate it is finite and nonempty,
    and, when length is given, that it has exactly that many entries.

    This is the one validator for vectors arriving from outside the program;
    the operator kernels (MeasurementEnsemble.forward/adjoint) do not repeat it.
    """
    arr = np.asarray(x, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have length >= 1")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {length}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def real_inner(x, y) -> float:
    """Real inner product Re(x^H y), treating C^N as a 2N-dimensional real space."""
    xa = as_signal(x, "x")
    ya = as_signal(y, "y", xa.shape[0])
    return float(np.vdot(xa, ya).real)


def phase_align_error(xhat, xstar) -> float:
    """Relative error after quotienting out the global phase.

    Returns min over phi of ||xhat - e^{i phi} xstar||_2 / ||xstar||_2. The
    minimizer is phi* = arg(xstar^H xhat) in closed form; when xhat^H xstar = 0
    every phi is optimal and phi* = 0 is used.
    """
    xh = as_signal(xhat, "xhat")
    xs = as_signal(xstar, "xstar", xh.shape[0])
    norm_star = np.linalg.norm(xs)
    if norm_star == 0.0:
        raise ValueError("xstar must be nonzero")
    overlap = np.vdot(xs, xh)  # xstar^H xhat
    phi = np.angle(overlap) if overlap != 0 else 0.0
    return float(np.linalg.norm(xh - np.exp(1j * phi) * xs) / norm_star)


def sample_complex_gaussian(n: int, rng: RngStream, rows: Optional[int] = None) -> np.ndarray:
    """Draw a length-n vector with i.i.d. entries Normal(0, 1/2) + i Normal(0, 1/2),
    so each entry has unit expected squared modulus. With rows, draw a
    (rows, n) stack of them, equal to the vectors of rows calls in turn."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = rng.generator.standard_normal((2, n) if rows is None else (rows, 2, n))
    return np.sqrt(0.5) * (z[..., 0, :] + 1j * z[..., 1, :])


def sample_rademacher(n: int, rng: RngStream) -> np.ndarray:
    """Draw a length-n vector of i.i.d. symmetric +/-1 entries (zero imaginary part)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    signs = rng.generator.integers(0, 2, size=n) * 2.0 - 1.0
    return signs.astype(np.complex128)
