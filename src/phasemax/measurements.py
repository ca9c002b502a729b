"""Measurement ensembles (dense rows and coded diffraction patterns), the noisy
squared-magnitude observation process, and the operator norm."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import RngStream, as_signal, sample_complex_gaussian, sample_rademacher

__all__ = [
    "MeasurementEnsemble",
    "DenseEnsemble",
    "CodedDiffractionEnsemble",
    "NoiseModel",
    "Observations",
    "observe",
    "operator_norm",
]


class MeasurementEnsemble:
    """Linear map A: C^n -> C^m with entries (Ax)_i = a_i^H x.

    Subclasses provide matching forward/adjoint pairs; both are pure and an
    ensemble is immutable after construction, so one instance may be shared
    across concurrent solves.

    forward and adjoint are raw kernels: they take a 1-D complex128 vector of
    length n (forward) or m (adjoint) that the caller has already validated,
    and check nothing themselves. Vectors from outside the program are
    validated once, at the public entry point where they arrive (observe,
    solve_phasemax, feasibility_residual, ...).

    Each call returns a fresh array that the caller owns and may overwrite,
    and holds at most one m-sized temporary, which becomes the result where
    it can. Two m-sized buffers alive at once make the allocator return the
    freed pages to the system after every call and fault them back in on
    the next one: at n = 4096, m = 81,920 that was over 600 minor page
    faults a call and more than half of each CDP kernel's time.

    forward also takes a keyword-only out, a complex128 m-vector that must
    not overlap x; the result is written into it and out is returned, with
    the same bits as a call without it. The spectral anchor's Lanczos loop
    passes one buffer to every step, so each step frees no m-sized array:
    freeing two a step made glibc trim the heap and fault the pages back
    in, 31,040 minor faults an anchor in the cdp-image benchmark process
    against 320 with the buffer. The solver's loop does not pass it; its
    crossover (solver._polish) passes one of two buffers to every call.
    """

    n: int
    m: int

    def forward(self, x: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def exact_norm(self) -> Optional[float]:
        """||A|| in closed form, or None when it has to be estimated."""
        return None

    def lifted_gram(self, z: np.ndarray) -> Optional[np.ndarray]:
        """The real 2n x 2n matrix C C^T, or None when the ensemble does not
        form it, as here. The solver asks only ensembles that override this
        (solver._forms_gram), and runs its crossover on every other ensemble
        matrix-free, through forward and adjoint alone (solver._checkpoint):
        a subclass that gives just those two kernels is polished as CDP is.
        Column i of C is a_i z_i for z = A x, as a real
        2n-vector in the layout of a complex128 vector viewed as float64,
        (Re, Im) of each entry in turn: C u = A^H(z o u) for real u, and
        C^T w = Re(conj(z) o A w). It is the Gauss-Newton normal matrix of
        |Ax|^2 = b at x, up to a factor 4, and the solver's optimality
        certificate solves with it (solver._certificate)."""
        return None

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays that define the operator; the solver keeps its
        extra working memory below this (0: none known)."""
        return 0


def _as_matrix(a, name: str) -> np.ndarray:
    """Coerce to a nonempty, finite, 2-D complex128 array."""
    arr = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if arr.ndim != 2 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 2-D array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contain non-finite entries")
    return arr


# Rows a block of DenseEnsemble.lifted_gram. At n = 128, M/N = 12 (one BLAS
# thread, 2-vCPU Xeon) blocks of 128, 256 and 512 rows took 5.2, 4.2 and
# 2.9 ms a Gram, and one block of all rows 2.6 ms, with an m x n complex
# temporary (3.1 MB) instead of 1 MB; forming H and S took 8.2 ms.
_GRAM_BLOCK = 512


class DenseEnsemble(MeasurementEnsemble):
    """Explicitly stored measurement vectors a_i (one per row)."""

    def __init__(self, rows):
        rows = _as_matrix(rows, "rows")
        self.rows = rows
        self.m, self.n = rows.shape

    @classmethod
    def gaussian(cls, n: int, m: int, rng: RngStream) -> "DenseEnsemble":
        """Sample m i.i.d. rows with Normal(0, 1/2) + i Normal(0, 1/2) entries."""
        if n < 1 or m < 1:
            raise ValueError("n and m must be >= 1")
        g = rng.generator
        scale = np.sqrt(0.5)
        # The same bits as scale * (re + 1j * im), without its three m x n
        # complex temporaries.
        rows = np.empty((m, n), dtype=np.complex128)
        np.multiply(g.standard_normal((m, n)), scale, out=rows.real)
        np.multiply(g.standard_normal((m, n)), scale, out=rows.imag)
        return cls(rows)

    def forward(self, x: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
        # conj(rows @ conj(x)) = rows.conj() @ x, without storing rows.conj().
        out = np.matmul(self.rows, x.conj(), out=out)
        return np.conjugate(out, out=out)

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        return self.rows.T @ z

    def lifted_gram(self, z: np.ndarray) -> np.ndarray:
        """Sum over blocks of _GRAM_BLOCK rows of L^T L, where row i of L is
        a_i z_i viewed as float64. That is (1/2) [[Re(H + S), Im(S - H)],
        [Im(H + S), Re(H - S)]] for H = sum_i |z_i|^2 a_i a_i^H and
        S = sum_i z_i^2 a_i a_i^T, with entries interleaved, in half the
        flops of forming H and S and one block at a time."""
        gram = np.zeros((2 * self.n, 2 * self.n))
        for start in range(0, self.m, _GRAM_BLOCK):
            lifted = (self.rows[start:start + _GRAM_BLOCK]
                      * z[start:start + _GRAM_BLOCK, None]).view(np.float64)
            gram += lifted.T @ lifted
        return gram

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes


class CodedDiffractionEnsemble(MeasurementEnsemble):
    """Masked-Fourier measurements a_i = f_k o phi_l for mask vectors phi_l.

    Block l of the forward map is the unitary DFT of phi_l o x; blocks are
    concatenated mask-major, so m = L*n exactly. Only the masks are stored and
    each application costs L FFTs.

    The unitary scaling 1/sqrt(n) is applied to the n-vector, not to the m
    outputs: forward scales x before the masks and runs the unnormalised
    FFT, and adjoint runs the unnormalised inverse FFT and scales the summed
    n-vector. That saves an m-sized scaling pass in each kernel. When sqrt(n)
    is a power of two the scaling is exact, so the results are bit for bit
    those of the DFT with norm="ortho" (tests/support.py's references);
    otherwise they differ from them by rounding.
    """

    def __init__(self, masks):
        masks = _as_matrix(masks, "masks")
        self.masks = masks
        self._masks_conj = masks.conj()
        self.num_masks, self.n = masks.shape
        self.m = self.num_masks * self.n
        self._unitary_scale = 1.0 / math.sqrt(self.n)

    @classmethod
    def rademacher(cls, n: int, num_masks: int, rng: RngStream) -> "CodedDiffractionEnsemble":
        """Sample num_masks independent +/-1 modulation patterns of length n."""
        if n < 1 or num_masks < 1:
            raise ValueError("n and num_masks must be >= 1")
        masks = np.stack([sample_rademacher(n, rng) for _ in range(num_masks)])
        return cls(masks)

    def forward(self, x: np.ndarray, *, out: Optional[np.ndarray] = None) -> np.ndarray:
        if out is None:
            out = np.empty(self.m, dtype=np.complex128)
        blocks = out.reshape(self.num_masks, self.n)
        np.multiply(self.masks, x * self._unitary_scale, out=blocks)
        np.fft.fft(blocks, axis=1, out=blocks)
        return out

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        blocks = np.fft.ifft(z.reshape(self.num_masks, self.n), axis=1, norm="forward")
        blocks *= self._masks_conj
        out = blocks.sum(axis=0)
        out *= self._unitary_scale
        return out

    def exact_norm(self) -> float:
        """A^H A = diag(sum_l |phi_l|^2), so ||A|| = sqrt(max_j sum_l |phi_l[j]|^2)."""
        return float(np.sqrt(np.max(np.sum(np.abs(self.masks) ** 2, axis=0))))

    @property
    def nbytes(self) -> int:
        return self.masks.nbytes + self._masks_conj.nbytes


# Largest magnitude whose square is a finite float64.
_SQRT_MAX = math.sqrt(np.finfo(np.float64).max)


def _snr_amplitude(snr_db: float) -> float:
    """10^(-snr_db/20): gaussian sigma per unit signal energy; inf on overflow."""
    try:
        return 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise xi_i on the squared-magnitude measurements.

    param is the number after the colon in --noise, and a sweep CSV's
    noise_param. kind "none": no noise, param 0. kind "uniform": i.i.d.
    Uniform([0, param]) with param = eta_inv >= 0. kind "gaussian": i.i.d.
    Normal(0, sigma^2) with param = the target input SNR in dB; observe sets
    sigma = ||xstar||^2 * 10^(-param/20) and clips negative measurements to 0.
    """

    kind: str
    param: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "param", float(self.param))
        if self.kind not in ("none", "uniform", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not math.isfinite(self.param):
            raise ValueError("noise parameter must be finite")
        if self.kind == "none" and self.param != 0:
            raise ValueError("noise kind 'none' takes no parameter")
        if self.kind == "uniform" and self.param < 0:
            raise ValueError("uniform noise requires eta_inv >= 0")
        if self.kind == "gaussian" and not 0 < _snr_amplitude(self.param) < math.inf:
            raise ValueError(f"gaussian SNR {self.param} dB is out of range")

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls("none")

    @classmethod
    def uniform(cls, eta_inv: float) -> "NoiseModel":
        return cls("uniform", eta_inv)

    @classmethod
    def gaussian(cls, snr_db: float) -> "NoiseModel":
        return cls("gaussian", snr_db)


@dataclass(frozen=True)
class Observations:
    """Vector b of m non-negative squared-magnitude measurements, plus the
    realized SNR in dB when gaussian noise was added."""

    b: np.ndarray
    snr_db: Optional[float] = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a nonempty 1-D real vector")
        if not np.all(np.isfinite(b)):
            raise ValueError("b contains non-finite entries")
        if np.any(b < 0):
            raise ValueError("b must be entrywise non-negative")
        object.__setattr__(self, "b", b)

    def b_for(self, ens: MeasurementEnsemble) -> np.ndarray:
        """b, after checking that it holds one measurement per row of ens."""
        if self.b.shape[0] != ens.m:
            raise ValueError(f"observations have length {self.b.shape[0]}, expected {ens.m}")
        return self.b


def observe(ens: MeasurementEnsemble, xstar, noise: NoiseModel, rng: RngStream) -> Observations:
    """Measure b_i = |a_i^H xstar|^2 + xi_i with xi drawn from the noise model.

    For gaussian noise, noise.param is the target input SNR in dB: the noise
    level is sigma = ||xstar||^2 * 10^(-snr_db/20), negative measurements are
    clipped to zero, and the realized SNR 20*log10(||xstar||^2 / sigma) is
    recorded on the result. Raises ValueError when that sigma is 0 (a zero or
    underflowing signal) or overflows to inf, and, before squaring, when
    |a_i^H xstar|^2 or (gaussian noise) ||xstar||^2 would overflow.
    """
    xs = as_signal(xstar, "xstar", ens.n)
    b = np.abs(ens.forward(xs))
    if np.max(b) > _SQRT_MAX:
        raise ValueError("xstar is too large: |a_i^H xstar|^2 overflows")
    np.square(b, out=b)
    snr_db = None
    if noise.kind == "uniform":
        b += rng.generator.uniform(0.0, noise.param, size=ens.m)
    elif noise.kind == "gaussian":
        peak = float(np.max(np.abs(xs)))
        if peak > 0 and peak * np.linalg.norm(xs / peak) > _SQRT_MAX:
            raise ValueError("xstar is too large: ||xstar||^2 overflows")
        energy = float(np.sum(np.abs(xs) ** 2))
        sigma = energy * _snr_amplitude(noise.param)
        if not 0 < sigma < math.inf:
            raise ValueError(f"gaussian noise level sigma = {sigma} must be positive and finite")
        b += sigma * rng.generator.standard_normal(ens.m)
        np.maximum(b, 0.0, out=b)
        snr_db = 20.0 * math.log10(energy / sigma)
    return Observations(b=b, snr_db=snr_db)


def operator_norm(ens: MeasurementEnsemble, iters: int, rng: RngStream) -> float:
    """||A|| (largest singular value): exact when the ensemble knows it in
    closed form (CDP), otherwise estimated by power iteration on A^H A.

    The estimate runs `iters` iterations from a random complex start and
    reports ||A v|| for the final unit iterate v.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    exact = ens.exact_norm()
    if exact is not None:
        return exact
    v = sample_complex_gaussian(ens.n, rng)
    nv = np.linalg.norm(v)
    if nv == 0:
        v = np.ones(ens.n, dtype=np.complex128)
        nv = np.linalg.norm(v)
    v = v / nv
    for _ in range(iters):
        w = ens.adjoint(ens.forward(v))
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.linalg.norm(ens.forward(v)))
