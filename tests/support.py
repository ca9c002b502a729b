"""Helpers shared by the test modules: an independent brute-force oracle for
the relaxation in dimension n <= 3, the disk projection the solver's dual
shrink is checked against, one-expression references for the CDP kernels,
and CSV comparison without the wall-clock column."""

from itertools import combinations, product

import numpy as np


def strip_runtime(csv_text):
    """Drop the wall-clock column, which is measurement rather than output."""
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    idx = rows[0].index("runtime_ms")
    return [",".join(r[:idx] + r[idx + 1:]) for r in rows]


def disk_project_vector(z: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Project each z_i onto the disk {w : |w| <= radii_i}.

    Radial shrinkage: the phase of z_i is preserved and only its modulus is
    clipped; a zero radius maps z_i to 0. Radii must be non-negative.
    """
    mag = np.abs(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(mag > radii, radii / np.where(mag > 0, mag, 1.0), 1.0)
    return z * scale


def cdp_forward_reference(masks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """CDP forward map as one expression: the unitary DFT of each masked copy
    of x, blocks concatenated mask-major."""
    return np.fft.fft(masks * x[None, :], axis=1, norm="ortho").ravel()


def cdp_adjoint_reference(masks: np.ndarray, z: np.ndarray) -> np.ndarray:
    """CDP adjoint as one expression: sum_l conj(phi_l) o IDFT(block l of z)."""
    blocks = np.fft.ifft(z.reshape(masks.shape), axis=1, norm="ortho")
    return (masks.conj() * blocks).sum(axis=0)


def oracle_solve_small(rows, b, a0, grid_points: int = 501, method: str = "auto") -> np.ndarray:
    """Independent brute-force solver for the real case in dimension n <= 3.

    Maximizes a0 . x over the polytope {x : |rows_i . x| <= sqrt(b_i)} by
    enumerating all vertices formed by n active constraint hyperplanes
    rows_i . x = +/- sqrt(b_i). method="grid" instead searches a dense grid
    with grid_points per axis over a box guaranteed to contain the polytope;
    method="auto" falls back to the grid when enumeration finds no vertex.

    Real-valued data only; used as a test oracle, not in the solve path.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64)
    a0 = np.asarray(a0, dtype=np.float64)
    m, n = rows.shape
    if n > 3:
        raise ValueError("oracle supports n <= 3 only")
    if b.shape != (m,) or np.any(b < 0):
        raise ValueError("b must be a non-negative vector with one entry per row")
    if a0.shape != (n,):
        raise ValueError("a0 must have one entry per coordinate")
    if method not in ("auto", "vertex", "grid"):
        raise ValueError(f"unknown method {method!r}")
    if np.linalg.matrix_rank(rows) < n:
        raise ValueError("constraint rows do not span the space; program is unbounded")

    s = np.sqrt(b)
    scale = max(float(np.max(s)), 1.0)
    feas_tol = 1e-9 * scale

    def is_feasible(x):
        return np.all(np.abs(rows @ x) <= s + feas_tol)

    best_x = np.zeros(n)  # the origin is always feasible
    best_val = float(a0 @ best_x)

    if method in ("auto", "vertex"):
        found_vertex = False
        for idx in combinations(range(m), n):
            sub = rows[list(idx)]
            if abs(np.linalg.det(sub)) < 1e-12 * scale:
                continue
            for signs in product((1.0, -1.0), repeat=n):
                rhs = np.asarray(signs) * s[list(idx)]
                x = np.linalg.solve(sub, rhs)
                if is_feasible(x):
                    found_vertex = True
                    val = float(a0 @ x)
                    if val > best_val:
                        best_val, best_x = val, x
        if method == "vertex" or found_vertex:
            return best_x

    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    # The polytope is star-shaped around the (always feasible) origin, so each
    # grid point can be scaled radially onto the boundary: the grid then
    # samples exactly feasible points and never overshoots the optimum.
    box = _polytope_box(rows, s)
    axes = [np.linspace(-r, r, grid_points) for r in box]
    for first in axes[0]:
        rest = np.meshgrid(*axes[1:], indexing="ij") if n > 1 else []
        block = np.empty((axes[1].size ** (n - 1) if n > 1 else 1, n))
        block[:, 0] = first
        for j, mg in enumerate(rest):
            block[:, j + 1] = mg.ravel()
        proj = np.abs(block @ rows.T)
        with np.errstate(divide="ignore"):
            ratios = np.where(proj > 0, s[None, :] / np.where(proj > 0, proj, 1.0), np.inf)
        t = np.minimum(ratios.min(axis=1), 1.0)
        snapped = block * t[:, None]
        vals = snapped @ a0
        gi = int(np.argmax(vals))
        if vals[gi] > best_val:
            best_val, best_x = float(vals[gi]), snapped[gi]
    return best_x


def _polytope_box(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per-coordinate bound on {x : |rows @ x| <= s} via the best-conditioned
    invertible subsystem: |x_j| <= sum_i |inv(A_S)[j, i]| * s_S[i]."""
    m, n = rows.shape
    best_det = 0.0
    best_idx = None
    for idx in combinations(range(m), n):
        det = abs(np.linalg.det(rows[list(idx)]))
        if det > best_det:
            best_det, best_idx = det, idx
    inv = np.linalg.inv(rows[list(best_idx)])
    return np.abs(inv) @ s[list(best_idx)]
