"""Helpers shared by the test modules: an ensemble wrapper that counts kernel
calls, an independent brute-force oracle for the relaxation in dimension
n <= 3, the disk projection the solver's dual shrink is checked against,
one-expression references for the CDP kernels, the full-dimensional
cut-probability sampler, the geometry suite and its p_min sampler testing
one vector at a time, the spectral anchor's Lanczos iteration and the
dense Gaussian sampler written plainly, the solver loop with an exact stop
check, a Lawson-Hanson NNLS for KKT certificates, CSV comparison without
the wall-clock column, and the CDP demo's image."""

import math
from itertools import combinations, product

import numpy as np

from phasemax import theory
from phasemax.experiments import CheckResult
from phasemax.measurements import MeasurementEnsemble
from phasemax.numerics import RngStream, sample_complex_gaussian
from phasemax.pgm import write_pgm


def write_demo_image(path):
    """Write the CDP demo's 64 x 64 gradient image (acceptance criterion 7's
    and the cdp-image benchmark's) as a PGM at path, and return path."""
    write_pgm(path, np.add.outer(np.linspace(5, 250, 64), np.linspace(0, 30, 64)))
    return path


def strip_runtime(csv_text):
    """Drop the wall-clock column, which is measurement rather than output."""
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    idx = rows[0].index("runtime_ms")
    return [",".join(r[:idx] + r[idx + 1:]) for r in rows]


class CountingEnsemble(MeasurementEnsemble):
    """Wraps an ensemble; counts its forward and adjoint calls, and, unless
    subnormals=False, the subnormal entries (0 < |z_i| < tiny) of the vectors
    its adjoint is given. It hands on the wrapped ensemble's own lifted_gram
    and exact_norm, so the solver polishes the wrapper exactly when it
    polishes ens, and takes the same steps on it."""

    def __init__(self, ens, subnormals=True):
        self.ens, self.n, self.m, self.subnormals = ens, ens.n, ens.m, subnormals
        self.forwards = self.adjoints = self.subnormal_inputs = 0
        self.lifted_gram, self.exact_norm = ens.lifted_gram, ens.exact_norm

    def forward(self, x, *, out=None):
        self.forwards += 1
        return self.ens.forward(x, out=out)

    def adjoint(self, z):
        self.adjoints += 1
        if self.subnormals:
            mod = np.abs(z)
            self.subnormal_inputs += int(np.count_nonzero((mod > 0) & (mod < np.finfo(float).tiny)))
        return self.ens.adjoint(z)

    @property
    def nbytes(self):
        return self.ens.nbytes


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


def cut_probability_reference(ctx, h, num_a: int, rng) -> float:
    """Monte Carlo estimate of P(Re(conj(a^H xstar) a^H h) > eta_inv / 2)
    that draws every coordinate of a ~ CN(0, I_n), with no projection onto
    span{xstar, h}."""
    x = ctx.xstar
    n = x.shape[0]
    h = np.asarray(h, dtype=np.complex128)
    g = rng.generator
    hits = 0
    for start in range(0, num_a, 10_000):
        k = min(10_000, num_a - start)
        a = np.sqrt(0.5) * (g.standard_normal((k, n)) + 1j * g.standard_normal((k, n)))
        u = a.conj() @ x  # a^H xstar per draw
        w = a.conj() @ h
        hits += int(np.count_nonzero((np.conj(u) * w).real > 0.5 * ctx.eta_inv))
    return hits / num_a


def cut_hits_reference(ctx, hs, num_a: int, rng) -> np.ndarray:
    """theory._cut_hits scoring each direction over a whole block of
    _CUT_CHUNK draws in one pass, on the same draws: per block, the four
    normal rows g0..g3, R = g0^2 + g1^2 and Q = g0 g2 + g1 g3, and a hit
    where Re(c) R + p Q > eta_inv."""
    x = ctx.xstar
    coeffs = []
    for h in hs:
        c = np.vdot(x, h)
        coeffs.append((float(c.real), float(np.linalg.norm(h - c * x))))
    hits = np.zeros(len(coeffs), dtype=np.int64)
    for start in range(0, num_a, theory._CUT_CHUNK):
        g0, g1, g2, g3 = rng.generator.standard_normal((4, min(theory._CUT_CHUNK, num_a - start)))
        r, q = g0 * g0 + g1 * g1, g0 * g2 + g1 * g3
        for j, (re_c, p) in enumerate(coeffs):
            hits[j] += np.count_nonzero(r * re_c + q * p > ctx.eta_inv)
    return hits


def empirical_pmin_reference(ctx, num_h: int, num_a: int, rng) -> float:
    """theory.empirical_pmin drawing and testing one attempt at a time
    through the public scalar predicates, scored by cut_hits_reference."""
    target_norm = (1.0 + 1e-6) * ctx.eta_inv / ctx.t
    n = ctx.xstar.shape[0]
    accepted = []
    attempts = 0
    while len(accepted) < num_h and attempts < 1000 * num_h:
        attempts += 1
        h = sample_complex_gaussian(n, rng)
        norm = np.linalg.norm(h)
        if norm == 0:
            continue
        h = h * (target_norm / norm)
        if theory.in_Cprime_delta(h, ctx) and theory.in_R_delta(h, ctx):
            accepted.append(h)
    if len(accepted) < num_h:
        raise RuntimeError(f"accepted only {len(accepted)}/{num_h} directions")
    return int(cut_hits_reference(ctx, accepted, num_a, rng).min()) / num_a


def geometry_checks_reference(seed: int, num_h: int, num_a: int) -> list:
    """experiments._geometry_checks testing one vector per predicate call,
    with empirical_pmin_reference for the p_min check."""
    checks = []
    stream = RngStream(seed, 2)
    g = stream.generator
    n = 8

    ok = True
    for delta in (0.1, 0.5, 0.9):
        xs = sample_complex_gaussian(n, stream)
        ctx = theory.GeometryContext(xstar=xs, delta=delta, t=1.0)
        for _ in range(200):
            y = sample_complex_gaussian(n, stream)
            if theory.in_C_delta(y, ctx) and not theory.in_Cprime_delta(y, ctx):
                ok = False
    checks.append(CheckResult(
        name="C_delta contained in Cprime_delta",
        passed=ok,
        observed="implication held on all samples" if ok else "counterexample found",
        required="no counterexample over 600 random vectors",
    ))

    xs = sample_complex_gaussian(n, stream)
    xs = xs / np.linalg.norm(xs)
    ctx = theory.GeometryContext(xstar=xs, delta=0.6, t=1.0)
    projector = np.eye(n) - np.outer(xs, xs.conj())
    ok_r = True
    ok_c = True
    for _ in range(500):
        h = sample_complex_gaussian(n, stream) * g.uniform(0.01, 3.0)
        overlap = np.vdot(xs, h)
        lhs = np.linalg.norm(projector @ h)
        if theory.in_R_delta(h, ctx) != (lhs >= ctx.delta * abs(overlap.imag)):
            ok_r = False
        resid = projector @ h
        rhs = -math.sqrt(1.0 - ctx.delta**2) * np.linalg.norm(resid)
        if theory.in_Cprime_delta(h, ctx) != (ctx.delta * overlap.real >= rhs):
            ok_c = False
    checks.append(CheckResult(
        name="R_delta and Cprime_delta vs explicit projector",
        passed=ok_r and ok_c,
        observed=f"R_delta agreement: {ok_r}, Cprime agreement: {ok_c}",
        required="exact agreement on 500 random directions",
    ))

    delta, t, eta_inv = 0.99, 0.1, 1e-3
    xs = sample_complex_gaussian(n, stream)
    ctx = theory.GeometryContext(xstar=xs, delta=delta, t=t, eta_inv=eta_inv)
    pmin_emp = empirical_pmin_reference(ctx, num_h=num_h, num_a=num_a, rng=stream)
    bound = theory.pmin_lower_bound(delta, t)
    se = math.sqrt(max(pmin_emp * (1.0 - pmin_emp), 1.0 / num_a) / num_a)
    ok_pmin = pmin_emp >= bound - 4.0 * se
    checks.append(CheckResult(
        name="empirical pmin dominates closed-form lower bound",
        passed=ok_pmin,
        observed=f"min estimate {pmin_emp:.3e} vs bound {bound:.3e} (se {se:.1e})",
        required=f"min over {num_h} directions >= bound - 4 standard errors",
        margin=(pmin_emp - bound) / se + 4.0,
    ))
    return checks


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


def preprocessed_weights(b, n):
    """Mondelli-Montanari's T(y) = (y - 1) / (y + sqrt(delta) - 1) of y =
    b / mean(b), delta = len(b) / n, as one expression, the denominator
    floored at the anchor's _T_FLOOR: the weights of Sigma_T, which
    spectral_anchor must use bit for bit."""
    from phasemax.anchor import _T_FLOOR

    y = b / np.mean(b)
    return (y - 1) / np.maximum(y + (np.sqrt(len(b) / n) - 1), _T_FLOOR)


def spectral_anchor_reference(ens, obs, iters, rng):
    """spectral_anchor's Lanczos iteration on Sigma_T as plain expressions,
    each step with a fresh forward and the basis kept as a list: (a0, Ritz
    value, steps), which spectral_anchor must return bit for bit."""
    from phasemax.anchor import _ANCHOR_RTOL
    from phasemax.numerics import real_inner, sample_complex_gaussian

    weights = preprocessed_weights(obs.b, ens.n)
    v = sample_complex_gaussian(ens.n, rng)
    vectors = [v / np.linalg.norm(v)]
    alpha, beta = [], []
    cap = min(iters, ens.n)
    for k in range(cap):
        w = ens.adjoint(weights * ens.forward(vectors[k])) / ens.m
        alpha.append(real_inner(vectors[k], w))
        krylov = np.array(vectors)
        for _ in range(2):
            w = w - np.conj(krylov @ w.conj()) @ krylov
        beta_k = float(np.linalg.norm(w))
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        values, eigvecs = np.linalg.eigh(t)
        theta, s = float(values[-1]), eigvecs[:, -1]
        if s[0] < 0:
            s = -s
        if beta_k * abs(s[-1]) <= _ANCHOR_RTOL * abs(theta) or k + 1 == cap:
            a0 = theta * (s @ krylov) + s[-1] * w
            return a0 / np.linalg.norm(a0), theta, k + 1
        beta.append(beta_k)
        vectors.append(w / beta_k)


def dense_gaussian_rows_reference(n, m, rng):
    """DenseEnsemble.gaussian's rows as the one expression it used to be,
    scale * (re + 1j * im), which builds three m x n complex temporaries."""
    g = rng.generator
    return np.sqrt(0.5) * (g.standard_normal((m, n)) + 1j * g.standard_normal((m, n)))


def solve_phasemax_reference(ens, obs, a0, cfg, polish=True):
    """solve_phasemax with the stop test as a plain exact check: every time
    the relative change passes, the feasibility residual is computed with a
    fresh forward. Same steps and arithmetic, and the solver's own polish
    stage at the same checkpoint, from the same (x, y), so its Solution is
    the one solve_phasemax must return bit for bit. With polish=False it is
    the loop alone."""
    from phasemax import solver
    from phasemax.measurements import operator_norm
    from phasemax.numerics import RngStream, real_inner

    a0 = np.asarray(a0, dtype=np.complex128)
    a0_norm = np.linalg.norm(a0)
    radii = np.sqrt(obs.b)
    op_norm = operator_norm(ens, solver._NORM_EST_ITERS, RngStream(solver._NORM_EST_SEED))
    # The solve starts at y = 0 and x0, the anchor rescaled to ||r|| / ||A||.
    balance = start = np.linalg.norm(radii) / (op_norm * a0_norm)
    if not 0 < balance < np.inf:
        balance, start = 1.0, 0.0
    tau = balance * solver._STEP_SCALE / op_norm
    sigma = solver._STEP_SCALE / (balance * op_norm)
    sigma_radii = sigma * radii
    radii_floor = np.maximum(sigma_radii, solver._TINY)
    tau_a0 = tau * a0
    rho = solver._RELAXATION
    n, m = ens.n, ens.m
    buf = np.empty(m)
    y_floor = solver._DUAL_FLOOR * a0_norm / op_norm
    z = np.concatenate([start * a0, np.zeros(m, dtype=np.complex128)])
    checkpoint = solver._checkpoint(ens) if polish else None
    iters_used, stop_reason, feas, certified = cfg.max_iters, "max_iters", None, None
    for k in range(cfg.max_iters):
        x, y = z[:n], z[n:]
        x_half = (tau_a0 - tau * ens.adjoint(y)) + x
        v = ens.forward(sigma * (2.0 * x_half - x)) + y
        solver._shrink_dual(v, sigma_radii, radii_floor, buf)
        g = rho * (np.concatenate([x_half, v]) - z)
        t = z + g
        step = math.sqrt(np.vdot(g[:n], g[:n]).real)
        norm_new = math.sqrt(np.vdot(t[:n], t[:n]).real)
        rel_change = step / norm_new if norm_new > 0 else step
        if rel_change <= cfg.tol_rel_change:
            feas = solver.feasibility_residual(ens, obs, t[:n])
            if feas <= cfg.tol_feas:
                iters_used, stop_reason = k + 1, "optimal"
                break
        if k + 1 == checkpoint:
            certified = solver._polish(ens, obs.b, a0, cfg.tol_feas, t[:n], t[n:], buf)
            if certified is not None:
                iters_used, stop_reason = k + 1, "certified"
                break
        z = t
        if k % solver._FLUSH_EVERY == 0:
            z[n:][np.abs(z[n:]) < y_floor] = 0.0
    x, feas = certified if stop_reason == "certified" else (t[:n].copy(), feas)
    if stop_reason == "max_iters":
        feas = solver.feasibility_residual(ens, obs, x)
    return solver.Solution(xhat=x, iters_used=iters_used, objective=real_inner(a0, x),
                           feas_residual=feas, stop_reason=stop_reason)


def lift(w):
    """A complex vector as the real one (Re w_0, Im w_0, Re w_1, ...)."""
    return np.stack([w.real, w.imag], axis=-1).ravel()


def lifted_columns(rows, x):
    """The real 2n x m matrix C whose column i is lift(a_i (a_i^H x)),
    a_i = rows[i]: A^H(mu o A x) = a0 reads C mu = lift(a0)."""
    return np.column_stack([lift(row * np.vdot(row, x)) for row in rows])


def nnls(matrix, target):
    """Lawson-Hanson non-negative least squares, min ||matrix @ mu - target||
    over mu >= 0, written plainly: each outer pass frees the bound variable
    with the largest gradient, and the inner loop steps back towards the
    previous point until the free least-squares solution is positive."""
    cols = matrix.shape[1]
    tol = 10 * np.finfo(float).eps * np.linalg.norm(matrix, 1) * max(matrix.shape)
    mu = np.zeros(cols)
    free = np.zeros(cols, dtype=bool)
    for _ in range(3 * cols):
        grad = matrix.T @ (target - matrix @ mu)
        if free.all() or np.max(grad[~free]) <= tol:
            break
        free[np.flatnonzero(~free)[np.argmax(grad[~free])]] = True
        while True:
            trial = np.zeros(cols)
            trial[free] = np.linalg.lstsq(matrix[:, free], target, rcond=None)[0]
            if np.all(trial[free] > 0):
                mu = trial
                break
            blocked = free & (trial <= 0)
            alpha = np.min(mu[blocked] / (mu[blocked] - trial[blocked]))
            mu = mu + alpha * (trial - mu)
            free &= mu > tol
            mu[~free] = 0.0
    return mu
