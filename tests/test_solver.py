import numpy as np
import pytest

from phasemax import (
    DenseEnsemble,
    GeometryContext,
    NoiseModel,
    RngStream,
    SolverConfig,
    check_certificate,
    feasibility_residual,
    observe,
    phase_align_error,
    real_inner,
    sample_complex_gaussian,
    solve_phasemax,
)
from phasemax.measurements import Observations
from phasemax.solver import _shrink_dual
from support import disk_project_vector, oracle_solve_small


def shrink(y, sigma, radii):
    out = np.array(y, dtype=complex)
    _shrink_dual(out, sigma * np.asarray(radii, dtype=float), np.empty(out.shape[0]))
    return out


def test_shrink_dual_inside_disk_gives_zero():
    # |y / sigma| <= r: the projection leaves y / sigma unchanged, so the
    # shrink y - sigma P(y / sigma) is 0.
    assert shrink(np.array([0.3 + 0.2j]), 2.0, [1.0])[0] == 0.0


def test_shrink_dual_radial_soft_threshold():
    theta, r, sigma = 0.9, 1.7, 0.4
    y = np.array([3 * sigma * r * np.exp(1j * theta)])
    out = shrink(y, sigma, [r])[0]
    assert abs(out) == pytest.approx(2 * sigma * r, abs=1e-14)
    assert np.angle(out) == pytest.approx(theta, abs=1e-14)


def test_shrink_dual_matches_moreau_oracle():
    rng = RngStream(401).generator
    y, r = np.empty(200, dtype=complex), np.empty(200)
    for i in range(200):
        y[i] = rng.standard_normal() + 1j * rng.standard_normal()
        r[i] = abs(rng.standard_normal())
    # Zero radius, zero entry, and both at once.
    y[:3] = [1.0 + 1.0j, 0.0, 0.0]
    r[:3] = [0.0, 0.5, 0.0]
    for sigma in (1.0, 0.37, 5.0):
        expected = y - sigma * disk_project_vector(y / sigma, r)
        out = shrink(y, sigma, r)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - expected)) <= 1e-14 * max(1.0, sigma)
        # Polar form: the modulus is soft-thresholded by sigma r_i.
        assert np.allclose(np.abs(out), np.maximum(np.abs(y) - sigma * r, 0.0),
                           rtol=0, atol=1e-14 * max(1.0, sigma))
        assert out[0] == y[0] and out[1] == 0.0 and out[2] == 0.0


def make_instance(seed, n=8, m=64, noise=None):
    stream = RngStream(seed)
    xs = sample_complex_gaussian(n, stream)
    ens = DenseEnsemble.gaussian(n, m, stream)
    obs = observe(ens, xs, noise or NoiseModel.none(), stream)
    return ens, obs, xs


def test_solver_rejects_degenerate_inputs():
    ens, obs, xs = make_instance(402)
    with pytest.raises(ValueError):
        solve_phasemax(ens, obs, np.zeros(ens.n, dtype=complex))
    with pytest.raises(ValueError):
        solve_phasemax(ens, obs, np.full(ens.n, np.nan + 0j))


@pytest.mark.parametrize("bad", ["nan", "length"])
@pytest.mark.parametrize(
    "entry", ["observe", "feasibility_residual", "check_certificate", "solve_phasemax"]
)
def test_entry_points_reject_bad_vectors(entry, bad):
    # The operator kernels do not validate, so each entry point must.
    ens, obs, xs = make_instance(417)
    if bad == "length":
        v = np.append(xs, 1.0)
    else:
        v = xs.copy()
        v[1] = np.nan
    calls = {
        "observe": lambda: observe(ens, v, NoiseModel.none(), RngStream(418)),
        "feasibility_residual": lambda: feasibility_residual(ens, obs, v),
        "check_certificate": lambda: check_certificate(
            v, xs, ens, GeometryContext(xstar=xs, delta=0.5, t=1.0)),
        "solve_phasemax": lambda: solve_phasemax(ens, obs, v),
    }
    with pytest.raises(ValueError):
        calls[entry]()


def test_zero_constraints_rejected():
    with pytest.raises(ValueError):
        DenseEnsemble(np.empty((0, 4)))


def test_solver_matches_small_oracle():
    worst = 0.0
    for seed in range(10):
        stream = RngStream(403, seed)
        g = stream.generator
        n, m = 2, 15
        xs = g.standard_normal(n)
        rows = g.standard_normal((m, n))
        b = (rows @ xs) ** 2
        obs = Observations(b=b, noise=NoiseModel.none())
        ens = DenseEnsemble(rows.astype(complex))
        sol = solve_phasemax(ens, obs, xs.astype(complex), SolverConfig(max_iters=4000))
        x_oracle = oracle_solve_small(rows, b, xs)
        worst = max(worst, phase_align_error(sol.xhat, x_oracle.astype(complex)))
    assert worst <= 1e-4


def test_solution_accuracy_dense_gaussian():
    ens, obs, xs = make_instance(404, n=32, m=320)
    from phasemax import spectral_anchor

    anchor = spectral_anchor(ens, obs, 50, RngStream(405))
    sol = solve_phasemax(ens, obs, anchor.a0)
    assert phase_align_error(sol.xhat, xs) <= 1e-3


def test_converged_flag_implies_feasibility_within_tol():
    ens, obs, xs = make_instance(406, n=6, m=48)
    cfg = SolverConfig(max_iters=50_000, tol_rel_change=1e-12, tol_feas=1e-8)
    sol = solve_phasemax(ens, obs, xs, cfg)
    assert sol.converged
    assert sol.iters_used <= cfg.max_iters
    assert sol.feas_residual <= cfg.tol_feas


def test_objective_dominance_over_feasible_truth():
    for seed in (407, 408, 409):
        ens, obs, xs = make_instance(seed, n=8, m=80)
        a0 = xs / np.linalg.norm(xs)
        cfg = SolverConfig()
        sol = solve_phasemax(ens, obs, a0, cfg)
        eps = cfg.tol_feas * ens.m + cfg.tol_rel_change * np.linalg.norm(a0)
        assert sol.objective >= real_inner(a0, xs) - eps


def test_anchor_phase_equivariance():
    ens, obs, xs = make_instance(410, n=10, m=100)
    a0 = xs / np.linalg.norm(xs)
    err1 = phase_align_error(solve_phasemax(ens, obs, a0).xhat, xs)
    err2 = phase_align_error(solve_phasemax(ens, obs, np.exp(0.71j) * a0).xhat, xs)
    assert err1 == pytest.approx(err2, abs=1e-6)


def test_iterates_invariant_to_anchor_scale():
    # The step balance divides by ||a0||, so scaling a0 only scales the dual.
    ens, obs, xs = make_instance(419)
    a0 = xs / np.linalg.norm(xs)
    ref = solve_phasemax(ens, obs, a0)
    for t in (0.2, 5.0):
        sol = solve_phasemax(ens, obs, t * a0)
        assert sol.iters_used == ref.iters_used
        assert np.linalg.norm(sol.xhat - ref.xhat) <= 1e-12 * np.linalg.norm(ref.xhat)


def test_all_zero_observations_give_zero():
    # b = 0 leaves the step balance without a scale; it falls back to 1.
    ens, _, xs = make_instance(420, n=6, m=48)
    sol = solve_phasemax(ens, Observations(b=np.zeros(48), noise=NoiseModel.none()), xs)
    assert np.all(np.isfinite(sol.xhat))
    assert np.linalg.norm(sol.xhat) <= 1e-12
    assert sol.feas_residual <= 1e-20


def test_solution_real_alignment_with_anchor():
    ens, obs, xs = make_instance(411, n=6, m=60)
    a0 = xs / np.linalg.norm(xs)
    sol = solve_phasemax(ens, obs, a0, SolverConfig(max_iters=20_000, tol_feas=1e-10))
    imag_part = abs(np.vdot(a0, sol.xhat).imag)
    assert imag_part <= 1e-6 * np.linalg.norm(a0) * np.linalg.norm(sol.xhat)


def test_solver_determinism():
    ens, obs, xs = make_instance(412)
    a0 = xs / np.linalg.norm(xs)
    s1 = solve_phasemax(ens, obs, a0)
    s2 = solve_phasemax(ens, obs, a0)
    assert np.array_equal(s1.xhat, s2.xhat)
    assert s1.iters_used == s2.iters_used
    assert s1.objective == s2.objective
    assert s1.feas_residual == s2.feas_residual
    assert s1.converged == s2.converged


def test_feasibility_residual_truth_is_feasible_under_nonneg_noise():
    ens, obs, xs = make_instance(413, noise=NoiseModel.uniform(0.2))
    assert feasibility_residual(ens, obs, xs) == 0.0


def test_feasibility_residual_scaled_truth_violates():
    ens, obs, xs = make_instance(414)
    assert feasibility_residual(ens, obs, 2 * xs) > 0.0


def test_feasibility_residual_elementwise_oracle():
    ens, obs, xs = make_instance(415)
    stream = RngStream(416)
    x = sample_complex_gaussian(ens.n, stream)
    fwd = ens.forward(x)
    expected = 0.0
    for i in range(ens.m):
        expected = max(expected, abs(fwd[i]) ** 2 - obs.b[i])
    expected = max(expected, 0.0)
    assert feasibility_residual(ens, obs, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_oracle_interval_endpoint():
    x = oracle_solve_small(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))
    assert x == pytest.approx(np.array([1.0]), abs=1e-12)


def test_oracle_box_corner():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0])
    a0 = np.array([1.0, 1.0]) / np.sqrt(2)
    x = oracle_solve_small(rows, b, a0)
    assert x == pytest.approx(np.array([1.0, 1.0]), abs=1e-12)


def test_oracle_vertex_and_grid_modes_agree():
    # Generic random polytopes: noiseless-measurement b would make the truth a
    # fully degenerate vertex, which only the exact vertex mode resolves.
    for seed in range(10):
        g = RngStream(417, seed).generator
        rows = g.standard_normal((8, 2))
        b = g.uniform(0.3, 2.0, 8)
        a0 = g.standard_normal(2)
        xv = oracle_solve_small(rows, b, a0, method="vertex")
        xg = oracle_solve_small(rows, b, a0, grid_points=2001, method="grid")
        assert a0 @ xv == pytest.approx(a0 @ xg, abs=1e-3 * max(1.0, abs(a0 @ xv)))
        assert a0 @ xv >= a0 @ xg - 1e-9  # vertex mode is at least as good


def test_oracle_rejects_rank_deficiency_and_big_n():
    with pytest.raises(ValueError):
        oracle_solve_small(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]),
                           np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        oracle_solve_small(np.eye(4), np.ones(4), np.ones(4))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol_feas=0.0)
