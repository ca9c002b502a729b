import tracemalloc

import numpy as np
import pytest

from phasemax import (
    CodedDiffractionEnsemble,
    DenseEnsemble,
    GeometryContext,
    NoiseModel,
    RngStream,
    SolverConfig,
    SweepConfig,
    check_certificate,
    feasibility_residual,
    observe,
    phase_align_error,
    real_inner,
    run_sweep,
    sample_complex_gaussian,
    solve_phasemax,
)
from phasemax import solver
from phasemax.experiments import _gaussian_instance, _run_trial
from phasemax.measurements import Observations
from phasemax.solver import _shrink_dual
from support import (
    CountingEnsemble,
    cdp_forward_reference,
    disk_project_vector,
    kkt_residual,
    small_real_instance,
    solve_phasemax_reference,
)


def shrink(y, sigma, radii):
    out = np.array(y, dtype=complex)
    sigma_radii = sigma * np.asarray(radii, dtype=float)
    _shrink_dual(out, sigma_radii, np.maximum(sigma_radii, solver._TINY), np.empty(out.shape[0]))
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
    return _gaussian_instance(n, m / n, noise or NoiseModel.none(), RngStream(seed))


def test_solver_rejects_degenerate_inputs():
    ens, obs, xs = make_instance(402)
    with pytest.raises(ValueError):
        solve_phasemax(ens, obs, np.zeros(ens.n, dtype=complex))
    with pytest.raises(ValueError):
        solve_phasemax(ens, obs, np.full(ens.n, np.nan + 0j))
    with pytest.raises(ValueError, match="operator is zero"):
        solve_phasemax(DenseEnsemble(np.zeros((ens.m, ens.n))), obs, xs)


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
    # Criterion 5's setting on 10 other seeds. With a0 = x*, the KKT oracle
    # certifies x* as the program's optimum (the deleted vertex oracle
    # returned x* on all 10 to 1.1e-13), so the solve must return x*.
    cfg = SolverConfig(max_iters=4000)
    worst = 0.0
    for seed in range(10):
        stream = RngStream(403, seed)
        g = stream.generator
        n, m = 2, 15
        xs = g.standard_normal(n)
        rows = g.standard_normal((m, n))
        b = (rows @ xs) ** 2
        rows, xs = rows.astype(complex), xs.astype(complex)
        assert kkt_residual(rows, xs, xs, b, cfg.tol_feas) <= 1e-8
        sol = solve_phasemax(DenseEnsemble(rows), Observations(b=b), xs, cfg)
        worst = max(worst, phase_align_error(sol.xhat, xs))
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
    # The step balance divides by ||a0||, so scaling a0 leaves x0 and tau a0
    # as they are and only scales sigma and the dual.
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
    sol = solve_phasemax(ens, Observations(b=np.zeros(48)), xs)
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


def no_polish(monkeypatch):
    """Leave the polish stage out of solves, for tests of the loop itself."""
    monkeypatch.setattr(solver, "_checkpoint", lambda ens: None)


def test_polish_only_where_the_gram_is_formed():
    # A dense ensemble polishes through its Gram matrix where the matrix
    # takes no more memory than the rows: M/N = 4 does and M/N = 2 does not.
    # A CDP operator forms no Gram matrix, bare or wrapped, and polishes
    # matrix-free, even at M/N = 8.
    stream = RngStream(442)
    cdp = CodedDiffractionEnsemble.rademacher(4, 8, stream)
    for ens in (cdp, CountingEnsemble(cdp)):
        assert solver._checkpoint(ens) == 20 and ens.lifted_gram is None
    dense = DenseEnsemble.gaussian(8, 32, stream)
    for ens in (dense, CountingEnsemble(dense)):
        assert solver._checkpoint(ens) == 50 and ens.lifted_gram is not None
    assert solver._checkpoint(DenseEnsemble.gaussian(8, 16, stream)) is None


# The CDP ensemble sampler, for noiseless_anchored.
CDP = CodedDiffractionEnsemble.rademacher


def cdp_rows(ens):
    """The rows a_i of a CDP operator, (A x)_i = a_i^H x, built column by
    column from the one-expression reference forward map."""
    columns = [cdp_forward_reference(ens.masks, e) for e in np.eye(ens.n, dtype=complex)]
    return np.conj(np.column_stack(columns))


REFERENCE_CASES = [
    ("noiseless", None, False), ("noiseless-stop-at-max-iters", None, True),
    ("uniform", NoiseModel.uniform(1e-2), False), ("uniform-screened", NoiseModel.uniform(1e-3), False),
]


# The history-0 cases are the plain loop's; the unprefixed ones ran the
# solver's default history of past steps, which is gone, and now run the
# same loop.
@pytest.mark.parametrize("noise, stop_at_cap, polish, cdp", [
    pytest.param(noise, stop_at_cap, polish, False, id=("polish-" if polish else "") + prefix + name)
    for polish in (False, True) for prefix in ("history-0-", "")
    for name, noise, stop_at_cap in REFERENCE_CASES] + [
    pytest.param(None, False, True, True, id="polish-cdp-noiseless")])
def test_solver_matches_exact_check_reference(noise, stop_at_cap, polish, cdp, monkeypatch):
    # The tracked A x only screens; every stop decision and the returned
    # residual come from an exact check, so the Solution is the reference's.
    # Without the polish stage the noiseless cases stop "optimal" after 268
    # iterations. With it, the reference runs the solver's stage at
    # the same checkpoints, from the same (x, y): the dense noiseless cases
    # are certified at 50, the CDP one at 20 by the matrix-free search, and
    # the noisy ones stall at 50 and run on, through the screened stop test.
    if cdp:
        ens, obs, xs, a0 = noiseless_anchored(RngStream(430), 16, 8, 0.0, CDP)
    else:
        ens, obs, xs = make_instance(430, noise=noise)
        a0 = xs / np.linalg.norm(xs)
    if not polish:
        no_polish(monkeypatch)
    cfg = SolverConfig()
    if stop_at_cap:
        # The stop falls on the last iteration, with no next forward to screen it.
        cfg = SolverConfig(max_iters=solve_phasemax_reference(ens, obs, a0, cfg, polish).iters_used)
    sol = solve_phasemax(ens, obs, a0, cfg)
    ref = solve_phasemax_reference(ens, obs, a0, cfg, polish)
    assert np.array_equal(sol.xhat, ref.xhat)
    assert (sol.iters_used, sol.objective, sol.feas_residual, sol.stop_reason) == (
        ref.iters_used, ref.objective, ref.feas_residual, ref.stop_reason)
    noiseless_stop = "certified" if polish else "optimal"
    assert sol.stop_reason == (noiseless_stop if noise is None else "max_iters")


def test_stop_test_costs_no_forward_per_iteration(monkeypatch):
    # With uniform noise the relative change passes hundreds of iterations
    # before max_iters while the slabs stay violated by about eta_inv.
    ens, obs, xs = make_instance(430, noise=NoiseModel.uniform(1e-3))
    a0 = xs / np.linalg.norm(xs)
    checks = []
    exact = solver.feasibility_residual

    def counting_residual(*args):
        checks.append(1)
        return exact(*args)

    monkeypatch.setattr(solver, "feasibility_residual", counting_residual)
    solve_phasemax_reference(ens, obs, a0, SolverConfig())
    assert len(checks) >= 100
    counted = CountingEnsemble(ens)
    # The polish stage's forwards are counted apart: it runs once, at
    # _POLISH_FIRST, not every iteration (here Gauss-Newton stalls).
    polish_forwards = []
    polish = solver._polish

    def counting_polish(*args):
        before = counted.forwards
        try:
            return polish(*args)
        finally:
            polish_forwards.append(counted.forwards - before)

    monkeypatch.setattr(solver, "_polish", counting_polish)
    # An exact check is _max_violation on a fresh forward, called with no
    # scale or buffer; the screens and the polish stage pass one or both.
    exact_checks = []
    violation = solver._max_violation

    def counting_violation(*args, **kwargs):
        exact_checks.append(len(args) == 2 and not kwargs)
        return violation(*args, **kwargs)

    monkeypatch.setattr(solver, "_max_violation", counting_violation)
    sol = solve_phasemax(counted, obs, a0)
    assert not sol.converged
    assert len(polish_forwards) == 1
    # Exact checks: the one when the relative change first passes, a screen
    # that passes (none here) and the returned residual.
    assert sum(exact_checks) <= 3
    loop_forwards = counted.forwards - sum(polish_forwards)
    assert loop_forwards <= sol.iters_used + sum(exact_checks)


def test_tracked_forward_matches_a_fresh_one(monkeypatch):
    # Every relative change passes and no exact check can, because b_0 = 0
    # keeps each iterate infeasible. A x is seeded from x_1, and the screen
    # of iteration k sees the tracked A x_{k+1}, the A x of the x that a
    # solve capped at k + 1 iterations returns, for k = 1 .. 7.
    ens, obs, xs = make_instance(431)
    b = obs.b.copy()
    b[0] = 0.0
    obs = Observations(b=b)
    a0 = xs / np.linalg.norm(xs)

    def cfg(iters):
        return SolverConfig(max_iters=iters, tol_rel_change=1e300, tol_feas=1e-300)

    fresh = [ens.forward(solve_phasemax(ens, obs, a0, cfg(k)).xhat) for k in range(2, 9)]
    tracked = []
    exact = solver._max_violation

    def recording(ax, b, scale=1.0, out=None):
        if scale != 1.0:
            tracked.append(ax / scale)
        return exact(ax, b, scale, out)

    monkeypatch.setattr(solver, "_max_violation", recording)
    assert not solve_phasemax(ens, obs, a0, cfg(8)).converged
    assert len(tracked) == len(fresh)
    for ax, ref in zip(tracked, fresh):
        assert np.linalg.norm(ax - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("operator, tol_rel_change, bound", [
    ("cdp", 1e-9, 5.0), ("cdp", 1e300, 6.0), ("dense", 1e-9, 6.0), ("dense", 1e300, 7.0),
    ("cdp-polished", 1e-9, 7.5)],
    ids=["cdp-unseeded", "cdp-seeded", "dense-unseeded", "dense-seeded", "cdp-polished"])
def test_solve_keeps_its_memory(operator, tol_rel_change, bound, monkeypatch):
    # A solve holds y, the shrink's scratch, each step's m-sized temporaries
    # and, once a relative change has passed (seeded), the tracked sigma A x:
    # on CDP, peaks of 4.27 and 5.27 complex m-vectors. A loop that kept a
    # row of T(z) and carried sigma A x from the start peaked at 6.83. The
    # dense solve (n = 128, M/N = 12) stops before _POLISH_FIRST, so it forms
    # no Gram matrix: 5.04 and 6.05, where a ten-step history of (x, y,
    # sigma A x) and of the steps peaked at 44.7; its ||A|| was computed
    # when the ensemble was built. These four run without the polish stage.
    # The polished CDP solve is certified at _POLISH_EARLY, after a
    # four-step search: 7.18, where a stage with a real m-vector of its own
    # in place of the loop's buf peaked at 7.68.
    n, iters = (1024, 60) if operator.startswith("cdp") else (128, 40)
    stream = RngStream(435)
    xs = sample_complex_gaussian(n, stream)
    if operator.startswith("cdp"):
        ens = CodedDiffractionEnsemble.rademacher(n, 20, stream)
    else:
        ens = DenseEnsemble.gaussian(n, 12 * n, stream)
        assert iters < solver._POLISH_FIRST
    obs = observe(ens, xs, NoiseModel.none(), stream)
    a0 = xs + 0.5 * sample_complex_gaussian(n, stream)
    if operator == "cdp-polished":
        cfg = SolverConfig(max_iters=iters)
    else:
        no_polish(monkeypatch)
        cfg = SolverConfig(max_iters=iters, tol_rel_change=tol_rel_change, tol_feas=1e-300)
    tracemalloc.start()
    try:
        sol = solve_phasemax(ens, obs, a0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if operator == "cdp-polished":
        assert (sol.stop_reason, sol.iters_used) == ("certified", solver._POLISH_EARLY)
    else:
        assert sol.iters_used == iters
    assert peak <= bound * 16 * ens.m


def test_plain_loop_flushes_subnormal_duals():
    # The duals of inactive slabs shrink by rho - 1 = 0.7 a step and would go
    # subnormal after about 2,000 steps, where arithmetic is many times
    # slower; a noisy solve runs to max_iters with many such slabs.
    ens, obs, xs = make_instance(434, noise=NoiseModel.uniform(1e-2))
    counted = CountingEnsemble(ens)
    sol = solve_phasemax(counted, obs, xs / np.linalg.norm(xs), SolverConfig(max_iters=3000))
    assert not sol.converged
    assert counted.subnormal_inputs == 0


def test_unit_relaxation_is_the_chambolle_pock_step(monkeypatch):
    # With rho = 1 the iterates are those of the plain
    # dual-first loop y <- shrink(y + sigma A xbar), x <- x + tau a0 - tau A^H y,
    # xbar <- 2 x_new - x, up to rounding. The solver starts at y = 0 and
    # x0 = c a0; from x = x0 and xbar = 0 the loop's first dual step,
    # shrink(0) = 0, leaves y at the solver's start, and its first primal step
    # is the solver's.
    ens, obs, xs = make_instance(432)
    a0 = xs / np.linalg.norm(xs)
    monkeypatch.setattr(solver, "_RELAXATION", 1.0)
    no_polish(monkeypatch)
    iters = 60
    sol = solve_phasemax(ens, obs, a0, SolverConfig(max_iters=iters, tol_rel_change=1e-300))
    radii = np.sqrt(obs.b)
    op_norm = ens.norm
    c = np.linalg.norm(radii) / op_norm
    tau, sigma = c * solver._STEP_SCALE / op_norm, solver._STEP_SCALE / (c * op_norm)
    x = c * a0
    xbar, y = np.zeros(ens.n, dtype=complex), np.zeros(ens.m, dtype=complex)
    for _ in range(iters):
        y = shrink(y + sigma * ens.forward(xbar), sigma, radii)
        x_new = x + tau * a0 - tau * ens.adjoint(y)
        xbar, x = 2 * x_new - x, x_new
    assert np.linalg.norm(sol.xhat - x) <= 1e-12 * np.linalg.norm(x)


HELD_OUT_TRIALS = pytest.mark.parametrize("ratio, t", [(8.0, 0), (8.0, 1), (12.0, 0), (12.0, 1)])


def held_out_trial(ratio, t):
    return _run_trial(SweepConfig(n=128, ratios=(ratio,), trials=1, seed=7), ratio,
                      int(100 * ratio) + t, t)


@HELD_OUT_TRIALS
def test_relaxation_shortens_noiseless_iterations(ratio, t, monkeypatch):
    # Held-out trials RngStream(7, 100 ratio + t) took 1244-1306 iterations
    # without relaxation from x = 0; at 1.7 they take 550-630 from the
    # rescaled anchor. The polish stage would certify them at 50
    # (test_held_out_trials_are_certified).
    no_polish(monkeypatch)
    record = held_out_trial(ratio, t)
    assert record.converged
    assert record.iters <= 800
    assert record.rel_error <= 1e-6


@HELD_OUT_TRIALS
def test_held_out_trials_are_certified(ratio, t):
    # The polish stage ends the same trials at the first checkpoint, with an
    # error the loop alone reaches, 1.3e-12 - 3.1e-12, only after 550-630
    # iterations.
    record = held_out_trial(ratio, t)
    assert record.stop_reason == "certified"
    assert record.iters == solver._POLISH_FIRST
    assert record.rel_error <= 1e-13


def test_noisy_solves_stay_accurate():
    # Noisy solves run to max_iters. The sweep trial ends at 4.3e-7 error
    # and the small instance at 1.0e-5.
    [record] = run_sweep(SweepConfig(n=128, ratios=(12.0,), trials=1, seed=3,
                                     noise=NoiseModel.uniform(1e-4),
                                     solver=SolverConfig(max_iters=800)))
    assert record.rel_error <= 1e-6
    ens, obs, xs = make_instance(478, n=32, m=256, noise=NoiseModel.uniform(1e-3))
    sol = solve_phasemax(ens, obs, xs / np.linalg.norm(xs))
    assert not sol.converged
    assert phase_align_error(sol.xhat, xs) <= 1e-4


def test_hard_sweep_trial_stays_accurate():
    # Gauss-sweep call seed 3,000,010 at M/N = 8. Without relaxation it ends
    # at 1.2e-7 error at max_iters, and every fixed primal weight from 1.25
    # to 3 leaves it above 1e-6 (7.2e-5 at 2.5). At relaxation 1.7 it ran
    # to max_iters, 2000, at 5.8e-11 from x = 0. From the rescaled b-weighted
    # anchor it converged in 1,396 iterations, at 4.5e-12, because the
    # crossover found no certificate; from the preprocessed anchor the
    # crossover certifies it at 50, at 1.0e-14.
    [record] = run_sweep(SweepConfig(n=128, ratios=(8.0,), trials=1, seed=3_000_010))
    assert record.converged
    assert record.stop_reason == "certified"
    assert record.rel_error <= 1e-9


def noiseless_anchored(stream, n, m, spread, sample=DenseEnsemble.gaussian):
    """A noiseless instance and an anchor xs / ||xs|| + spread g / sqrt(n),
    g complex Gaussian: the larger spread, the more often the relaxation is
    not tight. sample(n, m, stream) draws the ensemble: m dense rows, or
    with CodedDiffractionEnsemble.rademacher m masks."""
    xs = sample_complex_gaussian(n, stream)
    ens = sample(n, m, stream)
    obs = observe(ens, xs, NoiseModel.none(), stream)
    a0 = xs / np.linalg.norm(xs) + spread * sample_complex_gaussian(n, stream) / np.sqrt(n)
    return ens, obs, xs, a0


def test_certified_solutions_pass_the_nnls_oracle():
    # The certificate search is Douglas-Rachford; the oracle is Lawson-Hanson
    # on the same condition, A^H(mu o A xhat) = a0 with mu >= 0 on the active
    # slabs, built from the rows by plain expressions. 17 of the 24 are
    # certified; the anchors are poor enough that the relaxation is not tight
    # on some of the others, where a search that accepted mu of any sign
    # certified all 24 and the oracle rejected 7.
    cfg = SolverConfig()
    certified = 0
    for seed in range(24):
        ens, obs, xs, a0 = noiseless_anchored(RngStream(441, seed), 12, 96, 1.0)
        sol = solve_phasemax(ens, obs, a0, cfg)
        if sol.stop_reason != "certified":
            continue
        certified += 1
        assert kkt_residual(ens.rows, sol.xhat, a0, obs.b, cfg.tol_feas) <= 1e-8
        assert sol.feas_residual <= cfg.tol_feas
        assert sol.feas_residual == feasibility_residual(ens, obs, sol.xhat)
        assert sol.iters_used == solver._POLISH_FIRST
        assert phase_align_error(sol.xhat, xs) <= 1e-12
    assert certified >= 15


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_uncertified_solve_is_the_loop_without_polish(seed, monkeypatch):
    # Where the relaxation is not tight, Gauss-Newton still reaches x*, but
    # no certificate exists (the NNLS oracle leaves a residual at x*), the
    # search runs all its steps, and the solve goes on as if it had not run.
    ens, obs, xs, a0 = noiseless_anchored(RngStream(440, seed), 6, 36, 1.0)
    xs_aligned = xs * np.exp(1j * np.angle(np.vdot(xs, a0)))
    cfg = SolverConfig(max_iters=150)
    assert kkt_residual(ens.rows, xs_aligned, a0, obs.b, cfg.tol_feas) > 1e-3
    searches = []
    search = solver._certificate

    def recording(*args):
        searches.append(search(*args))
        return searches[-1]

    monkeypatch.setattr(solver, "_certificate", recording)
    sol = solve_phasemax(ens, obs, a0, cfg)
    assert [(found is None, steps) for found, steps in searches] == [(True, solver._CERT_STEPS)]
    ref = solve_phasemax_reference(ens, obs, a0, cfg, polish=False)
    assert sol.stop_reason == ref.stop_reason == "max_iters"
    assert np.array_equal(sol.xhat, ref.xhat)
    assert (sol.iters_used, sol.objective, sol.feas_residual) == (
        ref.iters_used, ref.objective, ref.feas_residual)


def test_certified_cdp_solutions_pass_the_nnls_oracle():
    # The matrix-free search on CDP operators, checked by the same oracle on
    # explicit rows built from the reference forward map. At n = 16, L = 8
    # and anchor spread 0.75, 11 of the 16 are certified at iteration 20, in
    # searches of 1-7 steps (test_cdp_search_past_200_calls_certifies_at_20
    # pins the two longest). On some of the others the relaxation is not
    # tight, and the oracle rejected a search that accepted mu of any sign.
    cfg = SolverConfig(max_iters=150)
    certified = 0
    for seed in range(16):
        ens, obs, xs, a0 = noiseless_anchored(RngStream(450, seed), 16, 8, 0.75, CDP)
        sol = solve_phasemax(ens, obs, a0, cfg)
        if sol.stop_reason != "certified":
            continue
        certified += 1
        assert kkt_residual(cdp_rows(ens), sol.xhat, a0, obs.b, cfg.tol_feas) <= 1e-8
        assert sol.feas_residual <= cfg.tol_feas
        assert sol.feas_residual == feasibility_residual(ens, obs, sol.xhat)
        assert sol.iters_used == solver._POLISH_EARLY
        assert phase_align_error(sol.xhat, xs) <= 1e-12
    assert certified >= 10


@pytest.mark.parametrize("seed", [5, 12])
def test_cdp_search_past_200_calls_certifies_at_20(seed, monkeypatch):
    # Gauss-Newton reaches x* at the matrix-free checkpoint, and one search
    # from that iteration's dual certifies it, in 240 and 256 kernel calls:
    # a cap of 200 left both uncertified at 20.
    ens, obs, xs, a0 = noiseless_anchored(RngStream(450, seed), 16, 8, 0.75, CDP)
    counted = CountingEnsemble(ens)
    stages = []
    for name in ("_gauss_newton", "_certificate"):
        def recording(*args, stage=getattr(solver, name), name=name):
            before = counted.forwards + counted.adjoints
            found = stage(*args)
            point = found if name == "_gauss_newton" else found[0]
            stages.append((name, point is not None, counted.forwards + counted.adjoints - before))
            return found
        monkeypatch.setattr(solver, name, recording)
    cfg = SolverConfig(max_iters=150)
    sol = solve_phasemax(counted, obs, a0, cfg)
    assert [stage[:2] for stage in stages] == [("_gauss_newton", True), ("_certificate", True)]
    assert 200 < stages[1][2] <= solver._CERT_CALLS
    assert (sol.stop_reason, sol.iters_used) == ("certified", solver._POLISH_EARLY)
    assert kkt_residual(cdp_rows(ens), sol.xhat, a0, obs.b, cfg.tol_feas) <= 1e-8
    assert sol.feas_residual <= cfg.tol_feas
    assert phase_align_error(sol.xhat, xs) <= 1e-12


def test_cdp_solve_is_certified_at_20():
    # A polished n = 1024, L = 20 CDP solve ends at the first checkpoint: 40
    # loop calls (CDP takes its exact norm), 67 in Gauss-Newton and 89 in
    # the forward and search that certify the point, 196 in all. With one
    # checkpoint at 50 it took 250, 100 of them in the loop.
    ens, obs, xs, a0 = noiseless_anchored(RngStream(435), 1024, 20, 0.5, CDP)
    counted = CountingEnsemble(ens)
    sol = solve_phasemax(counted, obs, a0, SolverConfig(max_iters=175))
    assert (sol.stop_reason, sol.iters_used) == ("certified", solver._POLISH_EARLY)
    assert counted.forwards + counted.adjoints <= 200
    assert phase_align_error(sol.xhat, xs) <= 1e-13


@pytest.mark.parametrize("seed", [0, 3, 10])
def test_uncertified_cdp_solve_is_the_loop_without_polish(seed, monkeypatch):
    # The CDP counterpart: at anchor spread 1.0 these relaxations are not
    # tight (the oracle leaves a residual at x*), Gauss-Newton reaches x* at
    # 20, and the matrix-free search stops at its cap of kernel calls there;
    # the solve then goes on as if the stage had not run.
    ens, obs, xs, a0 = noiseless_anchored(RngStream(450, seed), 16, 8, 1.0, CDP)
    xs_aligned = xs * np.exp(1j * np.angle(np.vdot(xs, a0)))
    cfg = SolverConfig(max_iters=150)
    assert kkt_residual(cdp_rows(ens), xs_aligned, a0, obs.b, cfg.tol_feas) > 1e-3
    counted = CountingEnsemble(ens)
    searches = []
    search = solver._certificate

    def recording(*args):
        before = counted.forwards + counted.adjoints
        found = search(*args)
        searches.append((found[0] is None, counted.forwards + counted.adjoints - before))
        return found

    monkeypatch.setattr(solver, "_certificate", recording)
    sol = solve_phasemax(counted, obs, a0, cfg)
    [(missed, calls)] = searches
    assert missed and solver._CERT_CALLS - 4 <= calls <= solver._CERT_CALLS
    ref = solve_phasemax_reference(ens, obs, a0, cfg, polish=False)
    assert sol.stop_reason == ref.stop_reason == "max_iters"
    assert np.array_equal(sol.xhat, ref.xhat)
    assert (sol.iters_used, sol.objective, sol.feas_residual) == (
        ref.iters_used, ref.objective, ref.feas_residual)


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


def test_kkt_oracle_accepts_the_truth_and_rejects_rotated_points():
    # Without the solver: on criterion 5's instances, a0 = x* makes x* the
    # optimum (residual at most 8.7e-16), and x* rotated by 0.3 rad and
    # scaled radially onto the slabs is feasible with a lower objective, so
    # not optimal (residual at least 0.79).
    slack = SolverConfig().tol_feas
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    for trial in range(50):
        rows, b, xs = small_real_instance(trial)
        assert kkt_residual(rows, xs, xs, b, slack) <= 1e-8
        x = turn @ xs
        x *= np.min(np.sqrt(b) / np.abs(rows.conj() @ x))
        assert np.max(np.abs(rows.conj() @ x) ** 2 - b) <= slack
        assert real_inner(xs, x) < real_inner(xs, xs)
        assert kkt_residual(rows, x, xs, b, slack) > 1e-3


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol_feas=0.0)
    for name in ("tol_rel_change", "tol_feas"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SolverConfig(**{name: bad})
