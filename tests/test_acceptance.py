"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The phase-transition and
noise sweeps dominate the runtime (a few minutes total).
"""

import math

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
    empirical_pmin,
    observe,
    operator_norm,
    phase_align_error,
    pmin_lower_bound,
    rayleigh_normal_cdf,
    run_cdp_demo,
    run_sweep,
    sample_complex_gaussian,
    sample_complexity,
    sauer_bound,
    sauer_bound_loose,
    solve_phasemax,
    vc_deviation_bound,
)
from phasemax.experiments import ratio_summary
from phasemax.measurements import Observations
from phasemax.pgm import write_pgm
from support import oracle_solve_small, strip_runtime

SEED = 20260809


def report_line(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


def transition_config(out_path):
    return SweepConfig(
        n=128,
        ratios=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0),
        trials=20,
        noise=NoiseModel.none(),
        anchor_iters=50,
        solver=SolverConfig(),
        seed=SEED,
        out_path=str(out_path),
    )


@pytest.fixture(scope="session")
def transition_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "transition.csv"
    records = run_sweep(transition_config(out))
    return records, out


@pytest.fixture(scope="session")
def cdp_image(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "gradient64.pgm"
    img = np.add.outer(np.linspace(5, 250, 64), np.linspace(0, 30, 64))
    write_pgm(path, img)
    return path


@pytest.fixture(scope="session")
def cdp_run(cdp_image, tmp_path_factory):
    prefix = tmp_path_factory.mktemp("acceptance") / "cdp_a"
    return run_cdp_demo(cdp_image, num_masks=20, seed=SEED, out_prefix=str(prefix))


def test_criterion_1_phase_transition(transition_sweep):
    records, _ = transition_sweep
    medians = {ratio: med for ratio, med, _ in ratio_summary(records)}
    ok_high = medians[10.0] <= 1e-3 and medians[12.0] <= 1e-3
    ok_low = medians[2.0] >= 0.3
    passed = ok_high and ok_low
    report_line(1, passed,
                f"median rel_error at M/N=10: {medians[10.0]:.2e}, "
                f"at 12: {medians[12.0]:.2e} (need <= 1e-3); "
                f"at 2: {medians[2.0]:.2f} (need >= 0.3)")
    assert passed
    # Monotone medians across the transition, allowing one adjacent inversion.
    meds = [medians[r] for r in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)]
    inversions = sum(1 for a, b in zip(meds, meds[1:]) if b > a)
    assert inversions <= 1


def test_criterion_2_noise_scaling(tmp_path):
    medians = {}
    for eta_inv in (1e-4, 1e-2):
        cfg = SweepConfig(
            n=128, ratios=(12.0,), trials=20,
            noise=NoiseModel.uniform(eta_inv),
            anchor_iters=50, solver=SolverConfig(), seed=SEED,
        )
        records = run_sweep(cfg)
        medians[eta_inv] = float(np.median([r.rel_error for r in records]))
    monotone = medians[1e-4] <= medians[1e-2]
    bounded = all(medians[e] <= 10 * e for e in medians)
    passed = monotone and bounded
    report_line(2, passed,
                f"median rel_error {medians[1e-4]:.2e} at eta_inv=1e-4, "
                f"{medians[1e-2]:.2e} at 1e-2 (need monotone and <= 10*eta_inv)")
    assert passed


def test_criterion_3_closed_form_grid():
    draws = 1_000_000
    g = RngStream(SEED, 3).generator
    v = g.rayleigh(1.0, draws)
    gauss = g.standard_normal(draws)
    worst = 0.0
    for alpha in (-2.0, -0.5, 0.0, 0.5, 2.0):
        for beta in (-1.0, -0.1, 0.0, 0.1, 1.0):
            p = rayleigh_normal_cdf(alpha, beta)
            emp = float(np.mean(alpha * v + beta / v > gauss))
            se = math.sqrt(max(p * (1 - p), 1e-12) / draws)
            worst = max(worst, abs(p - emp) / se)
    gap = max(abs(rayleigh_normal_cdf(a, 0.0) - rayleigh_normal_cdf(a, -1e-300))
              for a in np.linspace(-10, 10, 201))
    passed = worst <= 4.0 and gap <= 1e-12
    report_line(3, passed,
                f"worst grid deviation {worst:.2f} standard errors (need <= 4); "
                f"branch gap {gap:.1e} (need <= 1e-12)")
    assert passed


def test_criterion_4_lemma3_empirical_bound():
    xs = sample_complex_gaussian(8, RngStream(SEED, 4))
    ctx = GeometryContext(xstar=xs, delta=0.9, t=10.0, eta_inv=1e-3)
    num_a = 100_000
    est_min = empirical_pmin(ctx, num_h=200, num_a=num_a, rng=RngStream(SEED, 5))
    bound = pmin_lower_bound(0.9, 10.0)
    # p_hat + 4*SE(p_hat) is increasing in p_hat, so if the smallest estimate
    # clears the bound every sampled direction does.
    se = math.sqrt(max(est_min * (1 - est_min), 1.0 / num_a) / num_a)
    passed = est_min >= bound - 4 * se
    report_line(4, passed,
                f"smallest of 200 cut-probability estimates {est_min:.3e} vs "
                f"closed-form bound {bound:.3e} - 4se ({se:.1e})")
    assert passed


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for trial in range(50):
        g = RngStream(SEED, 100 + trial).generator
        n, m = 2, 15
        xs = g.standard_normal(n)
        rows = g.standard_normal((m, n))
        b = (rows @ xs) ** 2
        ens = DenseEnsemble(rows.astype(complex))
        obs = Observations(b=b, noise=NoiseModel.none())
        sol = solve_phasemax(ens, obs, xs.astype(complex), SolverConfig())
        x_oracle = oracle_solve_small(rows, b, xs)
        worst = max(worst, phase_align_error(sol.xhat, x_oracle.astype(complex)))
    passed = worst <= 1e-4
    report_line(5, passed, f"worst solver-vs-oracle error {worst:.2e} over 50 seeds "
                           f"(need <= 1e-4)")
    assert passed


def test_criterion_6_adjoint_and_operator_norm():
    stream = RngStream(SEED, 6)
    dense = DenseEnsemble.gaussian(16, 64, stream)
    cdp = CodedDiffractionEnsemble.rademacher(16, 4, stream)
    worst_rel = 0.0
    for ens in (dense, cdp):
        for _ in range(100):
            x = sample_complex_gaussian(ens.n, stream)
            z = sample_complex_gaussian(ens.m, stream)
            lhs = np.vdot(ens.forward(x), z)
            rhs = np.vdot(x, ens.adjoint(z))
            worst_rel = max(worst_rel, abs(lhs - rhs) / (1.0 + abs(lhs)))
    norm_err = abs(operator_norm(cdp, 10, RngStream(SEED, 7)) - 2.0)
    passed = worst_rel <= 1e-10 and norm_err <= 1e-6
    report_line(6, passed,
                f"worst adjoint mismatch {worst_rel:.2e} (need <= 1e-10); "
                f"CDP norm error {norm_err:.2e} vs sqrt(L) (need <= 1e-6)")
    assert passed


def test_criterion_7_cdp_demo(cdp_run):
    passed = cdp_run.rel_error <= 1e-4
    report_line(7, passed,
                f"64x64 image, L=20: rel_error {cdp_run.rel_error:.2e} in "
                f"{cdp_run.iters_used} iterations (need <= 1e-4)")
    assert passed


def test_criterion_8_sample_complexity_arithmetic():
    ok = True
    for p in (0.01, 0.05, 0.3):
        for n_dim in (10, 500):
            for eps in (0.1, 0.01):
                m = sample_complexity(p, n_dim, eps)
                lhs = (16 * n_dim * math.log(math.e * m / (2 * n_dim))
                       + 8 * math.log(8 / eps)) / m
                ok = ok and lhs < p * p
    ok = ok and sauer_bound(4, 2) == 11
    for n in range(4, 65, 4):
        for d in range(2, 9):
            if n > d:
                ok = ok and sauer_bound(n, d) <= sauer_bound_loose(n, d)
    ok = ok and vc_deviation_bound(10, 7.0, 0.0) == pytest.approx(56.0, rel=1e-14)
    report_line(8, ok, "proof inequality and shatter/deviation grids all hold exactly")
    assert ok


def test_criterion_9_determinism(transition_sweep, cdp_image, cdp_run, tmp_path):
    _, csv_a = transition_sweep
    csv_b = tmp_path / "transition_repeat.csv"
    run_sweep(transition_config(csv_b))
    # runtime_ms is wall-clock measurement, not computational output; every
    # semantic column must match bitwise.
    sweeps_match = strip_runtime(csv_a.read_text()) == strip_runtime(csv_b.read_text())

    repeat = run_cdp_demo(cdp_image, num_masks=20, seed=SEED,
                          out_prefix=str(tmp_path / "cdp_b"))
    cdp_match = True
    for a_path, b_path in (
        (cdp_run.recovered_pgm, repeat.recovered_pgm),
        (cdp_run.recovered_f64, repeat.recovered_f64),
        (cdp_run.report_path, repeat.report_path),
    ):
        with open(a_path, "rb") as fa, open(b_path, "rb") as fb:
            cdp_match = cdp_match and fa.read() == fb.read()
    cdp_match = cdp_match and repeat.rel_error == cdp_run.rel_error

    passed = sweeps_match and cdp_match
    report_line(9, passed,
                f"sweep CSV identical (runtime column excluded): {sweeps_match}; "
                f"CDP artifacts bitwise identical: {cdp_match}")
    assert passed
