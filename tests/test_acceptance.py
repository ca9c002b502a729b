"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 3, 4 and 8 are `phasemax verify --suite <suite> --seed 20260809`
for the closed-forms, geometry and vc suites: each runs the suite at the
CLI's scale and asserts its verdict, so the acceptance evidence and the
CLI's cannot drift apart.

Run with `pytest tests/test_acceptance.py -v -s`. The phase-transition and
noise sweeps dominate the runtime (a few minutes total).
"""

import numpy as np
import pytest

from phasemax import (
    CodedDiffractionEnsemble,
    DenseEnsemble,
    NoiseModel,
    RngStream,
    SolverConfig,
    SweepConfig,
    operator_norm,
    phase_align_error,
    run_cdp_demo,
    run_sweep,
    run_verify,
    sample_complex_gaussian,
    solve_phasemax,
)
from phasemax.experiments import ratio_summary
from phasemax.measurements import Observations
from support import oracle_solve_small, strip_runtime, write_demo_image

SEED = 20260809


def report_line(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")


def verify_suite(criterion, suite, **scale):
    report = run_verify(suite, seed=SEED, **scale)
    print(report.render())
    passed_checks = sum(c.passed for c in report.checks)
    report_line(criterion, report.passed,
                f"verify suite {suite}: {passed_checks} of {len(report.checks)} checks pass")
    assert report.passed


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
    return write_demo_image(tmp_path_factory.mktemp("acceptance") / "gradient64.pgm")


@pytest.fixture(scope="session")
def cdp_run(cdp_image, tmp_path_factory):
    prefix = tmp_path_factory.mktemp("acceptance") / "cdp_a"
    return run_cdp_demo(cdp_image, num_masks=20, seed=SEED, out_prefix=str(prefix))


def test_criterion_1_phase_transition(transition_sweep):
    records, _ = transition_sweep
    medians = {ratio: med for ratio, med, _ in ratio_summary(records)}
    ok_high = all(medians[r] <= 1e-9 for r in (8.0, 10.0, 12.0))
    ok_low = medians[2.0] >= 0.3
    passed = ok_high and ok_low
    report_line(1, passed,
                f"median rel_error at M/N=8: {medians[8.0]:.2e}, at 10: {medians[10.0]:.2e}, "
                f"at 12: {medians[12.0]:.2e} (need <= 1e-9); "
                f"at 2: {medians[2.0]:.2f} (need >= 0.3)")
    assert passed
    # Monotone medians across the transition, allowing one adjacent inversion.
    # Medians at the 1e-12 floor are ordered by rounding, so an inversion
    # between two medians that are both <= 1e-9 is not counted.
    meds = [medians[r] for r in (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)]
    inversions = sum(1 for a, b in zip(meds, meds[1:]) if b > max(a, 1e-9))
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
    verify_suite(3, "closed-forms")


def test_criterion_4_lemma3_empirical_bound():
    verify_suite(4, "geometry", num_h=200, num_a=100_000)


def test_criterion_5_oracle_equivalence():
    worst = 0.0
    for trial in range(50):
        g = RngStream(SEED, 100 + trial).generator
        n, m = 2, 15
        xs = g.standard_normal(n)
        rows = g.standard_normal((m, n))
        b = (rows @ xs) ** 2
        ens = DenseEnsemble(rows.astype(complex))
        obs = Observations(b=b)
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
    verify_suite(8, "vc")


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
