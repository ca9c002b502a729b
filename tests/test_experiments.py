import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasemax import (CodedDiffractionEnsemble, DenseEnsemble, NoiseModel, RngStream,
                      SweepConfig, anchor_correlation, experiments, observe, phase_align_error,
                      run_cdp_demo, run_sweep, run_verify, sample_complex_gaussian,
                      solve_phasemax, spectral_anchor)
from phasemax.cli import main, parse_noise, parse_ratios
from phasemax.experiments import CSV_HEADER, ratio_summary
from phasemax.pgm import read_f64_sidecar, read_pgm, write_pgm
from phasemax import solver
from phasemax.solver import SolverConfig
from support import geometry_checks_reference, strip_runtime, write_demo_image


def gradient_image(path, h, w):
    """Write an h x w gradient as a PGM at path, and return path."""
    write_pgm(path, np.add.outer(np.linspace(10, 240, h), np.linspace(0, 15, w)))
    return path


# ------------------------------------------------------------------------ PGM


def test_pgm_roundtrip(tmp_path):
    img = np.arange(48, dtype=np.uint8).reshape(6, 8)
    path = tmp_path / "t.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_clamps_and_rounds(tmp_path):
    img = np.array([[-3.0, 0.4, 254.6, 300.0]])
    path = tmp_path / "t.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), np.array([[0, 0, 255, 255]], dtype=np.uint8))


def test_pgm_reads_comments_and_rejects_bad_magic(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = read_pgm(path)
    assert img.shape == (2, 3)
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError):
        read_pgm(bad)
    # A header that declares more pixels than the file holds is refused
    # before the pixels are read, not by allocating them.
    huge = tmp_path / "huge.pgm"
    huge.write_bytes(b"P5\n1000000 1000000\n255\nabc")
    with pytest.raises(ValueError, match="truncated PGM pixel data"):
        read_pgm(huge)
    assert main(["cdp", "--image", str(huge), "--out-prefix", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------- sweep


def test_sweep_success_region(tmp_path):
    cfg = SweepConfig(n=64, ratios=(12,), trials=5, seed=7,
                      out_path=str(tmp_path / "s.csv"))
    records = run_sweep(cfg)
    assert len(records) == 5
    assert all(r.rel_error <= 1e-3 for r in records)
    assert all(r.m == 768 for r in records)


def test_sweep_trial_converges_before_max_iters():
    # A default-config trial in the success region stops on its own rule.
    (record,) = run_sweep(SweepConfig(n=128, ratios=(12,), trials=1))
    assert record.converged
    assert record.iters < SolverConfig().max_iters
    assert record.rel_error <= 1e-6
    assert record.stop_reason == "certified"


def test_sweep_failure_region():
    cfg = SweepConfig(n=64, ratios=(1.5,), trials=5, seed=7,
                      solver=SolverConfig(max_iters=300))
    records = run_sweep(cfg)
    errs = [r.rel_error for r in records]
    assert np.median(errs) >= 0.3


def test_sweep_csv_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = dict(n=16, ratios=(2.0, 6.0), trials=3, seed=11,
                solver=SolverConfig(max_iters=200))
    run_sweep(SweepConfig(out_path=str(out1), **base))
    run_sweep(SweepConfig(out_path=str(out2), **base))
    text1, text2 = out1.read_text(), out2.read_text()
    assert strip_runtime(text1) == strip_runtime(text2)
    rows = text1.strip().splitlines()
    assert rows[0] == ",".join(CSV_HEADER)
    assert len(rows) == 1 + 2 * 3
    assert all(row.split(",")[-1] in ("optimal", "certified", "max_iters") for row in rows[1:])


def test_sweep_unwritable_out_path_fails_before_any_trial(tmp_path, monkeypatch):
    calls = []
    run_trial = experiments._run_trial

    def counting(*args):
        calls.append(args)
        return run_trial(*args)

    monkeypatch.setattr(experiments, "_run_trial", counting)
    cfg = SweepConfig(n=8, ratios=(4.0,), trials=3, seed=5, solver=SolverConfig(max_iters=20),
                      out_path=str(tmp_path / "missing" / "x.csv"))
    with pytest.raises(OSError):
        run_sweep(cfg)
    assert calls == []


def test_sweep_matches_across_worker_counts():
    base = dict(n=12, ratios=(3.0,), trials=4, seed=3,
                solver=SolverConfig(max_iters=150))
    serial = run_sweep(SweepConfig(workers=1, **base))
    parallel = run_sweep(SweepConfig(workers=2, **base))
    assert ([dataclasses.replace(r, runtime_ms=0.0) for r in serial]
            == [dataclasses.replace(r, runtime_ms=0.0) for r in parallel])


def test_importing_phasemax_starts_no_process_machinery():
    # run_sweep imports the process pool only when it runs one.
    code = "import sys, phasemax.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2), (1, None)])
def test_sweep_pool_never_larger_than_tasks_or_cpus(monkeypatch, cpus, expected):
    # The executor forks all max_workers processes when it starts, so --jobs
    # must not reach it unbounded. The stand-in starts no process.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
    base = dict(n=4, ratios=(3.0,), trials=3, seed=3, solver=SolverConfig(max_iters=20))
    records = run_sweep(SweepConfig(workers=10_000, **base))
    assert sizes == ([] if expected is None else [expected])
    serial = run_sweep(SweepConfig(**base))
    assert [r.rel_error for r in records] == [r.rel_error for r in serial]


def test_usable_cpus_without_sched_getaffinity(monkeypatch):
    # sched_getaffinity exists only on Linux; elsewhere the machine's count.
    monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 5)
    assert experiments._usable_cpus() == 5
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    assert experiments._usable_cpus() == 1


def test_sweep_gaussian_noise_records_snr():
    cfg = SweepConfig(n=16, ratios=(4.0,), trials=2, seed=5,
                      noise=NoiseModel.gaussian(30.0),
                      solver=SolverConfig(max_iters=100))
    records = run_sweep(cfg)
    for r in records:
        assert r.noise_kind == "gaussian"
        assert r.snr_db == pytest.approx(30.0, abs=1e-9)
        assert r.noise_param == 30.0


def test_sweep_uniform_noise_records_param():
    cfg = SweepConfig(n=16, ratios=(4.0,), trials=2, seed=5,
                      noise=NoiseModel.uniform(0.05),
                      solver=SolverConfig(max_iters=100))
    records = run_sweep(cfg)
    for r in records:
        assert r.noise_kind == "uniform"
        assert r.noise_param == 0.05
        assert r.snr_db is None


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(n=16, ratios=(0.5,), trials=2)
    with pytest.raises(ValueError):
        SweepConfig(n=16, ratios=(2.0,), trials=0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SweepConfig(n=16, ratios=(2.0, bad), trials=2)
    with pytest.raises(ValueError):
        NoiseModel("uniform", -1.0)
    for kind in ("uniform", "gaussian"):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError):
                NoiseModel(kind, bad)


def test_ratio_summary_orders_by_ratio():
    cfg = SweepConfig(n=12, ratios=(6.0, 2.0), trials=2, seed=9,
                      solver=SolverConfig(max_iters=150))
    summary = ratio_summary(run_sweep(cfg))
    assert [s[0] for s in summary] == [2.0, 6.0]
    for _, median, q90 in summary:
        assert q90 >= median >= 0.0


def test_sweep_recovers_at_6x_oversampling():
    # Criterion 1's seed at M/N 6: from the preprocessed spectral anchor all
    # ten trials are certified at 50, at a median error of 7.3e-15. From the
    # b-weighted anchor one was, and the median error was 2.3e-2.
    records = run_sweep(SweepConfig(n=128, ratios=(6.0,), trials=10, seed=20260809))
    assert np.median([r.rel_error for r in records]) <= 1e-3


# ------------------------------------------------------------------- CDP demo


def test_cdp_demo_recovers_small_image(tmp_path):
    img_path = gradient_image(tmp_path / "in.pgm", 32, 32)
    report = run_cdp_demo(img_path, num_masks=12, seed=2,
                          out_prefix=str(tmp_path / "out"))
    assert report.n == 1024
    assert report.m == 12 * 1024
    assert report.rel_error <= 1e-3
    recovered = read_pgm(report.recovered_pgm)
    assert recovered.shape == (32, 32)
    sidecar = read_f64_sidecar(report.recovered_f64)
    original = read_pgm(img_path).astype(float).ravel()  # recovery target is the quantized image
    rel = np.linalg.norm(sidecar - original) / np.linalg.norm(original)
    assert rel <= 1e-3


@pytest.mark.parametrize("seed", [20260809, 1, 2])
def test_cdp_demo_with_8_masks_is_certified_at_20(seed, tmp_path):
    # From the b-weighted anchor these ran all 175 iterations, to errors of
    # 4.4e-5 to 0.45.
    report = run_cdp_demo(write_demo_image(tmp_path / "gradient64.pgm"), num_masks=8, seed=seed,
                          out_prefix=str(tmp_path / "cdp"))
    assert report.iters_used == solver._POLISH_EARLY
    assert "stop_reason=certified" in open(report.report_path).read().splitlines()
    assert report.rel_error <= 1e-13


@pytest.mark.parametrize("seed, error_at_250", [
    (20260809, 1.092064021402523e-06), (5_000_000, 1.0973648567015662e-07),
    (5_000_001, 1.1333460360028538e-06), (5_000_002, 4.5757024301100054e-07),
], ids=["criterion-7", "call-5000000", "call-5000001", "call-5000002"])
def test_cdp_demo_default_cap_keeps_the_250_iteration_error(seed, error_at_250, tmp_path):
    # The demo at 250 iterations from x = 0 reached these errors on the
    # acceptance instance and on cdp-image benchmark calls. Its cap is lower
    # now because the warm-started solve gets there sooner; a cap must not
    # buy time with a looser error.
    img_path = write_demo_image(tmp_path / "gradient64.pgm")
    report = run_cdp_demo(img_path, num_masks=20, seed=seed, out_prefix=str(tmp_path / "cdp"))
    assert report.iters_used <= experiments.DEFAULT_CDP_CONFIG.max_iters < 250
    assert report.rel_error <= error_at_250


def test_sweep_trials_are_the_library_pipeline():
    # Each trial written out plainly on its own stream, RngStream(seed,
    # ratio index * trials + t): x*, the rows and the noise, the anchor, the
    # solve and the error. The records must hold the same bits.
    cfg = SweepConfig(n=32, ratios=(6.0,), trials=2, noise=NoiseModel.uniform(1e-3),
                      solver=SolverConfig(max_iters=400), seed=5)
    for t, record in enumerate(run_sweep(cfg)):
        stream = RngStream(5, t)
        xstar = sample_complex_gaussian(32, stream)
        ens = DenseEnsemble.gaussian(32, 192, stream)
        obs = observe(ens, xstar, cfg.noise, stream)
        a0 = spectral_anchor(ens, obs, cfg.anchor_iters, stream).a0
        sol = solve_phasemax(ens, obs, a0, cfg.solver)
        assert (record.rel_error, record.anchor_corr, record.iters, record.stop_reason) == (
            phase_align_error(sol.xhat, xstar), anchor_correlation(a0, xstar),
            sol.iters_used, sol.stop_reason)


def test_cdp_demo_is_the_library_pipeline(tmp_path):
    # The demo written out plainly: the image as a unit-energy signal, masks
    # and observations from RngStream(seed), the anchor from the same
    # stream, the solve at DEFAULT_CDP_CONFIG (certified here at 20), then
    # the phase-aligned, rescaled real part. The sidecar must hold the same
    # bits.
    img_path = gradient_image(tmp_path / "in.pgm", 16, 16)
    report = run_cdp_demo(img_path, num_masks=6, seed=2, out_prefix=str(tmp_path / "cdp"))
    assert report.iters_used == solver._POLISH_EARLY
    flat = read_pgm(img_path).astype(np.float64).ravel()
    xstar = (flat / np.linalg.norm(flat)).astype(np.complex128)
    stream = RngStream(2)
    ens = CodedDiffractionEnsemble.rademacher(256, 6, stream)
    obs = observe(ens, xstar, NoiseModel.none(), stream)
    a0 = spectral_anchor(ens, obs, 50, stream).a0
    sol = solve_phasemax(ens, obs, a0, experiments.DEFAULT_CDP_CONFIG)
    phase = np.exp(1j * np.angle(np.vdot(sol.xhat, xstar)))
    recovered = (phase * sol.xhat).real * np.linalg.norm(flat)
    assert report.rel_error == phase_align_error(sol.xhat, xstar)
    assert read_f64_sidecar(report.recovered_f64).tobytes() == recovered.tobytes()


def test_cdp_demo_report_file_is_deterministic(tmp_path):
    # Both kinds of report: at L = 6 the crossover certifies the solve at 20,
    # and at L = 4 Gauss-Newton stalls and the solve runs to the cap.
    img_path = gradient_image(tmp_path / "in.pgm", 16, 16)
    cfg = SolverConfig(max_iters=60)
    for masks, stop_reason in ((6, "certified"), (4, "max_iters")):
        r1, r2 = (run_cdp_demo(img_path, num_masks=masks, cfg=cfg, seed=4,
                               out_prefix=str(tmp_path / f"{run}{masks}")) for run in "ab")
        report = Path(r1.report_path).read_text()
        assert report == Path(r2.report_path).read_text()
        assert f"stop_reason={stop_reason}" in report.splitlines()
        for field in ("recovered_pgm", "recovered_f64"):
            assert Path(getattr(r1, field)).read_bytes() == Path(getattr(r2, field)).read_bytes()
        assert r1.rel_error == r2.rel_error


def test_cdp_demo_rejects_zero_image(tmp_path):
    img_path = tmp_path / "zero.pgm"
    write_pgm(img_path, np.zeros((8, 8)))
    with pytest.raises(ValueError):
        run_cdp_demo(img_path, num_masks=4, seed=0, out_prefix=str(tmp_path / "z"))


def test_cdp_demo_rejects_zero_masks(tmp_path):
    img_path = gradient_image(tmp_path / "in.pgm", 8, 8)
    with pytest.raises(ValueError, match="num_masks"):
        run_cdp_demo(img_path, num_masks=0, seed=0, out_prefix=str(tmp_path / "z"))


def test_cdp_demo_single_mask_underdetermined(tmp_path):
    # One mask gives m = n phaseless equations for 2n-1 real unknowns; the
    # outcome is recorded, not asserted small.
    img_path = gradient_image(tmp_path / "in.pgm", 16, 16)
    report = run_cdp_demo(img_path, num_masks=1, cfg=SolverConfig(max_iters=80),
                          seed=5, out_prefix=str(tmp_path / "L1"))
    assert report.rel_error >= 0.0
    assert report.num_masks == 1


# --------------------------------------------------------------------- verify


def test_verify_all_suites_pass():
    report = run_verify("all", seed=0, num_h=20, num_a=20_000)
    assert report.passed, report.render()
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))


# The suite tests stacks of vectors; the reference tests one vector per call.
# The last case is the CLI's scale.
@pytest.mark.parametrize("seed, num_h, num_a", [
    (0, 20, 20_000), (3, 20, 20_000), (20260809, 20, 20_000), (11_000_007, 200, 100_000)])
def test_geometry_checks_match_the_one_vector_reference(seed, num_h, num_a):
    from phasemax.experiments import _geometry_checks

    assert _geometry_checks(seed, num_h, num_a) == geometry_checks_reference(seed, num_h, num_a)


def test_verify_closed_forms_is_deterministic_and_ignores_mc_draws():
    # Seed 43,000,047 made the former 25-cell Monte Carlo grid report 4.36
    # standard errors on a correct closed form. The quadrature grid has no
    # sampling error, so no seed and no mc_draws can change the verdict.
    report = run_verify("closed-forms", seed=43_000_047)
    assert report.passed, report.render()
    other = run_verify("closed-forms", seed=0, mc_draws=1_000)
    assert report.checks == other.checks


# Each suite must report FAIL, on exactly the checks that cover it, when one
# theory function is wrong: criteria 3, 4 and 8 rest on these verdicts.
@pytest.mark.parametrize("suite, name, wrong, scale, failing", [
    ("closed-forms", "rayleigh_normal_cdf",
     lambda f: lambda a, b: min(f(a, b) + 0.01, 1.0),
     {}, ["rayleigh_normal_cdf quadrature grid", "F(0) identity (s + alpha) / (2s)"]),
    # A Monte Carlo grid's standard error, about 5e-4 at 10^6 draws, hides this.
    ("closed-forms", "rayleigh_normal_cdf",
     lambda f: lambda a, b: min(f(a, b) + 1e-9, 1.0),
     {}, ["rayleigh_normal_cdf quadrature grid", "F(0) identity (s + alpha) / (2s)"]),
    ("geometry", "pmin_lower_bound",
     lambda f: lambda delta, t: 1.5 * f(delta, t),
     dict(num_h=20, num_a=20_000), ["empirical pmin dominates closed-form lower bound"]),
    ("vc", "sample_complexity",
     lambda f: lambda p, n, eps: f(p, n, eps) // 2,
     {}, ["sample-complexity proof inequality"]),
], ids=("closed-forms", "closed-forms-1e-9", "geometry", "vc"))
def test_verify_suite_fails_on_wrong_theory(monkeypatch, suite, name, wrong, scale, failing):
    from phasemax import theory

    monkeypatch.setattr(theory, name, wrong(getattr(theory, name)))
    report = run_verify(suite, seed=0, **scale)
    assert [c.name for c in report.checks if not c.passed] == failing, report.render()
    assert all(c.margin is None or (c.margin >= 0) == c.passed for c in report.checks)


def test_verify_report_deterministic():
    kwargs = dict(seed=3, num_h=5, num_a=5_000)
    r1 = run_verify("all", **kwargs)
    r2 = run_verify("all", **kwargs)
    assert r1.render() == r2.render()


def test_verify_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_verify("everything")


# ------------------------------------------------------------------------ CLI


def test_parse_ratios_forms():
    assert parse_ratios("2,4,6") == [2.0, 4.0, 6.0]
    assert parse_ratios("2:4:0.5") == [2.0, 2.5, 3.0, 3.5, 4.0]
    import argparse

    for text in ("2:nan:1", "-inf:2:1", "1:2:1e-20", "1:1:1e-20", "1:10001:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_ratios(text)
    assert len(parse_ratios("1:10000:1")) == 10_000


def test_parse_noise_forms():
    assert parse_noise("none") == NoiseModel("none")
    assert parse_noise("uniform:0.01") == NoiseModel("uniform", 0.01)
    assert parse_noise("gaussian:25") == NoiseModel("gaussian", 25.0)
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_noise("poisson:1")


def test_cli_sweep_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["sweep", "--n", "12", "--ratios", "4", "--trials", "2",
                 "--max-iters", "150", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    stdout = capsys.readouterr().out
    assert "median" in stdout


def test_cli_cdp_end_to_end(tmp_path, capsys):
    img_path = gradient_image(tmp_path / "in.pgm", 16, 16)
    code = main(["cdp", "--image", str(img_path), "--masks", "6",
                 "--max-iters", "80", "--seed", "2",
                 "--out-prefix", str(tmp_path / "cli")])
    assert code == 0
    assert (tmp_path / "cli_recovered.pgm").exists()
    assert "rel_error" in capsys.readouterr().out


def test_cli_verify_exit_codes(capsys, monkeypatch):
    assert main(["verify", "--suite", "vc"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out

    from phasemax.experiments import CheckResult, VerifyReport
    import phasemax.cli as cli_mod

    def fake_verify(suite="all", seed=0):
        return VerifyReport(suite=suite, seed=seed, checks=(
            CheckResult(name="forced failure", passed=False, observed="x", required="y"),
        ))

    monkeypatch.setattr(cli_mod, "run_verify", fake_verify)
    assert main(["verify", "--suite", "vc"]) == 1


def test_cli_rejects_a_negative_seed_before_writing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["sweep", "--n", "4", "--ratios", "4", "--trials", "1",
                 "--seed", "-3", "--out", str(out)])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()
    img_path = gradient_image(tmp_path / "in.pgm", 8, 8)
    for argv in (["cdp", "--image", str(img_path), "--seed", "-2",
                  "--out-prefix", str(tmp_path / "cli")],
                 ["verify", "--suite", "geometry", "--seed", "-1"]):
        assert main(argv) == 2
        assert "seed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]


def test_cli_rejects_bad_noise(capsys):
    for noise in ("exotic:1", "uniform:inf", "uniform:nan", "gaussian:nan",
                  "gaussian:8000", "gaussian:-8000"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--noise", noise])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_cli_rejects_bad_ratios(capsys, monkeypatch):
    import phasemax.cli as cli_mod

    def no_sweep(cfg):
        raise AssertionError(f"sweep started with ratios {cfg.ratios}")

    monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
    for ratios in ("inf", "nan", "2:inf:1", "1:2:1e-20", "1:1:1e-20"):
        try:
            code = main(["sweep", "--n", "4", "--trials", "1", "--ratios", ratios])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_cli_rejects_non_finite_tol(capsys, monkeypatch):
    import phasemax.cli as cli_mod

    def no_sweep(cfg):
        raise AssertionError(f"sweep started with solver {cfg.solver}")

    monkeypatch.setattr(cli_mod, "run_sweep", no_sweep)
    for tol in ("nan", "inf"):
        code = main(["sweep", "--n", "8", "--ratios", "8", "--trials", "1", "--tol", tol])
        assert code == 2
        assert "error:" in capsys.readouterr().err
