import numpy as np
import pytest

from phasemax import NoiseModel, SweepConfig, run_cdp_demo, run_sweep, run_verify
from phasemax.cli import main, parse_noise, parse_ratios
from phasemax.experiments import CSV_HEADER, ratio_summary
from phasemax.pgm import read_f64_sidecar, read_pgm, write_pgm
from phasemax.solver import SolverConfig
from support import strip_runtime


def gradient_image(h, w):
    return np.add.outer(np.linspace(10, 240, h), np.linspace(0, 15, w))


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


def test_sweep_matches_across_worker_counts():
    base = dict(n=12, ratios=(3.0,), trials=4, seed=3,
                solver=SolverConfig(max_iters=150))
    serial = run_sweep(SweepConfig(workers=1, **base))
    parallel = run_sweep(SweepConfig(workers=2, **base))
    for a, b in zip(serial, parallel):
        assert a.rel_error == b.rel_error
        assert a.anchor_corr == b.anchor_corr
        assert (a.n, a.m, a.trial, a.iters, a.converged) == (b.n, b.m, b.trial, b.iters, b.converged)


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


# ------------------------------------------------------------------- CDP demo


def test_cdp_demo_recovers_small_image(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, gradient_image(32, 32))
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


def test_cdp_demo_report_file_is_deterministic(tmp_path):
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, gradient_image(16, 16))
    cfg = SolverConfig(max_iters=60)
    r1 = run_cdp_demo(img_path, num_masks=6, cfg=cfg, seed=4,
                      out_prefix=str(tmp_path / "a"))
    r2 = run_cdp_demo(img_path, num_masks=6, cfg=cfg, seed=4,
                      out_prefix=str(tmp_path / "b"))
    assert (tmp_path / "a_report.txt").read_text() == (tmp_path / "b_report.txt").read_text()
    assert (tmp_path / "a_recovered.pgm").read_bytes() == (tmp_path / "b_recovered.pgm").read_bytes()
    assert (tmp_path / "a_recovered.f64").read_bytes() == (tmp_path / "b_recovered.f64").read_bytes()
    assert r1.rel_error == r2.rel_error


def test_cdp_demo_rejects_zero_image(tmp_path):
    img_path = tmp_path / "zero.pgm"
    write_pgm(img_path, np.zeros((8, 8)))
    with pytest.raises(ValueError):
        run_cdp_demo(img_path, num_masks=4, seed=0, out_prefix=str(tmp_path / "z"))


def test_cdp_demo_single_mask_underdetermined(tmp_path):
    # One mask gives m = n phaseless equations for 2n-1 real unknowns; the
    # outcome is recorded, not asserted small.
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, gradient_image(16, 16))
    report = run_cdp_demo(img_path, num_masks=1, cfg=SolverConfig(max_iters=80),
                          seed=5, out_prefix=str(tmp_path / "L1"))
    assert report.rel_error >= 0.0
    assert report.num_masks == 1


# --------------------------------------------------------------------- verify


def test_verify_all_suites_pass():
    report = run_verify("all", seed=0, mc_draws=200_000, num_h=20, num_a=20_000)
    assert report.passed, report.render()
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))


def test_verify_single_suites():
    assert run_verify("vc", seed=0).passed
    assert run_verify("closed-forms", seed=1, mc_draws=100_000).passed
    assert run_verify("geometry", seed=2, num_h=10, num_a=10_000).passed


def test_verify_report_deterministic():
    kwargs = dict(seed=3, mc_draws=50_000, num_h=5, num_a=5_000)
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
    img_path = tmp_path / "in.pgm"
    write_pgm(img_path, gradient_image(16, 16))
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
