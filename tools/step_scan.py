"""Solve held-out noiseless sweep trials at several relaxations
(solver._RELAXATION) and print, per relaxation, the median and largest
iteration count, the trials that ran to max_iters and the worst recovered
error. The solves run without the crossover (solver._polish), which would
end them all at its checkpoint.

Every instance comes from the builders in phasemax.experiments that the
sweep and the demo use: _gaussian_instance for the trials (the relaxation
scan runs the sweep's own _run_trial) and _cdp_instance for the CDP demo.
Trial t at ratio M/N is drawn on a stream id of this tool's choosing,
RngStream(seed, 100 * M/N + t), not the ids run_sweep assigns (ratio
index * trials + t). With the default seed 7 it shares no stream with the
benchmark's call seeds or the acceptance tests; tests/test_solver.py pins
the iteration counts of four of these trials.

With --cdp it instead runs the CDP demo, run_cdp_demo on the 64 x 64
gradient image with --masks masks (20 by default, as in acceptance
criterion 7 and the cdp-image benchmark), once per seed and per iteration
cap in --at, and prints each instance's rel_error at each cap, at the
solver's current constants and without the crossover.

With --anchor it checks the spectral anchor instead of the solve: on each
CDP demo instance of --cdp (none by default) and each held-out trial, it
prints the Lanczos steps that spectral_anchor takes at a cap of 50 and the
phase-aligned distance of its anchor to the top eigenvector of the
preprocessed covariance Sigma_T, the matrix it targets; then the anchor's
correlation with x*, and for contrast that of the anchor the same Lanczos
iteration finds on the b-weighted Sigma = (1/M) sum_i b_i a_i a_i^H from
the same start vector. The eigenvector comes from np.linalg.eigh of the
dense Sigma_T for the trials, and from 200 Lanczos steps at no stop
tolerance for the CDP instances.

With --polish it checks the solver's crossover instead (solver._polish):
on each held-out trial, or with --cdp on each CDP demo instance, solved
from the spectral anchor as _run_trial and run_cdp_demo solve them, it
prints the stop reason and iterations, the checkpoint that certified it
(- when none did), the kernel calls of the loop (with the dense
operator-norm estimate) and of Gauss-Newton, and the certificate search's
kernel calls and Douglas-Rachford steps (- when none ran), then the
solve's wall time and the recovered error. A checkpoint that searches
also makes one forward, A xhat, which no column counts.
With --masks 4 or 6 the crossover certifies neither seed 1 nor 2, so their
wall times show what its failed attempt costs.
--noise runs the trials on noisy data, where Gauss-Newton stalls. The
kernel calls are counted by the tests' CountingEnsemble (tests/support.py);
the anchor's are not included.

    python3 tools/step_scan.py --relax 1 1.5 1.7 --n 128 --ratios 8 12 --trials 8
    python3 tools/step_scan.py --cdp 20260809 5000000 5000001 --at 150 175 250
    python3 tools/step_scan.py --anchor --cdp 20260809 1000000 1000001
    python3 tools/step_scan.py --polish --ratios 4 6 8 12 --trials 8
    python3 tools/step_scan.py --polish --ratios 12 --trials 4 --noise uniform:1e-4
    python3 tools/step_scan.py --polish --cdp 20260809 5000000 3000001
    python3 tools/step_scan.py --polish --cdp 1 2 1 2 1 2 --masks 6
"""

from __future__ import annotations

import argparse
import copy
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from phasemax import anchor, solver  # noqa: E402
from phasemax.cli import parse_noise  # noqa: E402
from phasemax.experiments import (  # noqa: E402
    DEFAULT_CDP_CONFIG,
    SweepConfig,
    _cdp_instance,
    _gaussian_instance,
    _run_trial,
    run_cdp_demo,
)
from phasemax.measurements import NoiseModel  # noqa: E402
from phasemax.numerics import RngStream, phase_align_error  # noqa: E402
from support import CountingEnsemble, write_demo_image  # noqa: E402


def scan(relaxations, n: int, ratios, trials: int, seed: int) -> None:
    cfg = SweepConfig(n=n, ratios=ratios, trials=trials, seed=seed)
    print(f"n={n} ratios={list(ratios)} trials={trials} seed={seed} "
          f"max_iters={cfg.solver.max_iters}, crossover off")
    print(f"{'relax':>6} {'iters_p50':>10} {'iters_max':>10} {'unconverged':>12} {'worst_err':>10}")
    for rho in relaxations:
        with polish_off(), mock.patch.object(solver, "_RELAXATION", rho):
            records = [_run_trial(cfg, ratio, int(round(100 * ratio)) + t, t)
                       for ratio in ratios for t in range(trials)]
        iters = [r.iters for r in records]
        print(f"{rho:6g} {statistics.median(iters):10g} {max(iters):10d} "
              f"{sum(not r.converged for r in records):12d} "
              f"{max(r.rel_error for r in records):10.2e}", flush=True)


def polish_off():
    """Solves without the crossover (solver._polish), so that they measure the
    loop that a scan varies rather than end at the checkpoint."""
    return mock.patch.object(solver, "_checkpoint", lambda ens: None)


def scan_cdp(seeds, caps, masks: int) -> None:
    print(f"64x64 gradient image, L={masks}, crossover off; rel_error at max_iters {list(caps)}")
    print(f"{'seed':>10} " + " ".join(f"{cap:>10d}" for cap in caps))
    with tempfile.TemporaryDirectory() as tmp, polish_off():
        image = write_demo_image(Path(tmp) / "gradient64.pgm")
        for seed in seeds:
            errors = [run_cdp_demo(image, num_masks=masks, cfg=solver.SolverConfig(max_iters=cap),
                                   seed=seed, out_prefix=str(Path(tmp) / "cdp")).rel_error
                      for cap in caps]
            print(f"{seed:10d} " + " ".join(f"{e:10.3e}" for e in errors), flush=True)


def long_lanczos(ens, obs, steps: int, rng):
    """The anchor after steps Lanczos steps with the stop tolerance at 0."""
    with mock.patch.object(anchor, "_ANCHOR_RTOL", 0.0):
        return anchor.spectral_anchor(ens, obs, steps, rng).a0


def anchor_instances(cdp_seeds, masks: int, n: int, ratios, trials: int, seed: int):
    """(name, ens, obs, xstar, stream at the anchor's draw, top eigenvector
    of Sigma_T), one instance at a time."""
    for cdp_seed, (name, ens, obs, xs, stream) in zip(cdp_seeds, cdp_instances(cdp_seeds, masks)):
        yield name, ens, obs, xs, stream, long_lanczos(ens, obs, 200, RngStream(cdp_seed, 1))
    for name, ens, obs, xs, stream in held_out_trials(n, ratios, trials, seed, NoiseModel.none()):
        weights = anchor._preprocess(obs.b, ens.n)
        sigma = (ens.rows.T * weights) @ ens.rows.conj() / ens.m
        yield name, ens, obs, xs, stream, np.linalg.eigh(sigma)[1][:, -1]


def cdp_instances(seeds, masks: int):
    """(name, ens, obs, xstar, stream at the anchor's draw) of the CDP demo with
    masks masks at each seed."""
    with tempfile.TemporaryDirectory() as tmp:
        image = write_demo_image(Path(tmp) / "gradient64.pgm")
        for seed in seeds:
            yield (f"cdp {seed}", *_cdp_instance(image, masks, seed)[:4])


def held_out_trials(n: int, ratios, trials: int, seed: int, noise):
    """(name, ens, obs, xstar, stream at the anchor's draw) of each held-out
    trial."""
    for ratio in ratios:
        for t in range(trials):
            stream = RngStream(seed, int(round(100 * ratio)) + t)
            yield (f"n={n} M/N={ratio:g} t={t}", *_gaussian_instance(n, ratio, noise, stream),
                   stream)


def scan_polish(instances, noise, cfg) -> None:
    print(f"crossover at iteration {solver._POLISH_FIRST} with the Gram and "
          f"{solver._POLISH_EARLY} without, noise "
          f"{noise.kind}:{noise.param:g}; search cap {solver._CERT_STEPS} steps with the Gram, "
          f"{solver._CERT_CALLS} kernel calls without")
    print(f"{'instance':>18} {'stop_reason':>12} {'iters':>6} {'cert_at':>7} {'loop_calls':>10} "
          f"{'gn_calls':>9} {'search_calls':>12} {'dr_steps':>9} {'solve_ms':>9} {'error':>10}")
    polish, gauss_newton, certificate = solver._polish, solver._gauss_newton, solver._certificate
    for name, ens, obs, xs, stream in instances:
        a0 = anchor.spectral_anchor(ens, obs, 50, stream).a0
        # No per-call subnormal check, so the wall time is the solve's.
        counted = CountingEnsemble(ens, subnormals=False)
        polish_calls, gn_calls, search_calls, dr_steps = [], [], [], []

        def counting(stage, calls):
            def wrapped(*args):
                before = counted.forwards + counted.adjoints
                try:
                    return stage(*args)
                finally:
                    calls.append(counted.forwards + counted.adjoints - before)
            return wrapped

        def recording_certificate(*args):
            found = certificate(*args)
            dr_steps.append(found[1])
            return found

        with mock.patch.multiple(solver, _polish=counting(polish, polish_calls),
                                 _gauss_newton=counting(gauss_newton, gn_calls),
                                 _certificate=counting(recording_certificate, search_calls)):
            t0 = time.perf_counter()
            sol = solver.solve_phasemax(counted, obs, a0, cfg)
            solve_ms = (time.perf_counter() - t0) * 1e3
        loop_calls = counted.forwards + counted.adjoints - sum(polish_calls)
        cert_at = sol.iters_used if sol.stop_reason == "certified" else "-"
        search = (search_calls[0], dr_steps[0]) if search_calls else ("-", "-")
        print(f"{name:>18} {sol.stop_reason:>12} {sol.iters_used:6d} {cert_at:>7} "
              f"{loop_calls:10d} {sum(gn_calls):9d} {search[0]:>12} {search[1]:>9} "
              f"{solve_ms:9.1f} {phase_align_error(sol.xhat, xs):10.2e}", flush=True)


def scan_anchor(cdp_seeds, masks: int, n: int, ratios, trials: int, seed: int) -> None:
    print(f"spectral anchor at a cap of 50 steps, _ANCHOR_RTOL={anchor._ANCHOR_RTOL:g}; "
          "distance to the top eigenvector of Sigma_T, and correlation with x* of the anchors "
          "of Sigma_T and of the b-weighted Sigma")
    print(f"{'instance':>22} {'steps':>6} {'distance':>10} {'corr_T':>7} {'corr_b':>7}")
    for name, ens, obs, xs, stream, top in anchor_instances(cdp_seeds, masks, n, ratios, trials,
                                                            seed):
        b_weighted = anchor._lanczos(ens, obs.b, 50, copy.deepcopy(stream)).a0
        report = anchor.spectral_anchor(ens, obs, 50, stream)
        print(f"{name:>22} {report.steps:6d} {phase_align_error(report.a0, top):10.2e} "
              f"{anchor.anchor_correlation(report.a0, xs):7.3f} "
              f"{anchor.anchor_correlation(b_weighted, xs):7.3f}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--relax", type=float, nargs="+", default=[1.0, 1.5, 1.7, 1.8])
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--ratios", type=float, nargs="+", default=[8.0, 12.0])
    parser.add_argument("--trials", type=int, default=8, help="trials t = 0 .. trials-1 a ratio")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cdp", type=int, nargs="+", metavar="SEED",
                        help="run the CDP demo at these seeds instead of the sweep trials")
    parser.add_argument("--masks", type=int, default=20, metavar="L",
                        help="with --cdp: the number of masks of the demo")
    parser.add_argument("--at", type=int, nargs="+", default=[175], metavar="ITERS",
                        help="with --cdp: the iteration caps to report")
    parser.add_argument("--anchor", action="store_true",
                        help="check the spectral anchor on the --cdp instances and the trials")
    parser.add_argument("--polish", action="store_true",
                        help="check the solver's crossover on the trials, or the --cdp instances")
    parser.add_argument("--noise", type=parse_noise, default=NoiseModel.none(),
                        help="with --polish: none, uniform:<eta_inv> or gaussian:<snr_db>")
    args = parser.parse_args(argv)
    if args.masks < 1:
        parser.error("--masks must be >= 1")
    if args.polish:
        if args.cdp is not None:
            if args.noise.kind != "none":
                parser.error("--noise does not apply to the CDP demo, which is noiseless")
            scan_polish(cdp_instances(args.cdp, args.masks), args.noise, DEFAULT_CDP_CONFIG)
            return 0
        if args.n < 1 or args.trials < 1:
            parser.error("--n and --trials must be >= 1")
        scan_polish(held_out_trials(args.n, args.ratios, args.trials, args.seed, args.noise),
                    args.noise, solver.SolverConfig())
        return 0
    if args.anchor:
        if args.n < 1 or args.trials < 0:
            parser.error("--n must be >= 1 and --trials >= 0")
        scan_anchor(args.cdp or [], args.masks, args.n, args.ratios, args.trials, args.seed)
        return 0
    if args.cdp is not None:
        if not all(cap >= 1 for cap in args.at):
            parser.error("--at must be >= 1")
        scan_cdp(args.cdp, args.at, args.masks)
        return 0
    if args.n < 1 or args.trials < 1:
        parser.error("--n and --trials must be >= 1")
    if not all(0 < rho < 2 for rho in args.relax):
        parser.error("--relax must lie in (0, 2)")
    scan(args.relax, args.n, args.ratios, args.trials, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
