"""Solve held-out noiseless sweep trials at several relaxations
(solver._RELAXATION) and print, per relaxation, the median and largest
iteration count, the trials that ran to max_iters and the worst recovered
error. The solves run without the crossover (solver._polish), which would
end them all at its checkpoint.

Trial t at ratio M/N is built by the sweep's own _run_trial, but on stream
ids of this tool's choosing, RngStream(seed, 100 * M/N + t), not the ids
run_sweep assigns (ratio index * trials + t). With the default seed 7 it
shares no stream with the benchmark's call seeds or the acceptance tests;
tests/test_solver.py pins the iteration counts of four of these trials.

With --cdp it instead runs the CDP demo, run_cdp_demo on the 64 x 64
gradient image with --masks masks (20 by default, as in acceptance
criterion 7 and the cdp-image benchmark), once per seed and per iteration
cap in --at, and prints each instance's rel_error at each cap, at the
solver's current constants and without the crossover.

With --anchor it checks the spectral anchor instead of the solve: on each
CDP demo instance of --cdp (none by default) and each held-out trial, built
as run_cdp_demo and _run_trial build them, it prints the Lanczos steps that
spectral_anchor takes at a cap of 50, the phase-aligned distance of its
anchor to the top eigenvector of Sigma, and that distance for 50 power steps
from the same start vector. The eigenvector comes from np.linalg.eigh of the
dense Sigma for the trials, and from 200 Lanczos steps at no stop tolerance
for the CDP instances.

With --polish it checks the solver's crossover instead (solver._polish):
on each held-out trial, or with --cdp on each CDP demo instance, solved
from the spectral anchor as _run_trial and run_cdp_demo solve them, it
prints the stop reason and iterations, the checkpoint that certified it
(- when none did), the kernel calls of the loop (with the dense
operator-norm estimate) and of Gauss-Newton, and for each certificate
search (joined by +, - when none ran) its kernel calls and
Douglas-Rachford steps, then the solve's wall time and the recovered
error. Each checkpoint that searches also makes one forward, A xhat,
which no column counts.
With --masks 4, 6 or 8 the crossover certified neither seed 1 nor 2, so
their wall times show what its failed attempts cost.
--noise runs the trials on noisy data, where Gauss-Newton stalls. The
kernel calls are counted by the tests' CountingEnsemble (tests/support.py);
the anchor's are not included.

    python3 tools/step_scan.py --relax 1 1.5 1.7 --n 128 --ratios 8 12 --trials 8
    python3 tools/step_scan.py --cdp 20260809 5000000 5000001 --at 150 175 250
    python3 tools/step_scan.py --anchor --cdp 20260809 1000000 1000001
    python3 tools/step_scan.py --polish --ratios 4 6 8 12 --trials 8
    python3 tools/step_scan.py --polish --ratios 12 --trials 4 --noise uniform:1e-4
    python3 tools/step_scan.py --polish --cdp 20260809 5000000 3000001
    python3 tools/step_scan.py --polish --cdp 1 2 1 2 1 2 --masks 8
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from phasemax import anchor, solver  # noqa: E402
from phasemax.cli import parse_noise  # noqa: E402
from phasemax.experiments import DEFAULT_CDP_CONFIG, _run_trial, run_cdp_demo  # noqa: E402
from phasemax.measurements import (  # noqa: E402
    CodedDiffractionEnsemble,
    DenseEnsemble,
    NoiseModel,
    observe,
)
from phasemax.numerics import RngStream, phase_align_error, sample_complex_gaussian  # noqa: E402
from phasemax.pgm import read_pgm, write_pgm  # noqa: E402
from support import CountingEnsemble  # noqa: E402


def scan(relaxations, n: int, ratios, trials: int, seed: int) -> None:
    cfg = solver.SolverConfig()
    tasks = [(n, ratio, int(round(100 * ratio)) + t, t, seed, NoiseModel.none(), 50, cfg)
             for ratio in ratios for t in range(trials)]
    saved = solver._RELAXATION
    print(f"n={n} ratios={list(ratios)} trials={trials} seed={seed} max_iters={cfg.max_iters}, "
          "crossover off")
    print(f"{'relax':>6} {'iters_p50':>10} {'iters_max':>10} {'unconverged':>12} {'worst_err':>10}")
    try:
        with polish_off():
            for rho in relaxations:
                solver._RELAXATION = rho
                records = [_run_trial(task) for task in tasks]
                iters = [r.iters for r in records]
                print(f"{rho:6g} {statistics.median(iters):10g} {max(iters):10d} "
                      f"{sum(not r.converged for r in records):12d} "
                      f"{max(r.rel_error for r in records):10.2e}", flush=True)
    finally:
        solver._RELAXATION = saved


@contextlib.contextmanager
def polish_off():
    """Solves without the crossover (solver._polish), so that they measure the
    loop that a scan varies rather than end at the checkpoint."""
    saved = solver._can_polish
    solver._can_polish = lambda ens: False
    try:
        yield
    finally:
        solver._can_polish = saved


def scan_cdp(seeds, caps, masks: int) -> None:
    print(f"64x64 gradient image, L={masks}, crossover off; rel_error at max_iters {list(caps)}")
    print(f"{'seed':>10} " + " ".join(f"{cap:>10d}" for cap in caps))
    with tempfile.TemporaryDirectory() as tmp, polish_off():
        image = gradient_image(tmp)
        for seed in seeds:
            errors = [run_cdp_demo(image, num_masks=masks, cfg=solver.SolverConfig(max_iters=cap),
                                   seed=seed, out_prefix=str(Path(tmp) / "cdp")).rel_error
                      for cap in caps]
            print(f"{seed:10d} " + " ".join(f"{e:10.3e}" for e in errors), flush=True)


def gradient_image(directory) -> Path:
    """The 64 x 64 gradient image of the CDP demo, written as a PGM."""
    image = Path(directory) / "gradient64.pgm"
    write_pgm(image, np.add.outer(np.linspace(5, 250, 64), np.linspace(0, 30, 64)))
    return image


def power_steps(ens, obs, steps: int, start):
    """steps power iterations on Sigma from start, normalised each step."""
    v = start / np.linalg.norm(start)
    for _ in range(steps):
        w = ens.adjoint(obs.b * ens.forward(v)) / ens.m
        v = w / np.linalg.norm(w)
    return v


def long_lanczos(ens, obs, steps: int, rng):
    """The anchor after steps Lanczos steps with the stop tolerance at 0."""
    saved = anchor._ANCHOR_RTOL
    anchor._ANCHOR_RTOL = 0.0
    try:
        return anchor.spectral_anchor(ens, obs, steps, rng).a0
    finally:
        anchor._ANCHOR_RTOL = saved


def anchor_instances(cdp_seeds, masks: int, n: int, ratios, trials: int, seed: int):
    """(name, ens, obs, stream at the anchor's draw, top eigenvector), one
    instance at a time."""
    for cdp_seed, (name, ens, obs, _, stream) in zip(cdp_seeds, cdp_instances(cdp_seeds, masks)):
        yield name, ens, obs, stream, long_lanczos(ens, obs, 200, RngStream(cdp_seed, 1))
    for name, ens, obs, _, stream in held_out_trials(n, ratios, trials, seed, NoiseModel.none()):
        sigma = (ens.rows.T * obs.b) @ ens.rows.conj() / ens.m
        yield name, ens, obs, stream, np.linalg.eigh(sigma)[1][:, -1]


def cdp_instances(seeds, masks: int):
    """(name, ens, obs, xstar, stream at the anchor's draw) of the CDP demo with
    masks masks at each seed, built as run_cdp_demo builds it."""
    with tempfile.TemporaryDirectory() as tmp:
        flat = read_pgm(gradient_image(tmp)).astype(np.float64).ravel()
    xstar = (flat / np.linalg.norm(flat)).astype(np.complex128)
    for seed in seeds:
        stream = RngStream(seed)
        ens = CodedDiffractionEnsemble.rademacher(xstar.shape[0], masks, stream)
        yield f"cdp {seed}", ens, observe(ens, xstar, NoiseModel.none(), stream), xstar, stream


def held_out_trials(n: int, ratios, trials: int, seed: int, noise):
    """(name, ens, obs, xstar, stream at the anchor's draw) of each held-out
    trial, built as _run_trial builds it."""
    for ratio in ratios:
        for t in range(trials):
            stream = RngStream(seed, int(round(100 * ratio)) + t)
            xs = sample_complex_gaussian(n, stream)
            ens = DenseEnsemble.gaussian(n, int(round(ratio * n)), stream)
            obs = observe(ens, xs, noise, stream)
            yield f"n={n} M/N={ratio:g} t={t}", ens, obs, xs, stream


def scan_polish(instances, noise, cfg) -> None:
    print(f"crossover at iterations {solver._POLISH_FIRST} with the Gram and "
          f"{solver._POLISH_EARLY}, {solver._POLISH_FIRST} without, noise "
          f"{noise.kind}:{noise.param:g}; search cap {solver._CERT_STEPS} steps with the Gram, "
          f"{solver._CERT_CALLS} kernel calls without")
    print(f"{'instance':>18} {'stop_reason':>12} {'iters':>6} {'cert_at':>7} {'loop_calls':>10} "
          f"{'gn_calls':>9} {'search_calls':>12} {'dr_steps':>9} {'solve_ms':>9} {'error':>10}")
    polish, gauss_newton, certificate = solver._polish, solver._gauss_newton, solver._certificate
    try:
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

            solver._polish = counting(polish, polish_calls)
            solver._gauss_newton = counting(gauss_newton, gn_calls)
            solver._certificate = counting(recording_certificate, search_calls)
            t0 = time.perf_counter()
            sol = solver.solve_phasemax(counted, obs, a0, cfg)
            solve_ms = (time.perf_counter() - t0) * 1e3
            loop_calls = counted.forwards + counted.adjoints - sum(polish_calls)
            cert_at = sol.iters_used if sol.stop_reason == "certified" else "-"
            print(f"{name:>18} {sol.stop_reason:>12} {sol.iters_used:6d} {cert_at:>7} "
                  f"{loop_calls:10d} {sum(gn_calls):9d} {attempts(search_calls):>12} "
                  f"{attempts(dr_steps):>9} {solve_ms:9.1f} "
                  f"{phase_align_error(sol.xhat, xs):10.2e}", flush=True)
    finally:
        solver._polish, solver._gauss_newton, solver._certificate = polish, gauss_newton, certificate


def attempts(counts) -> str:
    """One count per search attempt, joined by +, or - when none ran."""
    return "+".join(map(str, counts)) or "-"


def scan_anchor(cdp_seeds, masks: int, n: int, ratios, trials: int, seed: int) -> None:
    print(f"spectral anchor at a cap of 50 steps, _ANCHOR_RTOL={anchor._ANCHOR_RTOL:g}; "
          "distances to the top eigenvector of Sigma")
    print(f"{'instance':>22} {'steps':>6} {'lanczos':>10} {'power_50':>10}")
    for name, ens, obs, stream, top in anchor_instances(cdp_seeds, masks, n, ratios, trials, seed):
        start = sample_complex_gaussian(ens.n, copy.deepcopy(stream))
        report = anchor.spectral_anchor(ens, obs, 50, stream)
        print(f"{name:>22} {report.steps:6d} {phase_align_error(report.a0, top):10.2e} "
              f"{phase_align_error(power_steps(ens, obs, 50, start), top):10.2e}", flush=True)


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
