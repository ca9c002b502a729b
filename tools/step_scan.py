"""Solve held-out noiseless sweep trials at several primal weights (the
multiple of the balance c in solver._PRIMAL_WEIGHT), relaxations
(solver._RELAXATION) and Anderson history lengths (solver._AA_MEMORY; 0 runs
the plain relaxed loop) and print, per combination, the median and largest
iteration count, the trials that ran to max_iters and the worst recovered
error.

Trial t at ratio M/N is built by the sweep's own _run_trial, but on stream
ids of this tool's choosing, RngStream(seed, 100 * M/N + t), not the ids
run_sweep assigns (ratio index * trials + t). With the default seed 7 it
shares no stream with the benchmark's call seeds or the acceptance tests;
tests/test_solver.py pins the iteration counts of four of these trials.

With --cdp it instead runs the CDP demo, run_cdp_demo on the 64 x 64
gradient image with 20 masks (acceptance criterion 7 and the cdp-image
benchmark), once per seed and per iteration cap in --at, and prints each
instance's rel_error at each cap, at the solver's current constants.

    python3 tools/step_scan.py --weights 1 2.5 --relax 1 1.5 1.7 --n 128 --ratios 8 12 --trials 8
    python3 tools/step_scan.py --relax 1.7 --memory 0 3 5 8 10 12
    python3 tools/step_scan.py --cdp 20260809 5000000 5000001 --at 150 175 250
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from phasemax import solver  # noqa: E402
from phasemax.experiments import _run_trial, run_cdp_demo  # noqa: E402
from phasemax.measurements import NoiseModel  # noqa: E402
from phasemax.pgm import write_pgm  # noqa: E402


def scan(weights, relaxations, memories, n: int, ratios, trials: int, seed: int) -> None:
    cfg = solver.SolverConfig()
    tasks = [(n, ratio, int(round(100 * ratio)) + t, t, seed, NoiseModel.none(), 50, cfg)
             for ratio in ratios for t in range(trials)]
    saved = solver._PRIMAL_WEIGHT, solver._RELAXATION, solver._AA_MEMORY
    print(f"n={n} ratios={list(ratios)} trials={trials} seed={seed} max_iters={cfg.max_iters}")
    print(f"{'weight':>7} {'relax':>6} {'memory':>7} {'iters_p50':>10} {'iters_max':>10} "
          f"{'unconverged':>12} {'worst_err':>10}")
    try:
        for w, rho, memory in itertools.product(weights, relaxations, memories):
            solver._PRIMAL_WEIGHT, solver._RELAXATION, solver._AA_MEMORY = w, rho, memory
            records = [_run_trial(task) for task in tasks]
            iters = [r.iters for r in records]
            print(f"{w:7g} {rho:6g} {memory:7d} {statistics.median(iters):10g} {max(iters):10d} "
                  f"{sum(not r.converged for r in records):12d} "
                  f"{max(r.rel_error for r in records):10.2e}", flush=True)
    finally:
        solver._PRIMAL_WEIGHT, solver._RELAXATION, solver._AA_MEMORY = saved


def scan_cdp(seeds, caps) -> None:
    print(f"64x64 gradient image, L=20; rel_error at max_iters {list(caps)}")
    print(f"{'seed':>10} " + " ".join(f"{cap:>10d}" for cap in caps))
    with tempfile.TemporaryDirectory() as tmp:
        image = Path(tmp) / "gradient64.pgm"
        write_pgm(image, np.add.outer(np.linspace(5, 250, 64), np.linspace(0, 30, 64)))
        for seed in seeds:
            errors = [run_cdp_demo(image, num_masks=20, cfg=solver.SolverConfig(max_iters=cap),
                                   seed=seed, out_prefix=str(Path(tmp) / "cdp")).rel_error
                      for cap in caps]
            print(f"{seed:10d} " + " ".join(f"{e:10.3e}" for e in errors), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--weights", type=float, nargs="+", default=[1.0])
    parser.add_argument("--relax", type=float, nargs="+", default=[1.0, 1.5, 1.7, 1.8])
    parser.add_argument("--memory", type=int, nargs="+", default=[solver._AA_MEMORY],
                        help="Anderson history lengths, capped as in the solver; 0 runs the plain loop")
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--ratios", type=float, nargs="+", default=[8.0, 12.0])
    parser.add_argument("--trials", type=int, default=8, help="trials t = 0 .. trials-1 a ratio")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--cdp", type=int, nargs="+", metavar="SEED",
                        help="run the CDP demo at these seeds instead of the sweep trials")
    parser.add_argument("--at", type=int, nargs="+", default=[175], metavar="ITERS",
                        help="with --cdp: the iteration caps to report")
    args = parser.parse_args(argv)
    if args.cdp is not None:
        if not all(cap >= 1 for cap in args.at):
            parser.error("--at must be >= 1")
        scan_cdp(args.cdp, args.at)
        return 0
    if not all(w > 0 for w in args.weights) or args.n < 1 or args.trials < 1:
        parser.error("--weights must be > 0, --n and --trials >= 1")
    if not all(0 < rho < 2 for rho in args.relax):
        parser.error("--relax must lie in (0, 2)")
    if not all(memory >= 0 for memory in args.memory):
        parser.error("--memory must be >= 0")
    scan(args.weights, args.relax, args.memory, args.n, args.ratios, args.trials, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
