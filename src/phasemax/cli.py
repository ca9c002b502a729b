"""Command-line harness: `sweep` runs the Gaussian phase-transition benchmark,
`cdp` the coded-diffraction image demo, and `verify` the theory checks."""

from __future__ import annotations

import argparse
import math
import sys

from .experiments import (
    DEFAULT_CDP_CONFIG,
    SweepConfig,
    ratio_summary,
    run_cdp_demo,
    run_sweep,
    run_verify,
)
from .measurements import NoiseModel
from .solver import SolverConfig

__all__ = ["main", "parse_ratios", "parse_noise"]


# Largest number of ratios the lo:hi:step form may expand to.
MAX_RANGE_RATIOS = 10_000


def parse_ratios(text: str):
    """Parse '2,4,6' or 'lo:hi:step' into a list of sampling ratios."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range form must be lo:hi:step")
        lo, hi, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise argparse.ArgumentTypeError("range form needs finite lo, hi and step")
        if step <= 0 or hi < lo:
            raise argparse.ArgumentTypeError("range form needs step > 0 and hi >= lo")
        # Checked before the list is built: a step at or below the float
        # spacing of the range would never advance r, and a huge count eats
        # memory.
        if step <= math.ulp(max(abs(lo), abs(hi))) or (hi - lo) / step + 1 > MAX_RANGE_RATIOS:
            raise argparse.ArgumentTypeError(
                f"range {text!r} needs at most {MAX_RANGE_RATIOS} ratios and a step "
                "above the float spacing of its values")
        out = []
        r = lo
        while r <= hi + 1e-9:
            out.append(round(r, 12))
            r += step
        return out
    try:
        return [float(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ratio list {text!r}") from exc


def parse_noise(text: str) -> NoiseModel:
    """Parse 'none', 'uniform:<eta_inv>' or 'gaussian:<snr_db>' into a NoiseModel."""
    if text == "none":
        return NoiseModel.none()
    kind, sep, value = text.partition(":")
    if not sep or kind not in ("uniform", "gaussian"):
        raise argparse.ArgumentTypeError(
            f"noise must be none, uniform:<eta_inv> or gaussian:<snr_db>, got {text!r}"
        )
    try:
        return NoiseModel(kind, float(value))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad noise parameter {value!r}: {exc}") from exc


def _solver_config(args, default: SolverConfig) -> SolverConfig:
    max_iters = args.max_iters if args.max_iters is not None else default.max_iters
    tol = args.tol
    return SolverConfig(
        max_iters=max_iters,
        tol_rel_change=tol if tol is not None else default.tol_rel_change,
        tol_feas=tol if tol is not None else default.tol_feas,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasemax",
        description="Anchored convex relaxation for phase retrieval: benchmarks and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="Gaussian phase-transition sweep, writes CSV")
    sweep.add_argument("--n", type=int, default=128, help="signal length")
    sweep.add_argument("--ratios", type=parse_ratios, default=[2, 4, 6, 8, 10, 12],
                       help="comma list or lo:hi:step of M/N values")
    sweep.add_argument("--trials", type=int, default=20, help="trials per ratio")
    sweep.add_argument("--noise", type=parse_noise, default=NoiseModel.none(),
                       help="none | uniform:<eta_inv> | gaussian:<snr_db>, where snr_db is "
                            "the target input SNR; the number is the CSV's noise_param")
    sweep.add_argument("--anchor-iters", type=int, default=50,
                       help="cap on the spectral anchor's Lanczos steps; it stops sooner "
                            "once its top Ritz pair has converged")
    sweep.add_argument("--max-iters", type=int, default=None)
    sweep.add_argument("--tol", type=float, default=None,
                       help="sets both the relative-change and feasibility tolerances")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", default="sweep.csv", help="CSV output path")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes, at most one per trial and per usable CPU")

    cdp = sub.add_parser("cdp", help="coded-diffraction recovery of a PGM image")
    cdp.add_argument("--image", required=True, help="input 8-bit binary PGM (P5)")
    cdp.add_argument("--masks", type=int, default=20, help="number of modulation patterns L")
    cdp.add_argument("--anchor-iters", type=int, default=50,
                     help="cap on the spectral anchor's Lanczos steps; it stops sooner "
                          "once its top Ritz pair has converged")
    cdp.add_argument("--max-iters", type=int, default=None)
    cdp.add_argument("--tol", type=float, default=None,
                     help="sets both the relative-change and feasibility tolerances")
    cdp.add_argument("--seed", type=int, default=0)
    cdp.add_argument("--out-prefix", default="cdp")

    verify = sub.add_parser("verify", help="run the theory-verification suites")
    verify.add_argument("--suite", choices=["closed-forms", "geometry", "vc", "all"],
                        default="all")
    verify.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "sweep":
        cfg = SweepConfig(
            n=args.n,
            ratios=tuple(args.ratios),
            trials=args.trials,
            noise=args.noise,
            anchor_iters=args.anchor_iters,
            solver=_solver_config(args, SolverConfig()),
            seed=args.seed,
            out_path=args.out,
            workers=args.jobs,
        )
        records = run_sweep(cfg)
        print(f"wrote {len(records)} trials to {args.out}")
        print(f"{'ratio':>8} {'median':>12} {'q90':>12}")
        for ratio, median, q90 in ratio_summary(records):
            print(f"{ratio:8.2f} {median:12.4e} {q90:12.4e}")
        return 0
    if args.command == "cdp":
        report = run_cdp_demo(
            args.image,
            num_masks=args.masks,
            cfg=_solver_config(args, DEFAULT_CDP_CONFIG),
            seed=args.seed,
            out_prefix=args.out_prefix,
            anchor_iters=args.anchor_iters,
        )
        print(f"recovered {report.n} pixels from m={report.m} measurements "
              f"(L={report.num_masks})")
        print(f"rel_error={report.rel_error:.3e} iters={report.iters_used} "
              f"converged={report.converged} runtime_ms={report.runtime_ms:.1f}")
        print(f"outputs: {report.recovered_pgm}, {report.recovered_f64}, {report.report_path}")
        return 0
    report = run_verify(suite=args.suite, seed=args.seed)
    print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
