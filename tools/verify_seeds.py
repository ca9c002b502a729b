"""Run one verify suite over many call seeds; print every FAIL and, per check,
the worst margin seen and the seed it came from.

Call seeds are s * 1_000_000 + k for s < --runs and k < --calls, the seeds
the benchmark gives call k of a run with --seed s. Each call runs at the
CLI's scale (run_verify's defaults). Exit code 1 when any check failed.

    python3 tools/verify_seeds.py --suite geometry --runs 11 --calls 25
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from phasemax.experiments import run_verify  # noqa: E402


def scan(suite: str, runs: int, calls: int) -> int:
    """Print FAIL lines as they occur and a per-check summary; return the
    number of failed checks."""
    worst = {}  # check name -> (margin, seed); margin None for yes/no checks
    fails = {}
    for s in range(runs):
        for k in range(calls):
            seed = s * 1_000_000 + k
            for c in run_verify(suite, seed=seed).checks:
                fails[c.name] = fails.get(c.name, 0) + (not c.passed)
                if not c.passed:
                    print(f"seed {seed}: {c.render()}", flush=True)
                prev = worst.get(c.name)
                if prev is None or (c.margin is not None and c.margin < prev[0]):
                    worst[c.name] = (c.margin, seed)
    print(f"suite={suite} seeds s*1e6+k, s<{runs}, k<{calls}: {runs * calls} calls")
    for name, (margin, seed) in worst.items():
        where = "yes/no check" if margin is None else f"worst margin {margin:.4g} at seed {seed}"
        print(f"  {name}: {fails[name]} FAIL, {where}")
    return sum(fails.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", required=True, choices=("closed-forms", "geometry", "vc", "all"))
    parser.add_argument("--runs", type=int, default=11, help="run seeds s = 0 .. runs-1")
    parser.add_argument("--calls", type=int, default=25, help="call numbers k = 0 .. calls-1")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.calls < 1:
        parser.error("--runs and --calls must be >= 1")
    return 1 if scan(args.suite, args.runs, args.calls) else 0


if __name__ == "__main__":
    sys.exit(main())
