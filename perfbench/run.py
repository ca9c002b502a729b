"""phasemax benchmark: three workloads through the CLI's entry points.

    python3 perfbench/run.py --workload gauss-sweep --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each is there):
  gauss-sweep    experiments.run_sweep, n=128, M/N in {8, 12}, one trial per
                 ratio per call, default SolverConfig, anchor_iters=50
  cdp-image      experiments.run_cdp_demo on a 64x64 gradient PGM, L=20,
                 DEFAULT_CDP_CONFIG, seeded masks
  verify-theory  experiments.run_verify("all") at the CLI scale
  all            each of the above in its own process, in turn

--trace 0 measures the end-to-end metrics with no tracing. --trace 1 makes
an untraced pass for half the time, then repeats its calls with span
wrappers installed and reports the per-layer metrics; the two passes must
agree bitwise. Every run checks the program's outputs. The last stdout line
is one JSON object {"correct", "attempted", "failed", "metrics"}; lines
before it start with "#" and give the environment and a readable table.
Exit code 1 when any operation fails or an output check does not hold.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is imported. With the default two threads
# on a 2-core machine a 20-trial n=128 sweep took 9.6-11.2 s (a 15% spread);
# pinned to one thread it took 14.9-15.4 s (3%).
BLAS_THREADS = 1
BLAS_PIN_REASON = ("20-trial sweep: 14.9-15.4 s with 1 thread, 9.6-11.2 s with the "
                   "default 2; the 2-thread spread is wider than the bounds")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "phasemax" / "__init__.py").is_file():
    sys.exit(f"error: phasemax sources not found under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from phasemax import experiments, measurements, pgm, solver, theory  # noqa: E402
from phasemax.solver import SolverConfig  # noqa: E402
from spans import END, EXTRA, NAME, PARENT, START, Target, Tracer, self_times  # noqa: E402

if Path(experiments.__file__).resolve().parent != SRC / "phasemax":
    sys.exit(f"error: imported phasemax from {experiments.__file__}, not from {SRC}")

WORKLOADS = ("gauss-sweep", "cdp-image", "verify-theory")
SETUP_PROBES = 9
RATIOS = (8.0, 12.0)
SWEEP_ACCURACY = 1e-6  # rel_error bar for a recovered sweep trial
CDP_ACCURACY = 1e-4  # rel_error bar of the CDP acceptance criterion
MODULES = ("experiments", "measurements", "numerics", "anchor", "solver", "theory", "pgm")


def call_seed(seed: int, k: int) -> int:
    """Seed of the k-th call of a run: every call gets fresh inputs."""
    return seed * 1_000_000 + k


@dataclass(frozen=True)
class Outcome:
    """One operation: a recovery or a verify check."""

    ok: bool  # completed with finite, self-consistent output (a check: PASS)
    accurate: bool  # recovery within the workload's accuracy (a check: PASS)
    key: tuple  # deterministic fields compared bitwise between passes
    group: str = "failed"  # the sweep ratio ("mn8", "mn12"), "cdp" or "check"


FAILED = Outcome(False, False, ("failed",))


def accurate_frac(outcomes, groups) -> float:
    """Share of the outcomes in `groups` that are accurate; a failed call
    counts against every group."""
    counted = [o for o in outcomes if o.group in groups or o is FAILED]
    return sum(o.accurate for o in counted) / len(counted) if counted else 0.0


class GaussSweep:
    name = "gauss-sweep"
    # M/N = 8 sits at the phase transition, where a trial recovers or stalls
    # almost at random: with 12-18 such trials a run, the recovered share of
    # all trials spread by 0.23 from seed to seed. So the gated ok_frac
    # counts the M/N = 12 trials, and M/N = 8 is reported per layer.
    ok_groups = ("mn12",)

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.n = 8 if tiny else 128
        self.solver = SolverConfig(max_iters=20) if tiny else SolverConfig()

    def config(self, seed, solver_cfg, anchor_iters=50):
        return experiments.SweepConfig(n=self.n, ratios=RATIOS, trials=1, anchor_iters=anchor_iters,
                                       solver=solver_cfg, seed=seed, workers=1)

    def warm_up(self):
        experiments.run_sweep(self.config(call_seed(self.seed, 999_999), SolverConfig(max_iters=1), 1))

    def run(self, k):
        return experiments.run_sweep(self.config(call_seed(self.seed, k), self.solver))

    def outcomes(self, records):
        if len(records) != len(RATIOS):
            return [FAILED]
        return [
            Outcome(ok=(math.isfinite(r.rel_error) and 1 <= r.iters <= self.solver.max_iters
                        and r.m == round(r.ratio * self.n)),
                    accurate=r.rel_error <= SWEEP_ACCURACY,
                    key=(r.ratio, r.iters, r.rel_error),
                    group=f"mn{r.ratio:g}")
            for r in records
        ]


class CdpImage:
    name = "cdp-image"
    ok_groups = ("cdp",)

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        side = 8 if tiny else 64
        self.num_masks = 2 if tiny else 20
        self.n = side * side
        self.cfg = SolverConfig(max_iters=5) if tiny else experiments.DEFAULT_CDP_CONFIG
        self.image_path = workdir / "gradient.pgm"
        pgm.write_pgm(self.image_path, np.add.outer(np.linspace(5, 250, side), np.linspace(0, 30, side)))
        self.image = pgm.read_pgm(self.image_path)
        self.prefix = str(workdir / "cdp")

    def call(self, seed, cfg, anchor_iters=50):
        return experiments.run_cdp_demo(self.image_path, num_masks=self.num_masks, cfg=cfg, seed=seed,
                                        out_prefix=self.prefix, anchor_iters=anchor_iters)

    def warm_up(self):
        self.call(call_seed(self.seed, 999_999), SolverConfig(max_iters=1), 1)

    def run(self, k):
        return self.call(call_seed(self.seed, k), self.cfg)

    def outcomes(self, report):
        """Read the written files back: the sidecar's error against the image
        can only be below the complex error the report states, because it
        keeps the real part of the phase-aligned estimate."""
        truth = self.image.astype(np.float64).ravel()
        sidecar = pgm.read_f64_sidecar(report.recovered_f64)
        written = pgm.read_pgm(report.recovered_pgm)
        lines = Path(report.report_path).read_text().splitlines()
        ok = (math.isfinite(report.rel_error) and sidecar.shape == truth.shape
              and written.shape == self.image.shape
              and f"rel_error={report.rel_error!r}" in lines
              and f"iters_used={report.iters_used}" in lines)
        if ok:
            sidecar_err = np.linalg.norm(sidecar - truth) / np.linalg.norm(truth)
            ok = bool(sidecar_err <= report.rel_error * (1 + 1e-6) + 1e-12)
        return [Outcome(ok, report.rel_error <= CDP_ACCURACY, (report.iters_used, report.rel_error), "cdp")]


class VerifyTheory:
    name = "verify-theory"
    ok_groups = ("check",)

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.n = 8  # dimension of the geometry checks
        # Empty: run_verify's defaults are the CLI scale.
        self.scale = dict(mc_draws=2_000, num_h=2, num_a=500) if tiny else {}

    def warm_up(self):
        experiments.run_verify("all", seed=call_seed(self.seed, 999_999), mc_draws=1_000, num_h=2,
                               num_a=100)

    def run(self, k):
        return experiments.run_verify("all", seed=call_seed(self.seed, k), **self.scale)

    def outcomes(self, report):
        return [Outcome(c.passed, c.passed, (c.name, c.passed, c.observed), "check") for c in report.checks]


WORKLOAD_CLASSES = {w.name: w for w in (GaussSweep, CdpImage, VerifyTheory)}


@dataclass
class Pass:
    outcomes: list
    call_s: list
    wall_s: float


def run_pass(workload, seconds: float = 0.0, calls: int = 0) -> Pass:
    """Call the workload until `seconds` have passed (at least once), or
    exactly `calls` times when calls > 0. Output checks run between calls and
    count towards wall time, not call time."""
    outcomes, call_s = [], []
    start = time.perf_counter()
    k = 0
    while k < calls if calls else (k == 0 or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        try:
            result = workload.run(k)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            result = None
        call_s.append(time.perf_counter() - t0)
        outcomes.extend(checked(workload, result))
        k += 1
    return Pass(outcomes, call_s, time.perf_counter() - start)


def checked(workload, result) -> list:
    if result is not None:
        try:
            return workload.outcomes(result)
        except (OSError, ValueError):  # an output file missing or malformed
            traceback.print_exc(file=sys.stderr)
    return [FAILED]


def setup(name: str, seed: int, workdir: Path, tiny: bool):
    """Everything before the first timed call: inputs, then a warm-up call at
    the workload's sizes with minimal iterations."""
    workload = WORKLOAD_CLASSES[name](seed, workdir, tiny)
    workload.warm_up()
    return workload


def measure_setup_s(name: str, seed: int, tiny: bool) -> float:
    """Median over fresh processes of the time from spawn to ready: interpreter
    start, imports, input generation and warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--setup-probe"] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.communicate()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(p: Pass, workload, setup_s: float, rss_mb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(o.ok for o in p.outcomes) / p.wall_s, "1/s"),
        "call_ms_p50": (statistics.median(p.call_s) * 1e3, "ms"),
        "ok_frac": (accurate_frac(p.outcomes, workload.ok_groups), "frac"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def named_metrics(name: str, e2e: dict, p: Pass) -> dict:
    """The end-to-end metrics under the names they have on one workload."""
    if name == "verify-theory":
        return {"verify_s": (e2e["call_ms_p50"][0] / 1e3, "s"), "checks_passed_frac": e2e["ok_frac"]}
    named = {"solves_per_s": e2e["ops_per_s"],
             "recovered_frac": (accurate_frac(p.outcomes, ("mn8", "mn12", "cdp")), "frac")}
    if name == "cdp-image":
        named["solve_ms_p50"] = e2e["call_ms_p50"]
    else:
        named["recovered_frac_mn8"] = (accurate_frac(p.outcomes, ("mn8",)), "frac")
        named["recovered_frac_mn12"] = (accurate_frac(p.outcomes, ("mn12",)), "frac")
    return named


def trace_targets() -> list:
    """Calls wrapped in the traced pass, each under the module that owns the work."""
    E, M, T = experiments, measurements, theory
    dense, cdp = M.DenseEnsemble, M.CodedDiffractionEnsemble

    def dense_bytes(args, _):  # matrix, input and output of one product, as computed
        return 16 * (args[0].m * args[0].n + args[0].m + args[0].n)

    return [
        Target(E, "run_sweep", "experiments.run_sweep", new_op=True),
        Target(E, "_run_trial", "experiments.trial", new_op=True, extra=lambda a, r: r.anchor_corr),
        Target(E, "run_cdp_demo", "experiments.run_cdp_demo", new_op=True),
        Target(E, "run_verify", "experiments.run_verify", new_op=True),
        Target(E, "_closed_form_checks", "experiments.closed_form_checks"),
        Target(E, "_geometry_checks", "experiments.geometry_checks"),
        Target(E, "_vc_checks", "experiments.vc_checks"),
        Target(E, "read_pgm", "pgm.read_pgm"),
        Target(E, "write_pgm", "pgm.write_pgm"),
        Target(E, "write_f64_sidecar", "pgm.write_f64_sidecar"),
        Target(E, "observe", "measurements.observe"),
        Target(E, "spectral_anchor", "anchor.spectral_anchor"),
        Target(E, "solve_phasemax", "solver.solve_phasemax",
               extra=lambda a, r: (r.iters_used, r.converged, r.feas_residual)),
        Target(solver, "operator_norm", "measurements.operator_norm"),
        Target(M, "as_signal", "numerics.as_signal", extra=lambda a, r: r.shape[0]),
        Target(dense, "gaussian", "measurements.ensemble_sample"),
        Target(cdp, "rademacher", "measurements.ensemble_sample"),
        Target(dense, "forward", "measurements.dense_forward", extra=dense_bytes),
        Target(dense, "adjoint", "measurements.dense_adjoint", extra=dense_bytes),
        Target(cdp, "forward", "measurements.cdp_forward"),
        Target(cdp, "adjoint", "measurements.cdp_adjoint"),
        Target(T, "empirical_pmin", "theory.empirical_pmin"),
        Target(T, "measurement_cut_probability", "theory.cut_probability"),
        Target(T, "in_Cprime_delta", "theory.in_Cprime_delta"),
    ]


def per_layer(spans, workload, untraced: Pass, traced: Pass) -> dict:
    """Per-layer metrics of a traced pass; 0 where a layer did no work."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def durations(*names):
        return [spans[i][END] - spans[i][START] for name in names for i in by_name[name]]

    def median(values, scale=1.0):
        return statistics.median(values) * scale if values else 0.0

    def per(num, den):
        return num / den if den else 0.0

    def children(parent_name, child_name):
        parents = set(by_name[parent_name])
        return sum(spans[i][PARENT] in parents for i in by_name[child_name])

    solves = [spans[i][EXTRA] for i in by_name["solver.solve_phasemax"]]
    recoveries = len(solves)
    iters = [s[0] for s in solves]
    dense = by_name["measurements.dense_forward"] + by_name["measurements.dense_adjoint"]
    sizes = defaultdict(list)
    for i in by_name["numerics.as_signal"]:
        sizes["n" if spans[i][EXTRA] == workload.n else "m"].append(spans[i][END] - spans[i][START])
    trials = len(by_name["experiments.trial"])
    sweep_self = sum(selfs[i] for i in by_name["experiments.run_sweep"] + by_name["experiments.trial"])
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    module_self = defaultdict(float)
    for s, t in zip(spans, selfs):
        module_self[s[NAME].split(".")[0]] += t

    m = {
        "measurements.dense_forward_us": (median(durations("measurements.dense_forward"), 1e6), "us"),
        "measurements.dense_adjoint_us": (median(durations("measurements.dense_adjoint"), 1e6), "us"),
        "measurements.dense_calls_per_solve": (per(len(dense), recoveries), "count"),
        "measurements.dense_gbps_computed": (
            per(sum(spans[i][EXTRA] for i in dense),
                sum(spans[i][END] - spans[i][START] for i in dense)) / 1e9, "GB/s"),
        "measurements.cdp_forward_us": (median(durations("measurements.cdp_forward"), 1e6), "us"),
        "measurements.cdp_adjoint_us": (median(durations("measurements.cdp_adjoint"), 1e6), "us"),
        "measurements.cdp_calls_per_solve": (
            per(len(durations("measurements.cdp_forward", "measurements.cdp_adjoint")), recoveries), "count"),
        "measurements.operator_norm_ms": (median(durations("measurements.operator_norm"), 1e3), "ms"),
        "measurements.ensemble_sample_ms": (median(durations("measurements.ensemble_sample"), 1e3), "ms"),
        "measurements.observe_ms": (median(durations("measurements.observe"), 1e3), "ms"),
        "solver.solve_ms_p50": (median(durations("solver.solve_phasemax"), 1e3), "ms"),
        "solver.iters_p50": (median(iters), "count"),
        "solver.iters_max": (max(iters, default=0), "count"),
        "solver.self_us_per_iter": (
            per(sum(selfs[i] for i in by_name["solver.solve_phasemax"]), sum(iters)) * 1e6, "us"),
        "solver.converged_frac": (per(sum(s[1] for s in solves), recoveries), "frac"),
        "solver.feas_residual_max": (max((s[2] for s in solves), default=0.0), "b"),
        "anchor.spectral_anchor_ms": (median(durations("anchor.spectral_anchor"), 1e3), "ms"),
        "anchor.corr_p50": (median([spans[i][EXTRA] for i in by_name["experiments.trial"]]), "1"),
        "numerics.as_signal_n_us": (median(sizes["n"], 1e6), "us"),
        "numerics.as_signal_m_us": (median(sizes["m"], 1e6), "us"),
        "theory.cut_probability_ms": (median(durations("theory.cut_probability"), 1e3), "ms"),
        "theory.rejection_accept_frac": (
            per(children("theory.empirical_pmin", "theory.cut_probability"),
                children("theory.empirical_pmin", "theory.in_Cprime_delta")), "frac"),
        "theory.closed_forms_s": (median(durations("experiments.closed_form_checks")), "s"),
        "theory.geometry_s": (median(durations("experiments.geometry_checks")), "s"),
        "theory.vc_s": (median(durations("experiments.vc_checks")), "s"),
        "experiments.sweep_overhead_ms_per_trial": (per(sweep_self, trials) * 1e3, "ms"),
        "experiments.recovered_frac_mn8": (accurate_frac(traced.outcomes, ("mn8",)), "frac"),
        "experiments.cdp_io_ms": (
            per(sum(durations("pgm.read_pgm", "pgm.write_pgm", "pgm.write_f64_sidecar")),
                len(by_name["experiments.run_cdp_demo"])) * 1e3, "ms"),
        "trace_overhead_frac": (traced.wall_s / untraced.wall_s - 1.0, "frac"),
        "unattributed_frac": ((traced.wall_s - roots) / traced.wall_s, "frac"),
    }
    for module in MODULES:
        m[f"{module}.self_frac"] = (module_self[module] / traced.wall_s, "frac")
    return m


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
        "blas_pin_reason": BLAS_PIN_REASON,
    }


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"#   {name:44s} {value:14.6g} {unit}")


def run_workload(args) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = setup(args.workload, args.seed, Path(tmp), args.tiny)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        setup_s = measure_setup_s(args.workload, args.seed, args.tiny)
        # With tracing the untraced and the traced pass share the run's time.
        untraced = run_pass(workload, seconds=args.seconds / 2 if args.trace else args.seconds)
        e2e = end_to_end(untraced, workload, setup_s, peak_rss_mb())
        failed = sum(not o.ok for o in untraced.outcomes)
        attempted = len(untraced.outcomes)
        gate = []
        if args.trace:
            tracer = Tracer()
            with tracer.installed(trace_targets()) as missing:
                traced = run_pass(workload, calls=len(untraced.call_s))
            layers = per_layer(tracer.spans, workload, untraced, traced)
            if args.spans_out:
                tracer.write_jsonl(args.spans_out)
            if missing:
                print(f"# not traced (absent in this version): {', '.join(missing)}")
            if [o.key for o in traced.outcomes] != [o.key for o in untraced.outcomes]:
                gate.append("traced and untraced passes differ")
            failed += sum(not o.ok for o in traced.outcomes)
            attempted += len(traced.outcomes)
    if failed:
        gate.append(f"{failed} of {attempted} operations failed")
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} calls={len(untraced.call_s)} ops={len(untraced.outcomes)}")
    print("# env " + json.dumps(environment()))
    print_table("end_to_end (untraced pass)", {**e2e, **named_metrics(args.workload, e2e, untraced)})
    if args.trace:
        print_table("per_layer (traced pass)", layers)
        print(f"# traced wall {traced.wall_s:.3f} s = module self times "
              f"{sum(layers[f'{m}.self_frac'][0] for m in MODULES) * traced.wall_s:.3f} s "
              f"+ unattributed {layers['unattributed_frac'][0] * traced.wall_s:.3f} s")
    for problem in gate:
        print(f"# GATE FAILED: {problem}")
    result = {
        "correct": not gate,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (layers if args.trace else e2e).items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not gate else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", help="with --trace 1, write the traced pass's spans as JSON lines")
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the harness self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
