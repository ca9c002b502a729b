"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench -q

Runs every workload with --tiny in both trace modes and checks the result
contract, the metric names and units against BENCHMARK.json, and the span
tree: self times are non-negative, children lie inside their parent, and the
per-module self times plus the unattributed remainder make up the traced wall
time.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(script: Path, workload: str, trace: int, *extra):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def check_metrics(metrics: dict, spec_metrics: list):
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in spec_metrics}
    for name, v in metrics.items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(v["unit"])
        assert isinstance(v["value"], (int, float)) and v["value"] == v["value"]


def check_result(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = check_result(run_bench(HERE / "run.py", workload, 0))
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "ok_frac")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace(workload, tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    result = check_result(run_bench(HERE / "run.py", workload, 1, "--spans-out", str(spans_path)))
    metrics = result["metrics"]
    check_metrics(metrics, SPEC["per_layer"])

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert spans
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        assert s["start"] <= s["end"]
        if s["parent"] >= 0:
            assert s["parent"] < i
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            covered[s["parent"]] += s["end"] - s["start"]
    assert all(s["end"] - s["start"] - c >= 0 for s, c in zip(spans, covered))

    accounted = metrics["unattributed_frac"]["value"] + sum(
        v["value"] for k, v in metrics.items() if k.endswith(".self_frac"))
    assert accounted == pytest.approx(1.0, abs=1e-9)
    assert metrics["unattributed_frac"]["value"] >= 0


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path / HERE.name / "run.py", WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_wrappers_nest_and_restore():
    class Kernel:
        def apply(self, x):
            return x + 1

        @classmethod
        def make(cls):
            return cls().apply(1)

    before = dict(vars(Kernel))
    tracer = spans.Tracer()
    targets = [spans.Target(Kernel, "apply", "k.apply"), spans.Target(Kernel, "make", "k.make", new_op=True),
               spans.Target(Kernel, "absent", "k.absent")]
    with tracer.installed(targets) as missing:
        assert Kernel.make() == 2
    assert missing == ["k.absent"]
    assert vars(Kernel)["apply"] is before["apply"] and vars(Kernel)["make"] is before["make"]
    assert [s[spans.NAME] for s in tracer.spans] == ["k.make", "k.apply"]
    assert tracer.spans[1][spans.PARENT] == 0 and tracer.spans[0][spans.PARENT] == -1
    assert tracer.spans[0][spans.OP] == tracer.spans[1][spans.OP] == 0
