"""The scripts under tools/ run: each mode of step_scan.py, verify_seeds.py
and src_lines.py, once on tiny inputs, in this process. step_scan.py builds
its instances with private builders of phasemax.experiments and patches
private names of the solver and the anchor, so a change to those shows
here."""

import runpy
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TRIAL = ["--n", "8", "--ratios", "8", "--trials", "1"]


def main(tool):
    """The main function of tools/<tool>.py, which takes the arguments only."""
    return runpy.run_path(str(REPO / "tools" / f"{tool}.py"))["main"]


@pytest.mark.parametrize("argv, rows", [
    (TRIAL + ["--relax", "1.7"], ["1.7"]),
    (["--polish"] + TRIAL, ["n=8 M/N=8 t=0"]),
    (["--cdp", "1", "--at", "2", "--masks", "2"], ["1"]),
    (["--anchor", "--cdp", "1", "--masks", "2"] + TRIAL, ["cdp 1", "n=8 M/N=8 t=0"]),
    (["--polish", "--cdp", "1", "--masks", "2"], ["cdp 1"]),
], ids=["relax", "polish", "cdp", "anchor", "polish-cdp"])
def test_step_scan_runs_each_mode(argv, rows, capsys):
    assert main("step_scan")(argv) == 0
    # Header lines, then one row per instance, each led by its name.
    out = capsys.readouterr().out.splitlines()
    assert [line.strip()[:len(row)] for line, row in zip(out[-len(rows):], rows)] == rows


def test_verify_seeds_runs(capsys):
    assert main("verify_seeds")(["--suite", "vc", "--runs", "1", "--calls", "1"]) == 0
    assert "suite=vc" in capsys.readouterr().out


def test_src_lines_counts_the_root_given(capsys):
    # One root, src: a row per file under it, and a total that sums them.
    src = REPO / "src"
    assert main("src_lines")([str(src)]) == 0
    root, *rows, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert root == [str(src)]
    files = sorted(str(path.relative_to(src)) for path in src.rglob("*.py"))
    assert sorted(row[2] for row in rows) == files
    assert [int(c) for c in total[:2]] == [sum(int(row[i]) for row in rows) for i in (0, 1)]
